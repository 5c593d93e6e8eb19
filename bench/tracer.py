"""Per-layer spans and counts, recorded from outside the library.

A ``Tracer`` replaces module attributes of ``obliqueshell`` with wrappers that
open a span around the original call and add work counts computed from its
arguments.  Callers look these attributes up when they call them (module
globals, ``module.attr`` access, class attributes), so every caller goes
through the wrapper.  ``restore`` puts the originals back.

Spans are kept in memory: name, start, end and the index of the enclosing
span.  ``summary`` turns them into per-name call counts, inclusive seconds and
self seconds (duration minus the time covered by direct child spans).
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap_function(self, fn, span: str, count):
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(span, time.perf_counter(), parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec = self.spans[index]
                rec.end = time.perf_counter()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent].child_s += rec.end - rec.start
            if count is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts.update(count(bound.arguments, result))
                except (KeyError, TypeError, AttributeError, ValueError) as exc:
                    self.count_errors.append(f"{span}: {exc!r}")
            return result

        return wrapper

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``count(arguments, result)`` returns a mapping of counter increments;
        ``arguments`` maps parameter names to the values of the call.  A
        target that does not exist is noted in ``missing`` and left alone.
        """
        original = vars(owner).get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(original, property):
            replacement = property(self._wrap_function(original.fget, span, count))
        else:
            replacement = self._wrap_function(original, span, count)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` for every span
        name, plus the counters."""
        out: dict[str, float] = {}
        for rec in self.spans:
            dur = rec.end - rec.start
            out[f"{rec.name}.calls"] = out.get(f"{rec.name}.calls", 0) + 1
            out[f"{rec.name}.s"] = out.get(f"{rec.name}.s", 0.0) + dur
            out[f"{rec.name}.self_s"] = out.get(f"{rec.name}.self_s", 0.0) \
                + dur - rec.child_s
        out.update(self.counts)
        return out

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]


# ---------------------------------------------------------------------------
# the obliqueshell layers

#: curve samples of the brute-force proximity checks in ``bie``
_POINT_CHECK_SAMPLES = 2048
_VOLUME_CHECK_SAMPLES = 4096


def _points(x) -> int:
    """Number of 2-vectors in an (..., 2) coordinate array."""
    return int(np.size(x)) // 2


def _paths_size(argv) -> int:
    total = 0
    for flag in ("--out", "--manifest"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                total += os.path.getsize(path)
    return total


def instrument(tracer: Tracer) -> Tracer:
    """Wrap every obliqueshell function a caller resolves, by layer."""
    from obliqueshell import bie, cli, dirac, geometry, kernels, specfun, spectral

    # geometry: the grid builder under each name it is imported as
    for mod, attr in ((geometry, "grid"), (spectral, "make_grid"), (dirac, "make_grid")):
        tracer.wrap(mod, attr, "geometry.grid")
    tracer.wrap(geometry.Curve, "diameter", "geometry.diameter")

    # specfun: vectorised Bessel functions, counted per argument
    for mod in (specfun, bie, kernels):
        tracer.wrap(mod, "bessel_k_array", "specfun.bessel_k",
                    lambda a, r: {"specfun.bessel_k.evals": int(np.size(a["z"]))})
    for mod in (specfun, bie):
        tracer.wrap(mod, "bessel_i_array", "specfun.bessel_i",
                    lambda a, r: {"specfun.bessel_i.evals": int(np.size(a["z"]))})

    # kernels: pointwise kernels, counted per evaluation point
    for name, key, mods in (("kernel_U", "U", (kernels, bie, dirac, spectral)),
                            ("kernel_L", "L", (kernels, bie, dirac)),
                            ("kernel_dzbar_U", "dzbar_U", (kernels, spectral)),
                            ("kernel_G", "G", (kernels, dirac))):
        for mod in mods:
            tracer.wrap(mod, name, f"kernels.{key}",
                        lambda a, r, key=key: {f"kernels.{key}.evals": _points(a["x"])})

    # bie: assembly per quadrature path, eigensolves, volume-target work
    tracer.wrap(bie, "_single_layer_weights_mk", "bie.assemble.mk")
    tracer.wrap(bie, "_single_layer_weights_local", "bie.assemble.panel")
    tracer.wrap(bie, "assemble_M3CM3", "bie.assemble_M3CM3")
    tracer.wrap(bie.BoundaryOperatorMatrix, "eigenvalues_desc", "bie.eigensolve")
    tracer.wrap(bie, "_check_points_off_curve", "bie.proximity",
                lambda a, r: {"bie.proximity.pairs":
                              _points(a["points"]) * _POINT_CHECK_SAMPLES})
    tracer.wrap(bie, "check_volume_clear_of_curve", "bie.proximity",
                lambda a, r: {"bie.proximity.pairs":
                              len(a["vol"].points) * _VOLUME_CHECK_SAMPLES})
    tracer.wrap(bie, "_eval_layer", "bie.layer_eval",
                lambda a, r: {"bie.layer_eval.pairs": _points(a["points"])
                              * max(a["upsample"], 1) * a["grid"].N})
    tracer.wrap(bie, "apply_Psi_star", "bie.adjoint",
                lambda a, r: {"bie.adjoint.pairs": len(a["vol"].points) * a["grid"].N})
    tracer.wrap(bie, "jump_traces", "bie.traces")

    # spectral: root finding and the resolvent
    tracer.wrap(spectral, "enumerate_spectrum", "spectral.enumerate_spectrum",
                lambda a, r: {"spectral.eigenvalues": len(r.eigenvalues)})
    tracer.wrap(spectral, "find_eigenvalue", "spectral.find_eigenvalue")
    tracer.wrap(spectral, "_mu_n", "spectral.mu_n",
                lambda a, r: {"spectral.root_evals": 1})
    tracer.wrap(spectral, "krein_apply", "spectral.krein_apply")
    tracer.wrap(spectral, "_free_resolvent_on_grid", "spectral.free_resolvent")
    tracer.wrap(spectral, "_direct_volume_field", "spectral.direct_volume",
                lambda a, r: {"spectral.direct_volume.pairs":
                              _points(a["points"]) * len(a["vol"].points)})
    tracer.wrap(spectral, "krein_transmission_residual",
                "spectral.transmission_residual")

    # dirac: the four gaps and the resolvent correction
    for attr, span in (("_gap_a0", "dirac.gap_a0"), ("_gap_phi", "dirac.gap_phi"),
                       ("_gap_phi_star", "dirac.gap_phistar"), ("_gap_c", "dirac.gap_c"),
                       ("dirac_correction", "dirac.correction")):
        tracer.wrap(dirac, attr, span)

    # cli: argument handling, JSON and manifest output
    tracer.wrap(cli, "main", "cli",
                lambda a, r: {"cli.bytes_written": _paths_size(list(a["argv"] or []))})
    return tracer

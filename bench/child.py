"""One benchmark child process: set up a workload, time it, check it.

Started by ``run.py`` with the BLAS/OpenMP thread variables already in its
environment, so they hold before numpy is imported.  Prints one JSON object
as its last line of standard output.

With ``--setup-only`` the child stops once the workload is ready and reports
only its set-up time.  With ``--trace 1`` it makes one untraced call and one
traced call, checks that both give bit-identical outputs, and reports the
per-layer metrics of the traced call.  ``trace.overhead_s`` is the traced
call's time minus the untraced one's; the untraced call comes first, so it
also carries first-call costs such as the library's lazy imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    """Import obliqueshell from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import obliqueshell
    if Path(obliqueshell.__file__).resolve().parent != SRC / "obliqueshell":
        raise SystemExit(f"obliqueshell imported from {obliqueshell.__file__}, "
                         f"not from {SRC}")
    return obliqueshell


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _environment(obliqueshell) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "obliqueshell": obliqueshell.__version__,
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _timed(workload):
    t0 = time.perf_counter()
    out = workload.call()
    return out, time.perf_counter() - t0


def _layer_metrics(summary: dict) -> dict:
    """Span summary plus the derived per-layer ratios and totals."""
    out = dict(summary)
    evals = out.get("spectral.eigenvalues", 0)
    out["spectral.assemblies_per_eigenvalue"] = \
        out.get("spectral.root_evals", 0) / evals if evals else 0.0
    out["kernels.s"] = sum(out.get(f"kernels.{k}.s", 0.0)
                           for k in ("U", "L", "dzbar_U", "G"))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-ns", type=int, required=True,
                   help="time.monotonic_ns() of the parent just before the spawn")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    obliqueshell = _import_library()
    from tracer import Tracer, instrument
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, "full", Path(args.workdir))
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    outputs, walls = [], []
    if args.trace:
        out, wall = _timed(workload)
        outputs.append(out)
        walls.append(wall)
        with instrument(Tracer()) as tracer:
            cpu0 = _cpu_s()
            out, wall = _timed(workload)
            cpu = _cpu_s() - cpu0
        outputs.append(out)
        walls.append(wall)
        layers = _layer_metrics(tracer.summary())
        layers["process.cpu_s"] = cpu
        layers["trace.overhead_s"] = walls[1] - walls[0]
        result.update(layers=layers, missing=tracer.missing,
                      count_errors=tracer.count_errors, spans=tracer.span_records())
    else:
        # closed loop: the next call starts when the previous one returns;
        # stop when one more call would end further from the measuring
        # window's end than the last one did
        start = time.monotonic()
        while True:
            out, wall = _timed(workload)
            outputs.append(out)
            walls.append(wall)
            if time.monotonic() - start + wall / 2 >= args.seconds:
                break
    result["peak_rss_mb"] = _peak_rss_mb()

    checks = []
    for out in outputs:
        gates, notes = workload.check(out)
        checks.append({"digest": workload.digest(out), "notes": notes,
                       "gates": [vars(g) for g in gates]})
    result.update(walls=walls, checks=checks, env=_environment(obliqueshell))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

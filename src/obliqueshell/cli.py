"""Command-line interface.

Each ``cmd_*`` reads its own flags, calls the library and returns the text
of every file it writes, by path; it opens no file.  ``main`` is the one
writer.  Before anything is computed it checks THREADS and every path the
command writes: ``--out``, the files written beside it, and ``--manifest``.
Each must name a file, not a directory, in an existing, writable
directory, and the manifest must not be one of the output files.  It then
loads the curve and runs the command, and only once the command has
succeeded does it write the command's files and last the manifest, which
hashes the texts just written.
A usage error or a numerical failure leaves no output file behind.

Exit codes: 0 success, 1 numerical failure, 2 usage error.  The THREADS
environment variable caps the kernel-sum pool and the BLAS/OpenMP worker
counts, so it is checked and applied before numpy is imported; a THREADS
that is not a positive integer is a usage error.  The pool size never
changes results.  The command runs in one call scope (``bie._call``): the
blocks its library calls share are built once, and OpenBLAS runs on one
thread, so no output depends on the BLAS thread count either.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import _threads
from .errors import (ConfigurationError, DomainError, NumericalInstabilityError,
                     ObliqueShellError, ParameterError)


def _apply_thread_cap() -> None:
    if _threads() is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, os.environ["THREADS"])


#: suffixes of the files a command writes beside --out, by command
_BESIDE_OUT = {"nonrel-limit": (".slopes.json",)}


def _output_paths(args) -> list[tuple[str, str]]:
    """(flag, path) of every file the command writes, the manifest last."""
    paths = []
    if getattr(args, "out", None) is not None:
        paths += [("out", args.out + suffix)
                  for suffix in ("",) + _BESIDE_OUT.get(args.command, ())]
    if getattr(args, "manifest", None) is not None:
        paths.append(("manifest", args.manifest))
    return paths


def _check_output_paths(args) -> None:
    paths = _output_paths(args)
    if len({os.path.realpath(path) for _, path in paths}) < len(paths):
        raise ParameterError(f"--manifest {args.manifest!r} names a file the command "
                             "writes as its output")
    for flag, path in paths:
        folder = os.path.dirname(path) or "."
        if (os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK))
                or os.path.exists(path) and not os.access(path, os.W_OK)):
            named = f"--{flag} {path!r}" if path == getattr(args, flag) \
                else f"--{flag} writes {path!r}, which"
            raise ParameterError(f"{named} must be a file in an existing, "
                                 "writable directory")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_curve(spec: str):
    from .geometry import curve_from_config, make_curve
    builtins = {"circle", "ellipse", "kite"}
    if spec in builtins:
        return make_curve(spec)
    if os.path.exists(spec):
        with open(spec) as fh:
            return curve_from_config(json.load(fh))
    stripped = spec.strip()
    if stripped.startswith("{"):
        return curve_from_config(stripped)
    raise ParameterError(
        f"--curve must be one of {sorted(builtins)}, a JSON file, or inline JSON; "
        f"got {spec!r}"
    )


def _parse_branches(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad --n branch spec {text!r}") from exc


def _lines(rows) -> str:
    return "".join(row + "\n" for row in rows)


# ---------------------------------------------------------------------------
# commands: each returns {path: text} for main to write


def cmd_dispersion(args, curve) -> dict[str, str]:
    from . import spectral
    if not (args.lambda_min < 0 and args.lambda_max < 0):
        raise ParameterError("lambda grid must be negative")
    if args.lambda_steps < 1:
        raise ParameterError(f"--lambda-steps must be >= 1, got {args.lambda_steps}")
    branches = _parse_branches(args.n)
    if not branches:
        raise ParameterError(f"--n {args.n!r} names no branch")
    import numpy as np
    lams = np.linspace(args.lambda_min, args.lambda_max, args.lambda_steps)
    return {args.out: _lines(spectral.dispersion_csv_rows(curve, branches, lams, N=args.N))}


def cmd_spectrum(args, curve) -> dict[str, str]:
    from . import spectral
    res = spectral.enumerate_spectrum(curve, args.alpha, args.count,
                                      N=args.N, tol=args.tol)
    return {args.out: res.to_json() + "\n"}


def cmd_eigenfunction(args, curve) -> dict[str, str]:
    from . import bie, spectral
    lam_n, _, _ = spectral.find_eigenvalue(curve, args.alpha, args.branch,
                                           tol=args.tol, N=args.N)
    vol = bie.make_volume_grid(3.0 * curve.diameter, args.box_n)
    field = spectral.eigenfunction(curve, args.alpha, lam_n, args.branch, vol,
                                   N=args.N, tol=args.tol)
    args.lambda_n = lam_n  # recorded among the manifest's parameters
    return {args.out: _lines(["x,y,re,im"] + [
        f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(v.real)},{_fmt(v.imag)}"
        for p, v in zip(field.points, field.values)])}


def cmd_delta_compare(args, curve) -> dict[str, str]:
    from . import spectral
    # the oblique enumeration first: it rejects an alpha whose root bracket
    # seed overflows before anything is assembled
    oblique = spectral.enumerate_spectrum(curve, args.alpha, args.count,
                                          N=args.N, tol=args.tol)
    delta = spectral.delta_spectrum(curve, args.alpha, args.count,
                                    N=args.N, tol=args.tol)
    report = {
        "alpha": args.alpha,
        "curve": curve.name,
        "delta": delta.to_dict(),
        "oblique": oblique.to_dict(),
    }
    if delta.eigenvalues:
        E1 = float(min(delta.lambdas()))
        report["delta_E1"] = E1
        report["delta_E1_over_minus_alpha2_over_4"] = E1 / (-args.alpha ** 2 / 4)
    if oblique.eigenvalues:
        lam1 = float(max(oblique.lambdas()))
        report["oblique_lambda1"] = lam1
        report["oblique_lambda1_alpha2_over_minus4"] = lam1 * args.alpha ** 2 / -4
    return {args.out: json.dumps(report, indent=2) + "\n"}


def cmd_nonrel_limit(args, curve) -> dict[str, str]:
    from . import dirac
    try:
        lam = complex(args.lam)
    except ValueError as exc:
        raise ParameterError(f"bad --lam {args.lam!r}") from exc
    try:
        c_values = [float(c) for c in args.c_list.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad --c-list {args.c_list!r}") from exc
    res = dirac.nonrel_limit_study(curve, lam, c_values, N=args.N)
    slopes, = _BESIDE_OUT["nonrel-limit"]
    return {args.out: _lines(res.csv_rows()), args.out + slopes: res.to_json() + "\n"}


def cmd_oracle_check(args, curve) -> dict[str, str]:
    import numpy as np
    from . import bie, spectral
    from .geometry import grid as make_grid, make_curve
    from .kernels import SpectralParameter
    circle = make_curve("circle")
    if not (np.array_equal(curve.x_coeffs, circle.x_coeffs)
            and np.array_equal(curve.y_coeffs, circle.y_coeffs)):
        raise ParameterError("oracle-check requires the unit circle as --curve")
    op = bie.assemble_S(make_grid(curve, args.N), SpectralParameter.make(args.lam))
    ev = op.eigenvalues_desc(10)
    oracle = []
    m = 0
    while len(oracle) < 10:
        mu = spectral.circle_oracle_mu(m, 1.0, args.lam)
        oracle.extend([mu] * (1 if m == 0 else 2))
        m += 1
    oracle = np.sort(oracle)[::-1][:10]
    mismatch = float(np.max(np.abs(ev - oracle) / np.abs(oracle)))
    print(f"max relative eigenvalue mismatch: {_fmt(mismatch)}")
    if mismatch > 1e-8:
        raise NumericalInstabilityError("oracle check FAILED")
    return {}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="obliqueshell",
        description="Spectra and resolvents of two-dimensional Schrodinger "
                    "operators with oblique transmission conditions on a "
                    "closed curve.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tol=False, out=True):
        sp.add_argument("--curve", default="circle",
                        help="circle | ellipse | kite | JSON file | inline JSON")
        sp.add_argument("--N", type=int, default=256, help="boundary nodes")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-9,
                            help="relative root tolerance")
        if out:
            sp.add_argument("--out", required=True, help="output path")
            sp.add_argument("--manifest", default=None,
                            help="write a reproducibility manifest here")

    d = sub.add_parser("dispersion", help="sweep lambda mu_n(S(lambda))")
    common(d)
    d.add_argument("--n", default="1", help="branches, e.g. '1..3' or '1,2,5'")
    d.add_argument("--lambda-min", type=float, required=True)
    d.add_argument("--lambda-max", type=float, required=True)
    d.add_argument("--lambda-steps", type=int, default=20)
    d.set_defaults(func=cmd_dispersion)

    s = sub.add_parser("spectrum", help="enumerate the discrete spectrum")
    common(s, tol=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--count", type=int, default=10)
    s.set_defaults(func=cmd_spectrum)

    e = sub.add_parser("eigenfunction", help="sample an eigenfunction field")
    common(e, tol=True)
    e.add_argument("--alpha", type=float, required=True)
    e.add_argument("--branch", type=int, default=1, help="dispersion branch n")
    e.add_argument("--box-n", type=int, default=64,
                   help="volume sample grid resolution")
    e.set_defaults(func=cmd_eigenfunction)

    dc = sub.add_parser("delta-compare",
                        help="delta-interaction vs oblique spectrum report")
    common(dc, tol=True)
    dc.add_argument("--alpha", type=float, required=True)
    dc.add_argument("--count", type=int, default=3)
    dc.set_defaults(func=cmd_delta_compare)

    nl = sub.add_parser("nonrel-limit", help="relativistic gap study over c")
    common(nl)
    nl.add_argument("--lam", default="1j", help="non-real lambda, e.g. '1+2j'")
    nl.add_argument("--c-list", default="8,16,32,64,128")
    nl.set_defaults(func=cmd_nonrel_limit)

    oc = sub.add_parser("oracle-check",
                        help="compare circle eigenvalues against closed form")
    common(oc, out=False)
    oc.add_argument("--lam", type=float, default=-1.0)
    oc.set_defaults(func=cmd_oracle_check)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_cap()
        _check_output_paths(args)
        curve = _load_curve(args.curve)
        from . import bie
        t0 = time.time()
        with bie._call():
            files = args.func(args, curve)
    except (ParameterError, ConfigurationError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ObliqueShellError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    digests = {}
    for path, text in files.items():
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        digests[path] = hashlib.sha256(data).hexdigest()
    if getattr(args, "manifest", None) is not None:
        from . import __version__
        manifest = {
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items() if k != "func"},
            "version": __version__,
            "wall_time_s": time.time() - t0,
            "outputs": digests,
        }
        with open(args.manifest, "w") as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

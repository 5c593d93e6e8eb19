"""Command-line interface.

Exit codes: 0 success, 1 numerical failure, 2 usage error.  The THREADS
environment variable caps the kernel-sum pool and the BLAS/OpenMP worker
counts, so it is applied before numpy is imported.  The pool size never
changes results.  Pool tasks make no BLAS call, so the kernel sums' bits do
not depend on the BLAS thread count either; that count can change the last
bits of LAPACK results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time


def _apply_thread_cap() -> None:
    threads = os.environ.get("THREADS")
    if not threads:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, threads)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(path: str | None, command: str, params: dict,
                    outputs: list[str], t0: float) -> None:
    if path is None:
        return
    from . import __version__
    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "wall_time_s": time.time() - t0,
        "outputs": {p: _sha256(p) for p in outputs if os.path.exists(p)},
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _load_curve(spec: str):
    from .errors import ParameterError
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
    from .errors import ParameterError
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad --n branch spec {text!r}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_dispersion(args) -> int:
    from . import spectral
    from .errors import ParameterError
    curve = _load_curve(args.curve)
    if not (args.lambda_min < 0 and args.lambda_max < 0):
        raise ParameterError("lambda grid must be negative")
    if args.lambda_steps < 1:
        raise ParameterError(f"--lambda-steps must be >= 1, got {args.lambda_steps}")
    branches = _parse_branches(args.n)
    if not branches:
        raise ParameterError(f"--n {args.n!r} names no branch")
    import numpy as np
    lams = np.linspace(args.lambda_min, args.lambda_max, args.lambda_steps)
    t0 = time.time()
    # computed in full first: a failing sweep leaves no partial CSV behind
    rows = spectral.dispersion_csv_rows(curve, branches, lams, N=args.N)
    with open(args.out, "w") as fh:
        for row in rows:
            fh.write(row + "\n")
    _write_manifest(args.manifest, "dispersion", _params(args), [args.out], t0)
    return 0


def cmd_spectrum(args) -> int:
    from . import spectral
    curve = _load_curve(args.curve)
    t0 = time.time()
    res = spectral.enumerate_spectrum(curve, args.alpha, args.count,
                                      N=args.N, tol=args.tol)
    with open(args.out, "w") as fh:
        fh.write(res.to_json() + "\n")
    _write_manifest(args.manifest, "spectrum", _params(args), [args.out], t0)
    return 0


def cmd_eigenfunction(args) -> int:
    from . import bie, spectral
    curve = _load_curve(args.curve)
    t0 = time.time()
    lam_n, _ = spectral.find_eigenvalue(curve, args.alpha, args.branch,
                                        tol=args.tol, N=args.N)
    vol = bie.make_volume_grid(3.0 * curve.diameter, args.box_n)
    field = spectral.eigenfunction(curve, args.alpha, lam_n, args.branch, vol,
                                   N=args.N, tol=args.tol)
    with open(args.out, "w") as fh:
        fh.write("x,y,re,im\n")
        for p, v in zip(field.points, field.values):
            fh.write(f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(v.real)},{_fmt(v.imag)}\n")
    _write_manifest(args.manifest, "eigenfunction",
                    {**_params(args), "lambda_n": lam_n}, [args.out], t0)
    return 0


def cmd_delta_compare(args) -> int:
    from . import spectral
    curve = _load_curve(args.curve)
    t0 = time.time()
    delta = spectral.delta_spectrum(curve, args.alpha, args.count,
                                    N=args.N, tol=args.tol)
    oblique = spectral.enumerate_spectrum(curve, args.alpha, args.count,
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
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest(args.manifest, "delta-compare", _params(args), [args.out], t0)
    return 0


def cmd_nonrel_limit(args) -> int:
    from . import dirac
    from .errors import ParameterError
    curve = _load_curve(args.curve)
    try:
        lam = complex(args.lam)
    except ValueError as exc:
        raise ParameterError(f"bad --lam {args.lam!r}") from exc
    try:
        c_values = [float(c) for c in args.c_list.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad --c-list {args.c_list!r}") from exc
    t0 = time.time()
    res = dirac.nonrel_limit_study(curve, lam, c_values, N=args.N)
    with open(args.out, "w") as fh:
        for row in res.csv_rows():
            fh.write(row + "\n")
    slopes_path = args.out + ".slopes.json"
    with open(slopes_path, "w") as fh:
        fh.write(res.to_json() + "\n")
    _write_manifest(args.manifest, "nonrel-limit", _params(args),
                    [args.out, slopes_path], t0)
    return 0


def cmd_oracle_check(args) -> int:
    import numpy as np
    from . import bie, spectral
    from .errors import ParameterError
    from .geometry import grid as make_grid, make_curve
    from .kernels import SpectralParameter
    curve = _load_curve(args.curve)
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
        print("oracle check FAILED", file=sys.stderr)
        return 1
    return 0


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


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
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import (
        ConfigurationError,
        DomainError,
        ObliqueShellError,
        ParameterError,
    )
    try:
        return args.func(args)
    except (ParameterError, ConfigurationError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ObliqueShellError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

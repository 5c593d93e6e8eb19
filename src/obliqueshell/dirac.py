"""Relativistic shell operators and the non-relativistic limit study.

The Dirac shell operator with electrostatic strength -alpha c^2/2 and Lorentz
scalar strength alpha c^2/2, evaluated at the shifted parameter lambda + c^2/2,
approaches the oblique transmission operator as c grows.  This module measures
the four operator gaps controlling that limit and the convergence of the
resolvent correction term, all on quadrature-weighted discretizations:

(a) free relativistic resolvent vs scalar free resolvent in the first spinor
    component (volume-to-volume, Schur bound);
(b) c Phi_z M3 vs Psi_lambda M2 (boundary-to-volume, largest singular value);
(c) c M3 Phi*_zbar vs M2^T Psi*_lambdabar (volume-to-boundary), the adjoint
    maps at zbar and lambdabar as they enter the resolvent formula.  This
    operator is the adjoint of gap (b)'s at the conjugate parameters, so
    gap (c) is gap (b) evaluated at (zbar, lambdabar);
(d) c^2 M3 C M3 vs lambda S(lambda) M3 (boundary-to-boundary).

Gaps (a)-(c) decay like 1/c; the kernel bound behind (d) is 1/c^2.  M3
projects onto the second spinor component, so every boundary operator acts
on scalar densities of that component only and is stored as its live block.

Every K_0/K_1 array is evaluated once per (kappa, geometry).  The blocks that
do not depend on c (probe-to-node offsets and radii, L(lambda), L(lambdabar),
S(lambda), U on the gap (a) lattice) are built once per study.  The (zbar,
lambdabar) side of gap (c) and of the correction conjugates the Bessel arrays
of the (z, lambda) side: kappa(zbar) = conj kappa(z), kappa(lambdabar) =
conj kappa(lambda) and K_j(conj w) = conj K_j(w) hold exactly in floating
point.  The correction difference has rank <= 2N, so its norm is taken from
the triangular factors of its two low-rank factors, not from a 2M x 2M SVD.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bie, specfun
from .bie import VolumeGrid
from .errors import ConfigurationError, DomainError, ParameterError, PoleProximityError
from .geometry import Curve, QuadratureGrid, grid as make_grid
# kernel_L is unused here but stays a module attribute: bench/tracer.py wraps
# dirac.kernel_L alongside kernel_U and kernel_G.
from .kernels import (  # noqa: F401
    DiracParameter,
    SpectralParameter,
    _G_body,
    _L_body,
    _radii,
    branch_sqrt,
    kernel_G,
    kernel_L,
    kernel_U,
)


def _require_nonreal(lam: complex) -> complex:
    lam = complex(lam)
    if lam.imag == 0:
        raise DomainError(f"limit study needs lambda off the real axis, got {lam}")
    return lam


def _probe_volume(curve: Curve, n: int, halfwidth_factor: float = 3.0) -> VolumeGrid:
    return bie.make_volume_grid(halfwidth_factor * curve.diameter, n)


# ---------------------------------------------------------------------------
# the four gap estimates


def _spectral_norm_2x2(K: np.ndarray) -> np.ndarray:
    """Largest singular value of a (..., 2, 2) stack, closed form."""
    t = (np.abs(K) ** 2).sum(axis=(-2, -1))
    d = np.abs(K[..., 0, 0] * K[..., 1, 1] - K[..., 0, 1] * K[..., 1, 0]) ** 2
    disc = np.sqrt(np.maximum(t * t - 4.0 * d, 0.0))
    return np.sqrt(0.5 * (t + disc))


def _a0_lattice(sp: SpectralParameter, vol: VolumeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Probe-to-node differences of gap (a) and U(lambda) on them.

    Probes sit at cell corners (nodes shifted by h/2), which keeps
    |x - y| >= h/sqrt(2).  All probe-to-node differences lie on one
    (2nx-1) x (2ny-1) lattice, so every kernel is evaluated once there.
    """
    nx, ny = vol.shape
    dx = vol.h * np.arange(-(nx - 1), nx) + vol.h / 2
    dy = vol.h * np.arange(-(ny - 1), ny) + vol.h / 2
    DX, DY = np.meshgrid(dx, dy, indexing="ij")
    diff = np.stack([DX, DY], axis=-1)
    return diff, kernel_U(sp, diff)


def _gap_a0(dp: DiracParameter, vol: VolumeGrid, lattice) -> float:
    """Schur bound sup_x sum_y |G(x-y) - U(x-y) M1| h^2 over cell corners x.

    ``lattice`` is ``_a0_lattice(sp, vol)``; the per-probe sums are
    sliding-window box sums over the norm field.
    """
    nx, ny = vol.shape
    diff, U = lattice
    K = kernel_G(dp, diff)
    K[..., 0, 0] -= U
    norms = _spectral_norm_2x2(K)
    # integral image: probe (a, b) sums the window rows [a, a+nx), cols [b, b+ny)
    S = np.zeros((2 * nx, 2 * ny))
    S[1:, 1:] = norms.cumsum(axis=0).cumsum(axis=1)
    box = (S[nx:, ny:] - S[:-nx, ny:] - S[nx:, :-ny] + S[:-nx, :-ny])
    return float(box.max() * vol.weight)


@dataclass(frozen=True)
class _Probes:
    """Probe-to-node offsets x (M, N, 2), their radii r and the Psi M2
    kernels L(lambda; x), L(lambdabar; x), all independent of c."""

    x: np.ndarray
    r: np.ndarray
    L: np.ndarray
    L_bar: np.ndarray


def _probes(sp: SpectralParameter, g: QuadratureGrid, points: np.ndarray) -> _Probes:
    """One K_1 array serves both sides: kappa(lambdabar) = conj kappa(lambda)
    and K_1(conj w) = conj K_1(w)."""
    x = points[:, None, :] - g.points[None, :, :]
    r = _radii(x)
    k1 = specfun.bessel_k_array(1, sp.kappa * r)
    return _Probes(x, r, _L_body(sp, x, r, k1),
                   _L_body(sp.conjugate, x, r, np.conj(k1)))


def _phi_m3(dp: DiracParameter, pr: _Probes, k0: np.ndarray,
            k1: np.ndarray) -> np.ndarray:
    """(2M, N) kernel matrix of Phi_z M3 from boundary nodes to probes, from
    k_j = K_j(kappa(z) r).

    M3 keeps the second column of the Dirac kernel only; rows are
    component-major (first spinor component, then second).  No weights.
    """
    G = _G_body(dp, pr.x, pr.r, k0, k1, columns=slice(1, 2))
    return np.concatenate([G[..., 0, 0], G[..., 1, 0]])


def _phi_m3_sides(dp: DiracParameter, pr: _Probes):
    """Yield Phi_z M3, then Phi_zbar M3, from one K_0/K_1 evaluation at
    kappa(z): kappa(zbar) = conj kappa(z) and K_j(conj w) = conj K_j(w)."""
    arg = dp.kappa * pr.r
    k0 = specfun.bessel_k_array(0, arg)
    k1 = specfun.bessel_k_array(1, arg)
    yield _phi_m3(dp, pr, k0, k1)
    yield _phi_m3(DiracParameter.make(np.conj(dp.lam), dp.c), pr,
                  np.conj(k0), np.conj(k1))


def _gap_phi(c: float, phi: np.ndarray, L: np.ndarray, g: QuadratureGrid,
             vol: VolumeGrid) -> float:
    """Largest singular value of c Phi_z M3 - Psi_lambda M2 (boundary to volume),
    phi = Phi_z M3 and L the kernel of Psi_lambda M2, both quadrature weights.

    Psi M2 takes the M3 density to the first spinor component.
    """
    A = c * phi
    A[:len(vol.points)] -= L
    A *= np.sqrt(g.weight * g.jacobians)[None, :]
    A *= np.sqrt(vol.weight)
    return float(np.linalg.svd(A, compute_uv=False)[0])


#: Gap (c), c M3 Phi*_zbar - M2^T Psi*_lambdabar (volume to boundary), is the
#: adjoint of gap (b)'s operator at (zbar, lambdabar): the same computation
#: on Phi_zbar M3 and L(lambdabar), kept under its own name for tracing.
_gap_phi_star = _gap_phi


def _gap_c(dp: DiracParameter, lam_S: np.ndarray, g: QuadratureGrid) -> float:
    """Norm of c^2 M3 C_z M3 - lambda S(lambda) M3 on the boundary; ``lam_S``
    is lambda times the entries of S(lambda)."""
    D = dp.c ** 2 * bie.assemble_M3CM3(g, dp).entries - lam_S
    return bie.BoundaryOperatorMatrix(D, g).operator_norm()


def _gap_rows(curve: Curve, lam: complex, c_values, N: int,
              volume_box: VolumeGrid | None, check_box: bool):
    """Yield the gap row (a0, phi, phi_star, c) for each speed in c_values.

    The blocks that do not depend on c (probe offsets, L at lambda and
    lambdabar, S(lambda), U on the gap (a) lattice) are built once; per c,
    K_0/K_1 are evaluated once at kappa(z) and conjugated for the (zbar,
    lambdabar) side.  ``check_box`` tests the box at the first speed.
    """
    lam = _require_nonreal(lam)
    sp = SpectralParameter.make(lam)
    dps = [DiracParameter.shifted(lam, c) for c in c_values]
    g = make_grid(curve, N)
    vol = volume_box if volume_box is not None else _probe_volume(curve, 48)
    bie.check_volume_clear_of_curve(vol, g)
    lattice = _a0_lattice(sp, vol)
    pr = _probes(sp, g, vol.points)
    lam_S = sp.lam * bie.assemble_S(g, sp).entries

    for i, dp in enumerate(dps):
        a0 = _gap_a0(dp, vol, lattice)
        if check_box and i == 0:
            hw = float(vol.xs[-1] - vol.xs[0] + vol.h)
            big = bie.make_volume_grid(hw, len(vol.xs))
            a0_big = _gap_a0(dp, big, _a0_lattice(sp, big))
            if abs(a0_big - a0) > 0.10 * abs(a0):
                raise ConfigurationError(
                    f"volume box too small: doubling it moves gap (a) from "
                    f"{a0:.4g} to {a0_big:.4g} (> 10%)"
                )
        sides = _phi_m3_sides(dp, pr)
        yield (
            a0,
            _gap_phi(dp.c, next(sides), pr.L, g, vol),
            _gap_phi_star(dp.c, next(sides), pr.L_bar, g, vol),
            _gap_c(dp, lam_S, g),
        )


def limit_gaps(curve: Curve, lam: complex, c: float, N: int = 128,
               volume_box: VolumeGrid | None = None,
               check_box: bool = False) -> tuple[float, float, float, float]:
    """The four discretized gap values (a0, phi, phi_star, c) at speed c."""
    return next(_gap_rows(curve, lam, [c], N, volume_box, check_box))


@dataclass(frozen=True)
class LimitStudyResult:
    c_values: tuple[float, ...]
    gap_a0: tuple[float, ...]
    gap_phi: tuple[float, ...]
    gap_phistar: tuple[float, ...]
    gap_c: tuple[float, ...]
    slopes: dict

    def gaps(self) -> dict:
        return {"a0": self.gap_a0, "phi": self.gap_phi,
                "phistar": self.gap_phistar, "c": self.gap_c}

    def csv_rows(self):
        yield "c,gap_a0,gap_phi,gap_phistar,gap_c"
        for i, c in enumerate(self.c_values):
            yield (f"{c:.17g},{self.gap_a0[i]:.17g},{self.gap_phi[i]:.17g},"
                   f"{self.gap_phistar[i]:.17g},{self.gap_c[i]:.17g}")

    def to_json(self, indent: int = 2) -> str:
        return json.dumps({"c_values": list(self.c_values),
                           "slopes": self.slopes}, indent=indent)


def _speeds(c_values) -> list[float]:
    """The sorted c-list of a slope fit, which needs two distinct speeds."""
    c_values = sorted(float(c) for c in c_values)
    if len(set(c_values)) < 2:
        raise ParameterError(
            f"need at least two distinct c values to fit slopes, got {c_values}")
    return c_values


def _fit_slope(c_values, gaps) -> float:
    return float(np.polyfit(np.log(c_values), np.log(gaps), 1)[0])


def nonrel_limit_study(curve: Curve, lam: complex, c_values, N: int = 128,
                       volume_box: VolumeGrid | None = None,
                       check_box: bool = False) -> LimitStudyResult:
    """Gap sequences over a c-list with fitted log-log slopes."""
    c_values = _speeds(c_values)
    rows = list(_gap_rows(curve, lam, c_values, N, volume_box, check_box))
    cols = list(zip(*rows))
    names = ("a0", "phi", "phistar", "c")
    slopes = {n: _fit_slope(c_values, col) for n, col in zip(names, cols)}
    return LimitStudyResult(tuple(c_values), *(tuple(col) for col in cols), slopes)


# ---------------------------------------------------------------------------
# resolvent correction convergence


@dataclass(frozen=True)
class DiracResolventBlocks:
    c: float
    alpha: float
    lam: complex
    dirac_kernel: np.ndarray      # (2M, 2M) correction kernel between probes
    schrod_kernel: np.ndarray     # (2M, 2M) reference, supported in the M1 block
    #: ||sqrt(w) (dirac_kernel - schrod_kernel) sqrt(w)||_2 with w the probe
    #: weight, taken from the rank <= 2N factors of the difference
    difference_norm: float


def dirac_correction(curve: Curve, alpha: float, lam: complex, c: float,
                     N: int = 128, probe_n: int = 24,
                     probe_halfwidth_factor: float = 1.5) -> DiracResolventBlocks:
    """Correction kernels of the shifted Dirac resolvent and its limit.

    Dirac side: c Phi_z M3 (I - alpha c^2 M3 C_z M3)^-1 alpha c M3 Phi*_zbar,
    z = lambda + c^2/2.  Limit side: Psi M2 (I - alpha lambda S M3)^-1
    alpha M2^T Psi*_lambdabar, supported in the first spinor component.
    The (zbar, lambdabar) factors conjugate the Bessel arrays of the (z,
    lambda) ones.  The difference is [c Phi | -Psi] [X; Y] with 2N inner
    columns, so its norm is that of R1 R2^H, where R1 and R2 are the QR
    triangles of the left factor and of the adjoint of the right one.
    """
    lam = _require_nonreal(lam)
    g = make_grid(curve, N)
    vol = _probe_volume(curve, probe_n, probe_halfwidth_factor)
    bie.check_volume_clear_of_curve(vol, g)
    M = len(vol.points)
    Nn = g.N

    sp = SpectralParameter.make(lam)
    dp = DiracParameter.shifted(lam, c)

    if alpha == 0:
        zero = np.zeros((2 * M, 2 * M), dtype=complex)
        return DiracResolventBlocks(c, alpha, lam, zero, zero.copy(), 0.0)

    # Dirac side: the boundary maps act on M3-component densities, N x N
    w_b = g.weight * g.jacobians
    B = np.eye(Nn) - alpha * c ** 2 * bie.assemble_M3CM3(g, dp).entries
    smin = float(np.linalg.svd(B, compute_uv=False)[-1])
    if smin <= 1e-8:
        raise PoleProximityError(
            f"I - alpha c^2 M3 C M3 nearly singular at c={c} "
            f"(smallest singular value {smin:.3g})"
        )
    pr = _probes(sp, g, vol.points)
    phi_z, phi_zbar = _phi_m3_sides(dp, pr)
    phi = c * (phi_z * w_b)
    phi_star = np.conj(phi_zbar).T * vol.weight
    X = np.linalg.solve(B, alpha * c * phi_star)
    K_dirac = phi @ X

    # Schrodinger reference: Psi M2 and M2^T Psi* live in the M1 block
    S = bie.assemble_S(g, sp).entries
    psi = pr.L * w_b
    psi_star = np.conj(pr.L_bar).T * vol.weight
    Y = np.linalg.solve(np.eye(Nn) - alpha * lam * S, alpha * psi_star)
    K_schrod = np.zeros((2 * M, 2 * M), dtype=complex)
    K_schrod[:M, :M] = psi @ Y

    # K_dirac - K_schrod = [phi | -psi] [X; Y], psi and Y zero-padded
    left = np.zeros((2 * M, 2 * Nn), dtype=complex)
    left[:, :Nn] = phi
    left[:M, Nn:] = -psi
    right = np.zeros((2 * Nn, 2 * M), dtype=complex)
    right[:Nn] = X
    right[Nn:, :M] = Y
    R1 = np.linalg.qr(left, mode="r")
    R2 = np.linalg.qr(right.conj().T, mode="r")
    diff_norm = vol.weight * float(np.linalg.norm(R1 @ R2.conj().T, 2))
    return DiracResolventBlocks(c, alpha, lam, K_dirac, K_schrod, diff_norm)


def correction_convergence(curve: Curve, alpha: float, lam: complex, c_values,
                           N: int = 128, probe_n: int = 24) -> tuple[list, float]:
    """Difference norms of dirac_correction over a c-list and the fitted slope."""
    c_values = _speeds(c_values)
    norms = [dirac_correction(curve, alpha, lam, c, N, probe_n).difference_norm
             for c in c_values]
    return norms, _fit_slope(c_values, norms)


# ---------------------------------------------------------------------------
# square-root shift diagnostics


def sqrt_shift_bounds(lam: complex, c: float, samples: int = 201) -> dict:
    """Sampled check of the two-sided root bounds along t in [0, 1].

    Verifies |sqrt(lambda)|/2 <= |sqrt(lambda + t lambda^2/c^2)| <=
    3|sqrt(lambda)|/2 and Im sqrt(lambda + t lambda^2/c^2) >= Im sqrt(lambda)/2.
    If they fail at this c, reports the minimal c (power-of-two search) at
    which they start holding.
    """
    lam = _require_nonreal(lam)
    if c <= 0:
        raise ParameterError("c must be positive")

    def holds(cc: float) -> tuple[bool, float, float, float]:
        t = np.linspace(0.0, 1.0, samples)
        roots = np.array([branch_sqrt(lam + tt * lam * lam / cc ** 2) for tt in t])
        base = branch_sqrt(lam)
        amin, amax = float(np.abs(roots).min()), float(np.abs(roots).max())
        imin = float(roots.imag.min())
        ok = (amin >= abs(base) / 2 and amax <= 1.5 * abs(base)
              and imin >= base.imag / 2)
        return ok, amin, amax, imin

    ok, amin, amax, imin = holds(c)
    out = {
        "lambda": lam, "c": c, "bounds_hold": ok,
        "min_abs": amin, "max_abs": amax, "min_im": imin,
        "abs_sqrt_lambda": abs(branch_sqrt(lam)),
        "im_sqrt_lambda": branch_sqrt(lam).imag,
    }
    if not ok:
        cc = c
        for _ in range(60):
            cc *= 2
            if holds(cc)[0]:
                out["minimal_c"] = cc
                break
    return out

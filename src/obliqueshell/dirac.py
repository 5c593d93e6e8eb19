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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bie
from .bie import VolumeGrid
from .errors import ConfigurationError, DomainError, ParameterError, PoleProximityError
from .geometry import Curve, QuadratureGrid, grid as make_grid
from .kernels import (
    DiracParameter,
    SpectralParameter,
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


def _gap_a0(dp: DiracParameter, sp: SpectralParameter, vol: VolumeGrid) -> float:
    """Schur bound sup_x sum_y |G(x-y) - U(x-y) M1| h^2 over cell corners x.

    Probes sit at cell corners (nodes shifted by h/2), which keeps
    |x - y| >= h/sqrt(2).  All probe-to-node differences lie on one
    (2nx-1) x (2ny-1) lattice, so the kernel is evaluated once there and the
    per-probe sums are sliding-window box sums over the norm field.
    """
    nx, ny = vol.shape
    dx = vol.h * np.arange(-(nx - 1), nx) + vol.h / 2
    dy = vol.h * np.arange(-(ny - 1), ny) + vol.h / 2
    DX, DY = np.meshgrid(dx, dy, indexing="ij")
    diff = np.stack([DX, DY], axis=-1)
    K = kernel_G(dp, diff)
    K[..., 0, 0] -= kernel_U(sp, diff)
    norms = _spectral_norm_2x2(K)
    # integral image: probe (a, b) sums the window rows [a, a+nx), cols [b, b+ny)
    S = np.zeros((2 * nx, 2 * ny))
    S[1:, 1:] = norms.cumsum(axis=0).cumsum(axis=1)
    box = (S[nx:, ny:] - S[:-nx, ny:] - S[nx:, :-ny] + S[:-nx, :-ny])
    return float(box.max() * vol.weight)


def _phi_m3(dp: DiracParameter, g: QuadratureGrid, points: np.ndarray) -> np.ndarray:
    """(2M, N) kernel matrix of Phi_z M3 from boundary nodes to points.

    M3 keeps the second column of the Dirac kernel only; rows are
    component-major (first spinor component, then second).  No weights.
    """
    G = kernel_G(dp, points[:, None, :] - g.points[None, :, :])[..., :, 1]
    return np.concatenate([G[..., 0], G[..., 1]])


def _gap_phi(dp: DiracParameter, sp: SpectralParameter, g: QuadratureGrid,
             vol: VolumeGrid) -> float:
    """Largest singular value of c Phi_z M3 - Psi_lambda M2 (boundary to volume).

    Psi M2 takes the M3 density to the first spinor component.
    """
    A = dp.c * _phi_m3(dp, g, vol.points)
    A[:len(vol.points)] -= kernel_L(sp, vol.points[:, None, :] - g.points[None, :, :])
    A *= np.sqrt(g.weight * g.jacobians)[None, :]
    A *= np.sqrt(vol.weight)
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _gap_phi_star(dp: DiracParameter, sp: SpectralParameter, g: QuadratureGrid,
                  vol: VolumeGrid) -> float:
    """Largest singular value of c M3 Phi*_zbar - M2^T Psi*_lambdabar (volume to
    boundary): the adjoint of gap (b)'s operator at (zbar, lambdabar)."""
    return _gap_phi(DiracParameter.make(np.conj(dp.lam), dp.c), sp.conjugate, g, vol)


def _gap_c(dp: DiracParameter, sp: SpectralParameter, g: QuadratureGrid) -> float:
    """Norm of c^2 M3 C_z M3 - lambda S(lambda) M3 on the boundary."""
    D = dp.c ** 2 * bie.assemble_M3CM3(g, dp).entries \
        - sp.lam * bie.assemble_S(g, sp).entries
    return bie.BoundaryOperatorMatrix(D, g).operator_norm()


def limit_gaps(curve: Curve, lam: complex, c: float, N: int = 128,
               volume_box: VolumeGrid | None = None,
               check_box: bool = False) -> tuple[float, float, float, float]:
    """The four discretized gap values (a0, phi, phi_star, c) at speed c."""
    lam = _require_nonreal(lam)
    sp = SpectralParameter.make(lam)
    dp = DiracParameter.shifted(lam, c)
    g = make_grid(curve, N)
    vol = volume_box if volume_box is not None else _probe_volume(curve, 48)
    bie.check_volume_clear_of_curve(vol, g)

    a0 = _gap_a0(dp, sp, vol)
    if check_box:
        hw = float(vol.xs[-1] - vol.xs[0] + vol.h)
        big = bie.make_volume_grid(hw, len(vol.xs))
        a0_big = _gap_a0(dp, sp, big)
        if abs(a0_big - a0) > 0.10 * abs(a0):
            raise ConfigurationError(
                f"volume box too small: doubling it moves gap (a) from "
                f"{a0:.4g} to {a0_big:.4g} (> 10%)"
            )
    return (
        a0,
        _gap_phi(dp, sp, g, vol),
        _gap_phi_star(dp, sp, g, vol),
        _gap_c(dp, sp, g),
    )


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


def _fit_slope(c_values, gaps) -> float:
    return float(np.polyfit(np.log(c_values), np.log(gaps), 1)[0])


def nonrel_limit_study(curve: Curve, lam: complex, c_values, N: int = 128,
                       volume_box: VolumeGrid | None = None,
                       check_box: bool = False) -> LimitStudyResult:
    """Gap sequences over a c-list with fitted log-log slopes."""
    c_values = sorted(float(c) for c in c_values)
    if len(c_values) < 2:
        raise ParameterError("need at least two c values to fit slopes")
    rows = [limit_gaps(curve, lam, c, N, volume_box,
                       check_box=(check_box and c == c_values[0]))
            for c in c_values]
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
    difference_norm: float


def dirac_correction(curve: Curve, alpha: float, lam: complex, c: float,
                     N: int = 128, probe_n: int = 24,
                     probe_halfwidth_factor: float = 1.5) -> DiracResolventBlocks:
    """Correction kernels of the shifted Dirac resolvent and its limit.

    Dirac side: c Phi_z M3 (I - alpha c^2 M3 C_z M3)^-1 alpha c M3 Phi*_zbar,
    z = lambda + c^2/2.  Limit side: Psi M2 (I - alpha lambda S M3)^-1
    alpha M2^T Psi*_lambdabar, supported in the first spinor component.
    """
    lam = _require_nonreal(lam)
    g = make_grid(curve, N)
    vol = _probe_volume(curve, probe_n, probe_halfwidth_factor)
    bie.check_volume_clear_of_curve(vol, g)
    M = len(vol.points)
    Nn = g.N

    sp = SpectralParameter.make(lam)
    dp = DiracParameter.shifted(lam, c)
    dp_bar = DiracParameter.shifted(np.conj(lam), c)

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
    phi = _phi_m3(dp, g, vol.points) * w_b
    phi_star = np.conj(_phi_m3(dp_bar, g, vol.points)).T * vol.weight
    K_dirac = (c * phi) @ np.linalg.solve(B, alpha * c * phi_star)

    # Schrodinger reference: Psi M2 and M2^T Psi* live in the M1 block
    S = bie.assemble_S(g, sp).entries
    diff_b = vol.points[:, None, :] - g.points[None, :, :]
    psi = kernel_L(sp, diff_b) * w_b
    psi_star = np.conj(kernel_L(sp.conjugate, diff_b)).T * vol.weight
    K_schrod = np.zeros((2 * M, 2 * M), dtype=complex)
    K_schrod[:M, :M] = psi @ np.linalg.solve(np.eye(Nn) - alpha * lam * S,
                                             alpha * psi_star)

    w = np.sqrt(vol.weight)
    diff_norm = float(np.linalg.norm(w * (K_dirac - K_schrod) * w, 2))
    return DiracResolventBlocks(c, alpha, lam, K_dirac, K_schrod, diff_norm)


def correction_convergence(curve: Curve, alpha: float, lam: complex, c_values,
                           N: int = 128, probe_n: int = 24) -> tuple[list, float]:
    """Difference norms of dirac_correction over a c-list and the fitted slope."""
    c_values = sorted(float(c) for c in c_values)
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

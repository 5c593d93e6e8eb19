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
do not depend on c (the grid, its probe-box check, probe-to-node offsets and
radii, K_0/K_1 at w = kappa(lambda) r, L(lambda), L(lambdabar), S(lambda))
come from one helper shared by the gap study and the correction, read-only
and kept in the call scope of ``bie._call``.  Probes at least 2R from the
centroid of the nodes (``bie._graf_plan``, R the nodes' largest distance from
it) take K_0/K_1 from Graf's addition theorem about that centroid, as one
product of K_n at the probes and I_n at the nodes, so such a probe costs two
Bessel evaluations instead of 2N; the others take ``bessel_k_array``.  The
study builds the blocks, and U on the gap (a) lattice, once; gap (a) still
evaluates kernel_G on its lattice at every speed.  ``correction_convergence``
builds the blocks once for its whole c-list, though it calls
``dirac_correction`` per speed, and with them the correction's limit side
(Psi M2 and its solve against I - alpha lambda S), which does not depend on
c either.  Every
speed takes K_0/K_1 at kappa(z) r = mu w from that one set by the
multiplication theorem (DLMF 10.44.2): |1 - mu^2| = |lambda|/c^2, so the
series in (1 - mu^2) w/2 needs a few terms, counted from a bound once per
(speed, probe set).  Where the bound says it does not pay, K_0/K_1 at
kappa(z) r are evaluated directly.  The (zbar, lambdabar) side of
gap (c) and of the correction conjugates the Bessel values of the (z, lambda)
side: kappa(zbar) = conj kappa(z), kappa(lambdabar) = conj kappa(lambda) and
K_j(conj w) = conj K_j(w) hold exactly in floating point.  Phi M3 is built
from the two live entries of the kernel's M3 column, both sides together in
row chunks on the pool, and gaps (b) and (c) take the largest singular value
of their tall weighted blocks from the small Gram matrix.  The correction is
reported as its norm only: the difference has rank <= 2N, so the norm is
taken from the QR triangle of its left low-rank factor times its right
factor, and no 2M x 2M kernel is formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zherk

from . import bie, specfun, spectral
from .bie import VolumeGrid
from .errors import ConfigurationError, DomainError, ParameterError, PoleProximityError
from .geometry import Curve, QuadratureGrid, grid as make_grid
# kernel_L is unused here but stays a module attribute: bench/tracer.py wraps
# dirac.kernel_L alongside kernel_U and kernel_G.
from .kernels import (  # noqa: F401
    DiracParameter,
    SpectralParameter,
    _L_body,
    _radii,
    kernel_G,
    kernel_L,
    kernel_U,
)


def _require_nonreal(lam: complex) -> complex:
    lam = complex(lam)
    if lam.imag == 0:
        raise DomainError(f"limit study needs lambda off the real axis, got {lam}")
    return lam


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
    """Probe-to-node offsets x (M, N, 2), their radii r, k_j = K_j(kappa r)
    at kappa = kappa(lambda) and the Psi M2 kernels L(lambda; x),
    L(lambdabar; x), all independent of c."""

    x: np.ndarray
    r: np.ndarray
    kappa: complex
    k0: np.ndarray
    k1: np.ndarray
    L: np.ndarray
    L_bar: np.ndarray


def _probes(sp: SpectralParameter, g: QuadratureGrid, points: np.ndarray) -> _Probes:
    """Probes at least 2R from the centroid of the nodes (``bie._graf_plan``)
    take K_0 and K_1 from Graf's expansion (``bie._graf_rows``), the others
    from ``bessel_k_array``.  One K_1 array serves both sides:
    kappa(lambdabar) = conj kappa(lambda) and K_1(conj w) = conj K_1(w).  K_0
    and K_1 seed every speed's ``_phi_m3_sides``.  The arrays are read-only:
    every speed reads them."""
    x = points[:, None, :] - g.points[None, :, :]
    r = _radii(x)
    plan = bie._graf_plan(sp.kappa, g.points, points)
    k0, k1 = np.empty(r.shape, dtype=complex), np.empty(r.shape, dtype=complex)
    near = ~bie._far(plan, len(points))
    w = sp.kappa * r[near]

    def fill_near(order: int) -> None:
        (k0, k1)[order][near] = specfun.bessel_k_array(order, w)

    # one order per worker, each inline on it
    specfun._run_chunks(fill_near, [0, 1])
    if plan is not None:
        for rows, k0_rows, k1_rows in bie._graf_rows(sp.kappa, plan, g.points, points):
            xr = x[rows]
            k1_rows *= xr[..., 0] + 1j * xr[..., 1]  # e^(i theta) = (x1 + i x2)/r
            k1_rows /= r[rows]
            k0[rows], k1[rows] = k0_rows, k1_rows
    L, L_bar = _L_body(sp, x, r, k1), _L_body(sp.conjugate, x, r, np.conj(k1))
    for arr in (x, r, k0, k1, L, L_bar):
        arr.setflags(write=False)
    return _Probes(x, r, sp.kappa, k0, k1, L, L_bar)


#: most probe-node pairs per row chunk of ``_phi_m3_sides``: the series'
#: five chunk temporaries stay about 0.6 MB per worker, which keeps the
#: memory the workers' malloc arenas retain small
_PHI_CHUNK = 1 << 13


def _phi_m3(dp: DiracParameter, r: np.ndarray, sx: np.ndarray, top: np.ndarray,
            bottom: np.ndarray) -> None:
    """Turn k_1 in top and k_0 in bottom, k_j = K_j(kappa(z) r) on some probe
    rows, into those rows of the two spinor components of the (2M, N) kernel
    matrix of Phi_z M3 from boundary nodes to probes, in place; sx is
    x1 - i x2 on the rows.

    M3 keeps the second column of the Dirac kernel G only, and each of its
    entries has one live term: G_12 = (rho/2pi c)(K_1/r)(x1 - i x2) and
    G_22 = (1/2pi c) K_0 (z/c - c/2), rho the relativistic root, computed in
    the order of operations of kernel_G.  Rows are component-major (first
    spinor component, then second).  No weights.
    """
    c = dp.c
    # ufunc calls with a fixed operand order: with FMA, a complex product's
    # last bits depend on it, and numpy may swap the operands of
    # scalar * temporary when it reuses the temporary in place
    top /= r
    np.multiply(dp.rel_root / (2 * np.pi * c), top, out=top)
    top *= sx
    np.multiply(1 / (2 * np.pi * c), bottom, out=bottom)
    bottom *= dp.lam / c - c / 2


def _phi_m3_sides(dp: DiracParameter, pr: _Probes) -> tuple[np.ndarray, np.ndarray]:
    """Phi_z M3 and Phi_zbar M3, built together in row chunks on the pool.

    K_j(kappa(z) r) come from the probes' K_0/K_1 at w = kappa(lambda) r by
    the multiplication theorem with mu = kappa(z)/kappa(lambda), since
    |1 - mu^2| = |lambda|/c^2 is small; where its term bound says the series
    does not pay, from ``bessel_k_array`` at kappa(z) r.  The zbar side
    conjugates them: kappa(zbar) = conj kappa(z) and K_j(conj w) = conj K_j(w).
    """
    M, N = pr.r.shape
    dp_bar = DiracParameter.make(np.conj(dp.lam), dp.c)
    mu = dp.kappa / pr.kappa
    kappa = abs(pr.kappa)
    terms = specfun._multiplication_terms(mu, kappa * float(pr.r.min()), kappa * float(pr.r.max()))
    if terms is None:
        arg = dp.kappa * pr.r
        k0, k1 = specfun.bessel_k_array(0, arg), specfun.bessel_k_array(1, arg)

    def fill(rows: slice) -> None:
        top, bottom = rows, slice(M + rows.start, M + rows.stop)
        if terms is None:
            phi[top], phi[bottom] = k1[rows], k0[rows]
        else:
            specfun._k01_multiplication(mu, pr.kappa * pr.r[rows], pr.k0[rows],
                                        pr.k1[rows], terms, phi[bottom], phi[top])
        np.conj(phi[top], out=phi_bar[top])
        np.conj(phi[bottom], out=phi_bar[bottom])
        x, r = pr.x[rows], pr.r[rows]
        sx = x[..., 0] - 1j * x[..., 1]
        _phi_m3(dp, r, sx, phi[top], phi[bottom])
        _phi_m3(dp_bar, r, sx, phi_bar[top], phi_bar[bottom])

    phi = np.empty((2 * M, N), dtype=complex)
    phi_bar = np.empty((2 * M, N), dtype=complex)
    specfun._run_chunks(fill, specfun._even_slices(M, max(1, _PHI_CHUNK // N)))
    return phi, phi_bar


def _gap_phi(c: float, phi: np.ndarray, L: np.ndarray, g: QuadratureGrid,
             vol: VolumeGrid) -> float:
    """Largest singular value of c Phi_z M3 - Psi_lambda M2 (boundary to volume),
    phi = Phi_z M3 and L the kernel of Psi_lambda M2, both quadrature weights.

    Psi M2 takes the M3 density to the first spinor component.  The weighted
    block A is 2M x N with 2M >> N, so sigma_max(A) is taken as the square
    root of the largest eigenvalue of the N x N Gram matrix A^H A: that
    eigenvalue carries a rounding error of order eps ||A||^2, which is
    relative precision for sigma_max, at a fraction of an SVD's cost.  A is
    formed in place: phi is overwritten.  The Gram matrix is the lower
    triangle of zherk on A.T, the Fortran-ordered view of A, so no copy of A
    is made; it is conj(A^H A), whose eigenvalues are those of A^H A.
    """
    A = phi
    A *= c
    A[:len(vol.points)] -= L
    A *= np.sqrt(g.weight * g.jacobians)[None, :]
    A *= np.sqrt(vol.weight)
    gram = zherk(1.0, A.T, lower=1)
    return float(np.sqrt(np.linalg.eigvalsh(gram, UPLO="L")[-1]))


#: Gap (c), c M3 Phi*_zbar - M2^T Psi*_lambdabar (volume to boundary), is the
#: adjoint of gap (b)'s operator at (zbar, lambdabar): the same computation
#: on Phi_zbar M3 and L(lambdabar), kept under its own name for tracing.
_gap_phi_star = _gap_phi


def _gap_c(dp: DiracParameter, lam_S: np.ndarray, g: QuadratureGrid) -> float:
    """Norm of c^2 M3 C_z M3 - lambda S(lambda) M3 on the boundary; ``lam_S``
    is lambda times the entries of S(lambda).  Both matrices are in the
    orthonormal basis of the weighted L2 space, so this is the L2 norm."""
    return float(np.linalg.norm(dp.c ** 2 * bie.assemble_M3CM3(g, dp).entries - lam_S, 2))


def _c_free_blocks(curve: Curve, sp: SpectralParameter, N: int, vol: VolumeGrid):
    """The blocks of the gap study and the correction that do not depend on
    c: the boundary grid, the ``_probes`` at the nodes of ``vol`` (checked
    clear of the curve) and the read-only entries of S(lambda).  Built once
    per call scope for each curve, lambda, N and probe set.
    """
    def build():
        g = make_grid(curve, N)
        bie.check_volume_clear_of_curve(vol, g)
        S = bie.assemble_S(g, sp).entries
        S.setflags(write=False)
        return g, _probes(sp, g, vol.points), S

    return bie._kept(("c_free", curve, sp.lam, N, vol.points.tobytes()), build)


def _gap_rows(curve: Curve, lam: complex, c_values, N: int,
              volume_box: VolumeGrid | None, check_box: bool):
    """Yield the gap row (a0, phi, phi_star, c) for each speed in c_values.

    The blocks that do not depend on c (``_c_free_blocks`` and U on the gap
    (a) lattice) are built once; per c, ``_phi_m3_sides`` takes K_0/K_1 at
    kappa(z) from the probes' set at kappa(lambda) and conjugates them for
    the (zbar, lambdabar) side.  ``check_box`` tests the box at the first
    speed.
    """
    lam = _require_nonreal(lam)
    sp = SpectralParameter.make(lam)
    dps = [DiracParameter.shifted(lam, c) for c in c_values]
    vol = volume_box if volume_box is not None \
        else bie.make_volume_grid(3.0 * curve.diameter, 48)
    g, pr, S = _c_free_blocks(curve, sp, N, vol)
    lattice = _a0_lattice(sp, vol)
    lam_S = sp.lam * S

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
        phi, phi_bar = _phi_m3_sides(dp, pr)
        row = (
            a0,
            _gap_phi(dp.c, phi, pr.L, g, vol),
            _gap_phi_star(dp.c, phi_bar, pr.L_bar, g, vol),
            _gap_c(dp, lam_S, g),
        )
        del phi, phi_bar  # not held while the next speed builds its blocks
        yield row


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

    def to_json(self) -> str:
        return json.dumps({"c_values": list(self.c_values),
                           "slopes": self.slopes}, indent=2)


def _speeds(c_values) -> list[float]:
    """The sorted c-list of a slope fit, which needs two distinct speeds."""
    c_values = sorted(float(c) for c in c_values)
    if len(set(c_values)) < 2:
        raise ParameterError(
            f"need at least two distinct c values to fit slopes, got {c_values}")
    return c_values


def _fit_slope(c_values, gaps) -> float:
    return float(np.polyfit(np.log(c_values), np.log(gaps), 1)[0])


@bie._call()
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


#: half-width of the correction's probe box, in curve diameters
CORRECTION_PROBE_HALFWIDTH = 1.5


def _limit_side(alpha: float, sp: SpectralParameter, g: QuadratureGrid, pr: _Probes,
                S: np.ndarray, vol: VolumeGrid) -> tuple[np.ndarray, np.ndarray]:
    """The correction's limit-side factors, which do not depend on c: Psi M2
    and Y = (I - alpha lambda S M3)^-1 alpha M2^T Psi*_lambdabar, both acting
    on the first spinor component, in the weighting of ``dirac_correction``.
    Built once per call scope for each curve, alpha, lambda, N and probe
    set, read-only."""
    d = np.sqrt(g.jacobians)
    psi = pr.L * (g.weight * d)
    psi_star = np.conj(pr.L_bar).T * (vol.weight * d)[:, None]
    Y = np.linalg.solve(np.eye(g.N) - alpha * sp.lam * S, alpha * psi_star)
    for arr in (psi, Y):
        arr.setflags(write=False)
    return psi, Y


@bie._call()
def dirac_correction(curve: Curve, alpha: float, lam: complex, c: float,
                     N: int = 128, probe_n: int = 24) -> float:
    """Norm of the difference of the shifted Dirac resolvent's correction
    term and its non-relativistic limit, between probes of a box.

    Dirac side: K_D = c Phi_z M3 (I - alpha c^2 M3 C_z M3)^-1 alpha c M3
    Phi*_zbar, z = lambda + c^2/2.  Limit side: K_S = Psi M2 (I - alpha
    lambda S M3)^-1 alpha M2^T Psi*_lambdabar, supported in the first spinor
    component.  Returns ||sqrt(w) (K_D - K_S) sqrt(w)||_2 with w the probe
    weight; neither 2M x 2M kernel is formed.  The difference is
    [c Phi | -Psi] [X; Y] with 2N inner columns.  With R the thin QR
    triangle of the left factor, whose Q has orthonormal columns, its norm
    is that of the 2N x 2M product P = R [X; Y], taken as the square root of
    the largest eigenvalue of the 2N x 2N Gram matrix P P^H, as in
    ``_gap_phi``.  The (zbar, lambdabar) factors conjugate the Bessel arrays
    of the (z, lambda) ones.  Zero coupling gives 0.0; a non-finite alpha
    raises ParameterError.
    """
    if not np.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    lam = _require_nonreal(lam)
    sp = SpectralParameter.make(lam)
    dp = DiracParameter.shifted(lam, c)
    vol = bie.make_volume_grid(CORRECTION_PROBE_HALFWIDTH * curve.diameter, probe_n)
    g, pr, S = _c_free_blocks(curve, sp, N, vol)
    if alpha == 0:
        return 0.0
    M = len(vol.points)
    Nn = g.N

    # Dirac side: the boundary maps act on M3-component densities, N x N, in
    # the orthonormal basis of the boundary matrices, where a nodal density
    # x is d x: the boundary-to-volume maps take the weight w d, the
    # volume-to-boundary maps' rows the factor d
    d = np.sqrt(g.jacobians)
    w_b = g.weight * d
    B = np.eye(Nn) - alpha * c ** 2 * bie.assemble_M3CM3(g, dp).entries
    smin = float(np.linalg.svd(B, compute_uv=False)[-1])
    if smin <= spectral.POLE_GATE:
        raise PoleProximityError(
            f"I - alpha c^2 M3 C M3 nearly singular at c={c} "
            f"(smallest singular value {smin:.3g})"
        )
    phi, phi_star = _phi_m3_sides(dp, pr)
    phi *= w_b
    phi *= c
    np.conj(phi_star, out=phi_star)
    phi_star *= vol.weight * d
    phi_star = phi_star.T
    X = np.linalg.solve(B, alpha * c * phi_star)

    psi, Y = bie._kept(("limit_side", curve, sp.lam, N, alpha, vol.points.tobytes()),
                       lambda: _limit_side(alpha, sp, g, pr, S, vol))

    # K_D - K_S = [phi | -psi] [X; Y] = Q R [X; Y], psi zero-padded and Y
    # acting on the first M columns only; Q has orthonormal columns
    left = np.zeros((2 * M, 2 * Nn), dtype=complex)
    left[:, :Nn] = phi
    left[:M, Nn:] = -psi
    R = np.linalg.qr(left, mode="r")
    P = R[:, :Nn] @ X
    P[:, :M] += R[:, Nn:] @ Y
    return vol.weight * float(np.sqrt(np.linalg.eigvalsh(P @ P.conj().T)[-1]))


@bie._call()
def correction_convergence(curve: Curve, alpha: float, lam: complex, c_values,
                           N: int = 128, probe_n: int = 24) -> tuple[list, float]:
    """Difference norms of dirac_correction over a c-list and the fitted slope."""
    c_values = _speeds(c_values)
    norms = [dirac_correction(curve, alpha, lam, c, N, probe_n) for c in c_values]
    return norms, _fit_slope(c_values, norms)

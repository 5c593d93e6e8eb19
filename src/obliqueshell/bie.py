"""Nystrom discretization of the boundary operators and layer potentials.

One quadrature for the weakly singular single-layer kernel
(1/2pi) K_0(kappa |x-y|), kappa = -i sqrt(lambda), at every kappa: the
Martensen-Kussmaul split, localized.  K_0 is split into
-(1/2) chi I_0 ln(4 sin^2((t-s)/2)) plus a smooth periodic remainder, chi
a smooth cutoff of the node offset that is 1 near the singular node and 0
beyond a band of offsets; the log factor is integrated with the exact
Fourier log-weights, the remainder with the trapezoid rule.  So I_0, which
grows like e^{kappa r}, is evaluated on the band only, where it cannot
overflow, and the kappa-independent part of a grid is its pair distances
and the log factor of each band offset, chi folded in.  Spectrally
accurate on analytic curves wherever the kernel's decay is resolved on the
nodes; where |kappa| max jac 2pi/N is too large for that, the N rows at the
nodes are assembled on an F-fold refined grid and the F N columns mapped
back to the N nodes by FFT (``_refinement``, ``_trig_map``).  Past the
largest F the assembly raises ResolutionError.

The assembly returns the symmetric weights W, (S phi)(t_i) ~ sum_j W[i,j]
jac_j phi_j.  The assembled operators are stored once, in the orthonormal
basis of the weighted L2 space on the curve that every reader (eigensolves,
eigenvectors, the Krein solve, the Dirac gaps) works in: D W D with
D = diag(sqrt(jac)), exactly symmetric.

Layer potentials off the curve are kernel sums over the nodes: near
targets on a density refined in a window around their foot node, targets
far from the curve by Graf's addition theorem about the centroid of the
nodes (the one-level form of the fast multipole method), which costs two
Bessel evaluations per target instead of N; ``spectral`` takes far volume
sources the same way, and ``dirac`` the kernel rows of its far probes
(``_graf_rows``).

Blocks that a public call reuses, such as the kappa-independent splitting
blocks of a grid and the window plan of a target set, live in one call
scope (``_call``, ``_kept``) and go when the outermost public call returns;
BLAS runs serially for its span.
"""

from __future__ import annotations

import contextlib
import contextvars
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import fft2, ifft2, irfft, next_fast_len, rfft
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist
from scipy.special import erfc, ive, kve

from . import kernels, specfun
from .errors import (ConfigurationError, DomainError, NumericalInstabilityError, ParameterError,
                     ResolutionError, SingularityError)
from .geometry import Curve, QuadratureGrid
from .kernels import DiracParameter, SpectralParameter, _bessel_arg, kernel_L, kernel_U
from .specfun import EULER_GAMMA, _run_chunks, bessel_i_array, bessel_k_array

# ---------------------------------------------------------------------------
# the call scope

#: blocks kept for the outermost public call in progress, by key; unset
#: outside a call
_SCOPE: contextvars.ContextVar[dict] = contextvars.ContextVar("obliqueshell_call")


@contextlib.contextmanager
def _call():
    """Scope of one public call.  Blocks that ``_kept`` builds inside it are
    shared with every call made inside it and dropped when the outermost
    scope ends, also when it ends by an exception, so no block outlives the
    public call that opened it.  The outermost scope also runs BLAS serially
    (``specfun._serial_blas``)."""
    scope = _SCOPE.get(None)
    token = _SCOPE.set({} if scope is None else scope)
    try:
        with specfun._serial_blas() if scope is None else contextlib.nullcontext():
            yield
    finally:
        _SCOPE.reset(token)


def _kept(key: tuple, build):
    """build(), once per key within the outermost open ``_call``; outside
    one, every time.  Curves and grids in a key compare by identity."""
    scope = _SCOPE.get({})
    return scope[key] if key in scope else scope.setdefault(key, build())


# ---------------------------------------------------------------------------
# assembly


def _log_weights(N: int, offsets: np.ndarray) -> np.ndarray:
    """The log weights R of an N-node grid at the given index offsets."""
    n = N // 2
    theta = 2 * np.pi * offsets / N
    m = np.arange(1, n)
    return -(2 * np.pi / n) * (np.cos(np.outer(theta, m)) / m).sum(axis=1) \
        - (np.pi / n ** 2) * np.cos(n * theta)


#: the cutoff chi(tau) = [erfc((tau - a)/b) + erfc((-tau - a)/b)]/2 - 1 of the
#: localized split, tau the periodic node offset: its half-width a and width
#: b in node spacings.  1 - chi is below 1e-16 near tau = 0 and chi below
#: 1e-17 beyond a + 6 b = _BAND, where the log part is dropped.  A width of
#: 4 spacings is resolved on the nodes to about exp(-(2 pi)^2) = 7e-18.
_CUT_HALF = 24
_CUT_WIDTH = 4
_BAND = _CUT_HALF + 6 * _CUT_WIDTH


def _log_factor(M: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The band of an M-node grid: its offsets tau = 1 .. min(_BAND, M/2),
    the log factor chi (R - w ln 4 sin^2(pi tau / M)) at each (R the log
    weights, w = 2 pi / M), and R at offset 0.  Where M <= 2 _BAND the band
    is the whole circle, on which chi would not vanish at the antipode, and
    chi = 1: the plain Martensen-Kussmaul split."""
    tau = np.arange(1, min(_BAND, M // 2) + 1)
    col = _log_weights(M, np.arange(len(tau) + 1))
    c = col[tau] - 2 * np.pi / M * np.log(4 * np.sin(np.pi * tau / M) ** 2)
    if M > 2 * _BAND:
        # the two erfc terms as one difference, accurate in the tail
        c *= 0.5 * (erfc((tau - _CUT_HALF) / _CUT_WIDTH) - erfc((tau + _CUT_HALF) / _CUT_WIDTH))
    return tau, c, float(col[0])


def _self_weight(kappa: complex, jacobians: np.ndarray, R0: float, w: float) -> np.ndarray:
    """Weight of a node against itself on a grid of spacing w: A at r = 0,
    -I_0(0)/4pi = -1/4pi, times R at offset 0, and the limit of the smooth
    remainder K_0/2pi - A ln 4 sin^2 times w."""
    diag = -(np.log(kappa / 2) + EULER_GAMMA + np.log(jacobians)) / (2 * np.pi)
    if kappa.imag == 0:
        diag = diag.real
    return R0 * (-1 / (4 * np.pi)) + w * diag


@dataclass(frozen=True)
class _MKBlocks:
    """The kappa-independent part of the split on one grid (F = 1): the
    distances r of the strict upper triangle i < j in row-major order and
    the triangle as a boolean mask; for the band, ``band[tau - 1, i]`` the
    index in the triangle of the pair (i, i + tau mod N), and ``c[tau - 1]``
    its log factor; and R on the diagonal."""

    r: np.ndarray
    upper: np.ndarray
    band: np.ndarray
    c: np.ndarray
    R_diag: float


def _build_mk_blocks(grid: QuadratureGrid) -> _MKBlocks:
    """The blocks, read-only: every assembly on the grid in one call reads
    them."""
    N = grid.N
    tau, c, R_diag = _log_factor(N)
    i = np.arange(N)
    j = (i + tau[:, None]) % N
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # row lo of the triangle starts at lo N - lo (lo + 1)/2, at offset 1
    band = (lo * N - lo * (lo + 1) // 2 + hi - lo - 1).astype(np.int32)
    blocks = _MKBlocks(pdist(grid.points), np.triu(np.ones((N, N), dtype=bool), 1),
                       band, c[:, None], R_diag)
    for arr in (blocks.r, blocks.upper, blocks.band, blocks.c):
        arr.setflags(write=False)
    return blocks


#: most pairs per slice of the K_0 pass of ``_split_weights``, which runs K_0
#: and the weights as one pool pass.  A pair's weight does not depend on the
#: slice it falls in, so the size changes no bit.  On a 2-core Xeon with
#: two pool workers, medians of one kite assembly in ms (2 runs; whole = I_0,
#: K_0 and the weights as three arrays over the whole triangle, each Bessel
#: array cut only by its own chunks; at N = 128, 8,128 pairs, every size
#: from 2**13 up is one slice, which runs inline), measured with I_0 on every
#: pair:
#:
#:     N, kappa        whole        2**12        2**13        2**14        2**15        2**16
#:     256, real       3.18, 3.25   3.43, 3.77   3.10, 3.58   3.09, 3.44   3.32, 3.78   3.19, 3.27
#:     256, complex    30.7, 27.4   29.1, 27.3   28.3, 27.6   28.4, 27.4   29.7, 27.4   30.9, 27.3
#:     512, real       11.4, 12.0   8.96, 10.2   8.14, 8.85   8.14, 9.30   9.52, 9.98   9.74, 10.4
#:     512, complex    80.7, 93.1   78.4, 82.3   74.0, 80.7   69.1, 78.3   72.3, 80.6   73.0, 90.8
#:
#: 2**13 is as fast as 2**14 at real kappa, which the root finders
#: assemble, and lowers the peak memory: a process of 4 calls of the
#: spectrum benchmark read 93.1-93.5 MB against 93.7-94.1 MB at 2**14 (3
#: processes each).  A slice's real temporaries are 64 KiB each.
_MK_PAIRS = 1 << 13


def _split_weights(r: np.ndarray, band: np.ndarray, c: np.ndarray, kappa: complex,
                   w: float) -> np.ndarray:
    """The weights of the pairs at the distances r, flattened: w K_0(kappa
    r)/2pi, in slices of _MK_PAIRS pairs on the pool of ``specfun``, inside
    which each Bessel array runs inline, and on the pairs that ``band``
    indexes the log part -I_0(kappa r)/4pi times their log factor c as
    well.  A pair listed twice in the band, as at the antipodal offset, gets
    the same sum each time."""
    r = r.reshape(-1)
    out = np.empty(r.size, dtype=float if kappa.imag == 0 else complex)

    def fill(s: slice) -> None:
        out[s] = w * (bessel_k_array(0, _bessel_arg(kappa, r[s])) / (2 * np.pi))

    _run_chunks(fill, specfun._even_slices(r.size, _MK_PAIRS))
    out[band] += -bessel_i_array(0, _bessel_arg(kappa, r[band])) / (4 * np.pi) * c
    return out


def _single_layer_weights_mk(grid: QuadratureGrid, kappa: complex) -> np.ndarray:
    """Symmetric weight matrix W of the localized split on the grid itself
    (F = 1).

    (S phi)(t_i) ~ sum_j W[i,j] jac_j phi_j.  The weights run over the strict
    upper triangle (``_split_weights``), I_0 only over the band, and the
    triangle is mirrored, so W is exactly symmetric.
    """
    blocks = _kept(("mk", grid), lambda: _build_mk_blocks(grid))
    upper = _split_weights(blocks.r, blocks.band, blocks.c, kappa, grid.weight)
    W = np.empty((grid.N, grid.N), dtype=upper.dtype)
    W[blocks.upper] = upper
    W.T[blocks.upper] = upper
    np.fill_diagonal(W, _self_weight(kappa, grid.jacobians, blocks.R_diag, grid.weight))
    return W


def _trig_map(x: np.ndarray, M: int) -> np.ndarray:
    """Values at the M uniform nodes 2 pi m / M of the trigonometric
    interpolant of the N uniform samples of x along its last axis, N and M
    even: the modes |k| < min(N, M)/2 as they are, and the mode +-min(N, M)/2
    split evenly between +-N/2 where M > N, the mean of the +-M/2 modes where
    M < N.  So the map from M nodes to N is N/M times the transpose of the
    map from N to M.  Real transforms along the last axis; a complex x is
    mapped as its real and imaginary parts."""
    if np.iscomplexobj(x):
        return _trig_map(x.real, M) + 1j * _trig_map(x.imag, M)
    N = x.shape[-1]
    n = min(N, M) // 2
    # irfft reads the real part of the last mode, which at M < N is the mean
    c = rfft(x)[..., :n + 1]
    if M > N:
        c[..., n] /= 2
    return irfft(c, M) * (M / N)


@dataclass(frozen=True)
class _RowBlocks:
    """The kappa-independent part of the split on the rows of an F-fold
    refined grid of M = F N nodes at the N coarse nodes (node F i of the
    fine grid is coarse node i): the distances r from each coarse node to
    every fine node, 1 at the self pairs, whose weight is set apart; for the
    band, ``band[k, i]`` the flat index in r of the pair (F i, F i + tau mod
    M), tau = +-1, +-2, ..., and ``c[k]`` its log factor; and R at offset
    0."""

    r: np.ndarray
    band: np.ndarray
    c: np.ndarray
    R_diag: float


def _build_row_blocks(grid: QuadratureGrid, F: int) -> _RowBlocks:
    N, M = grid.N, F * grid.N
    fine = grid.curve.point(2 * np.pi * np.arange(M) / M)
    rows = F * np.arange(N)
    r = cdist(fine[rows], fine)
    r.reshape(-1)[::M + F] = 1.0
    tau, c, R_diag = _log_factor(M)
    tau = np.concatenate([tau, -tau])
    band = np.arange(N) * M + (rows + tau[:, None]) % M
    blocks = _RowBlocks(r, band, np.concatenate([c, c])[:, None], R_diag)
    for arr in (blocks.r, blocks.band, blocks.c):
        arr.setflags(write=False)
    return blocks


def _single_layer_weights_local(grid: QuadratureGrid, kappa: complex) -> np.ndarray:
    """Symmetric weight matrix W of the localized split on the rows of an
    F-fold refined grid (``_refinement``), F >= 2.

    The N rows at the coarse nodes are assembled as ``_single_layer_weights_mk``
    assembles rows, on the F N fine nodes; a density phi enters them as the
    trigonometric interpolant of jac phi at the fine nodes, so W is the
    rows times that interpolation, which is F times the transpose of the map
    from the fine nodes to the coarse ones: W = F ``_trig_map``(rows, N),
    one real FFT pair per row, then symmetrized.  The cost is N F N kernel
    evaluations and 2 N transforms of length F N.
    """
    F = _refinement(grid, kappa)
    blocks = _kept(("rows", grid, F), lambda: _build_row_blocks(grid, F))
    M = F * grid.N
    rows = _split_weights(blocks.r, blocks.band, blocks.c, kappa, 2 * np.pi / M)
    rows[::M + F] = _self_weight(kappa, grid.jacobians, blocks.R_diag, 2 * np.pi / M)
    W = F * _trig_map(rows.reshape(grid.N, M), grid.N)
    return 0.5 * (W + W.T)


#: largest |kappa| max jac 2 pi / N, the kernel's decay over a node spacing,
#: at which the split is assembled on the grid itself.  Measured with F = 1
#: against the circle's closed form (top N/8) and against references at 2 N
#: (top 8 of the kite, ellipse(2, 1) and a mirror-free curve), N = 128 and
#: 256: within 2e-14 at 0.3 and 3e-13 at 0.42 on every curve, but off by
#: 5e-2 at 0.45 on the circle at N = 128 and by up to 0.6 at 0.49 elsewhere
_RESOLVED = 0.3

#: largest |kappa| diameter at which the split spans the whole curve, on
#: grids too small for a local band (at most 2 _BAND nodes, where chi = 1).
#: On the circle, the top N/8 are within 3e-13 at kappa d = 8 for N = 48 to
#: 96, but off by 0.1 to 2 at kappa d = 10, where the step is still 0.33 to
#: 0.65
_WHOLE_CURVE_KD = 8.0

#: largest refinement of the rows; their blocks hold F N^2 floats, and an
#: assembly on them about 2 F N^2 more while it runs
_MAX_REFINEMENT = 64


def _refinement(grid: QuadratureGrid, kappa: complex) -> int:
    """F, the least power of 2 at which |kappa| max jac 2 pi / (F N) <=
    _RESOLVED and, where F N <= 2 _BAND, |kappa| diameter <=
    _WHOLE_CURVE_KD.  Raises ResolutionError, naming kappa and N, where F
    would exceed _MAX_REFINEMENT."""
    step = abs(kappa) * float(grid.jacobians.max()) * grid.weight
    F = 1
    while step > _RESOLVED * F or (F * grid.N <= 2 * _BAND
                                   and abs(kappa) * grid.curve.diameter > _WHOLE_CURVE_KD):
        if F == _MAX_REFINEMENT:
            raise ResolutionError(
                f"single layer at |kappa| = {abs(kappa):.6g} is not resolved on "
                f"{_MAX_REFINEMENT}-fold refined rows of N = {grid.N} nodes; raise N")
        F *= 2
    return F


def single_layer_weights(grid: QuadratureGrid, kappa: complex) -> np.ndarray:
    """Symmetric weights W of the single layer, (S phi)(t_i) ~ sum_j W[i,j]
    jac_j phi_j, by the localized split: on the grid itself where
    ``_refinement`` gives F = 1 (``_single_layer_weights_mk``), else on
    F-fold refined rows (``_single_layer_weights_local``).  Raises
    DomainError for Re kappa <= 0 and ResolutionError past the largest F."""
    kappa = complex(kappa)
    if kappa.real <= 0:
        raise DomainError("single layer kernel needs Re kappa > 0")
    refined = _refinement(grid, kappa) > 1
    return (_single_layer_weights_local if refined else _single_layer_weights_mk)(grid, kappa)


@dataclass(frozen=True)
class BoundaryOperatorMatrix:
    """Dense Nystrom matrix of a boundary operator in the orthonormal basis
    of the weighted L2 space on the curve: D W D, D = diag(sqrt(jac)), W the
    symmetric weights, so ``entries`` is exactly symmetric.  It applies to a
    nodal density x as (entries @ (d * x)) / d, d = sqrt(jac)."""

    entries: np.ndarray

    def eigenvalues_desc(self, k: int | None = None):
        """Eigenvalues sorted by descending real part, the top k of them."""
        A = self.entries
        if np.isrealobj(A):
            vals = np.linalg.eigvalsh(A)[::-1]
        else:
            vals = np.linalg.eigvals(A)
            vals = vals[np.argsort(-vals.real)]
        return vals if k is None else vals[:k]


def _orthonormal(grid: QuadratureGrid, W: np.ndarray) -> BoundaryOperatorMatrix:
    """D W D, D = diag(sqrt(jac)), in place on W: each entry is scaled by
    the one product d_i d_j, so a symmetric W stays exactly symmetric."""
    d = np.sqrt(grid.jacobians)
    W *= np.outer(d, d)
    return BoundaryOperatorMatrix(W)


def assemble_S(grid: QuadratureGrid, sp: SpectralParameter) -> BoundaryOperatorMatrix:
    """Single layer boundary operator S(lambda) as an N x N Nystrom matrix."""
    return _orthonormal(grid, single_layer_weights(grid, sp.kappa))


def assemble_M3CM3(grid: QuadratureGrid, dp: DiracParameter) -> BoundaryOperatorMatrix:
    """Compression M3 C_z M3 of the Dirac boundary operator, N x N.

    The compression vanishes outside the M3 spinor component, and there the
    sigma.x term dies, so only the K_0 part of the Dirac kernel survives.
    The returned matrix is that live block: (z/c^2 - 1/2) times the scalar
    single layer matrix at the relativistic root, on M3-component densities.
    """
    return _orthonormal(grid, (dp.lam / dp.c ** 2 - 0.5) * single_layer_weights(grid, dp.kappa))


# ---------------------------------------------------------------------------
# off-curve evaluation


#: uniform curve samples that seed the distance refinement
_CURVE_SAMPLES = 2048

#: Newton steps of the distance refinement; from within one sample spacing
#: they converge quadratically to the foot point to rounding
_NEWTON_STEPS = 5


def _curve_distance(curve: Curve, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the curve.

    The distance to the nearest of _CURVE_SAMPLES uniform curve samples
    overestimates by up to half a sample spacing, so a point on the curve
    between two samples would read as off it.  Points nearer than one
    spacing are refined by Newton steps on (p(t) - x) . p'(t) = 0 from
    their nearest sample's t, and keep the smaller of the two distances.
    """
    t = np.linspace(0, 2 * np.pi, _CURVE_SAMPLES, endpoint=False)
    d, idx = cKDTree(curve.point(t)).query(points)
    spacing = 2 * np.pi / _CURVE_SAMPLES * float(curve.jacobian(t).max())
    near = d < spacing
    if near.any():
        x, s = points[near], t[idx[near]]
        for _ in range(_NEWTON_STEPS):
            e = curve.point(s) - x
            dp, d2 = curve.derivative(s), curve.derivative(s, 2)
            s = s - (e * dp).sum(-1) / ((dp * dp).sum(-1) + (e * d2).sum(-1))
        # fmin: a step that failed (nan) leaves the sample distance
        d[near] = np.fmin(d[near], np.linalg.norm(curve.point(s) - x, axis=-1))
    return d


def _on_curve_tol(curve: Curve) -> float:
    """Distance below which a point or volume node counts as on the curve."""
    return 1e-9 * max(1.0, curve.diameter)


def _check_points_off_curve(grid: QuadratureGrid, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the curve (``_curve_distance``); raises
    ParameterError for a point that is not finite and SingularityError for a
    point on the curve."""
    if not np.isfinite(points).all():
        raise ParameterError("evaluation points must be finite")
    d = _curve_distance(grid.curve, points)
    if np.any(d < _on_curve_tol(grid.curve)):
        raise SingularityError("evaluation point lies on the curve")
    return d


def _upsampled_density(grid: QuadratureGrid, density: np.ndarray, factor: int):
    """Trig-interpolate density*jacobian to a factor-times-finer grid
    (``_trig_map``).  Every layer potential and trace reads its density
    here, so a density of another length than the grid's raises
    ConfigurationError naming both sizes here, and one that is not finite
    ParameterError."""
    N = grid.N
    if np.shape(density) != (N,):
        raise ConfigurationError(f"density: shape {np.shape(density)} for {N} curve nodes")
    if not np.isfinite(density).all():
        raise ParameterError("density must be finite")
    g = np.asarray(density, dtype=complex) * grid.jacobians
    if factor <= 1:
        return grid.points, g, grid.weight
    M = factor * N
    return grid.curve.point(2 * np.pi * np.arange(M) / M), _trig_map(g, M), 2 * np.pi / M


#: most target x source pairs per kernel-sum slice.  A row's sum does not
#: depend on the slice it falls in, so the size changes no bit.  On a 2-core
#: Xeon with 2 MB L2 per core and two pool workers, one krein_apply and
#: residual call of the resolvent benchmark took 0.81-0.84 s at 2**15 pairs
#: per slice, 0.80-0.85 s at 2**16 and 0.82-0.90 s at 2**17 (8 calls each,
#: before windowed sums).  A slice's temporaries peak at 1.6 MiB at 2**15
#: and 3.1 MiB at 2**16, in each worker, and with windowed sums the call's
#: peak memory read 101.2 MB at 2**15 against 105.3 MB at 2**16 (medians of
#: 4 processes of 9 calls), at the same speed.
_SUM_PAIRS = 1 << 15


def _row_sums(row_sum, count: int, width: int) -> np.ndarray:
    """row_sum(s) for the slices s of range(count) that ``specfun._even_slices``
    cuts at about _SUM_PAIRS target x source pairs, width sources per
    target, run on the pool of ``specfun``; each slice writes its own
    rows.  A row's sum does not depend on the slice it falls in, so the
    output does not depend on the worker count.

    A slice is reduced by an elementwise product and a pairwise row sum, not
    by a BLAS matrix-vector product: OpenBLAS threads a product this size, and
    its helper threads then spin on the cores the pool's workers need.  So a
    pool task makes no BLAS call, and the sums' bits do not depend on the
    BLAS thread count.
    """
    out = np.zeros(count, dtype=complex)

    def rows(s: slice) -> None:
        out[s] = row_sum(s)

    _run_chunks(rows, specfun._even_slices(count, max(1, _SUM_PAIRS // max(width, 1))))
    return out


def _kernel_sum(kernel, sp, targets: np.ndarray, sources: np.ndarray,
                values: np.ndarray) -> np.ndarray:
    """sum_j kernel(sp, targets_i - sources_j) values_j, by ``_row_sums``.  A
    real kernel (kernel_U at real lambda) enters the product as it is,
    without a complex copy."""
    return _row_sums(
        lambda s: (kernel(sp, targets[s, None, :] - sources[None, :, :]) * values).sum(axis=1),
        len(targets), len(sources))


def _window_sum(kernel, sp, targets: np.ndarray, sources: np.ndarray, values: np.ndarray,
                starts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_m kernel(sp, targets_i - sources_j) phi_m values_j over the len(phi)
    sources j = (starts_i + m) mod len(sources), by ``_row_sums``.  Each
    slice gathers its rows' sources itself, as rows of a sliding-window view
    of the sources continued periodically, and evaluates the kernel before
    it gathers the values: a task then holds about as much at once as one of
    ``_kernel_sum``, where gathering both first raised the peak memory of
    the resolvent benchmark by about 2 MB."""
    width = len(phi)
    ahead = np.arange(len(sources) + width - 1) % len(sources)
    src_win = sliding_window_view(sources[ahead], width, axis=0)
    val_win = sliding_window_view(values[ahead], width)
    first = starts % len(sources)

    def row_sum(s: slice) -> np.ndarray:
        x = src_win[first[s]]
        np.subtract(targets[s, :, None], x, out=x)
        k = kernel(sp, x.transpose(0, 2, 1))
        del x
        v = val_win[first[s]]
        v *= phi
        v *= k
        return v.sum(axis=1)

    return _row_sums(row_sum, len(targets), width)


#: largest |kappa| R at which far points take Graf's expansion (``_graf_plan``).
#: Its rounding grows with |kappa| R: on the kite at N = 256, far targets of a
#: 96^2 box of half-width 6 read a largest error, relative to
#: sum_j |q_j k(x - y_j)|, of 3.4e-15 at |kappa| R = 2.9, 1.2e-14 at 5.3,
#: 1.5e-13 at 9.2 and 1.3e-11 at 16.5, against 1e-13 allowed
_GRAF_LIMIT = 8.0

#: most orders of the expansion.  Within _GRAF_LIMIT the kite, ellipse(2, 1)
#: and a mirror-free curve need 46 to 61, at real kappa and at lambda = i,
#: 1 + 2i, 5 + 0.5i, -3 + i and -20 + 5i alike; a kappa whose term bound
#: needs more is summed directly
_GRAF_MAX_ORDER = 80


def _graf_order(kappa: complex, R: float) -> int | None:
    """Order p of Graf's addition theorem (DLMF 10.44(iii)),
    K_0(kappa |x - y|) = sum_n I_n(kappa rho_y) K_n(kappa rho_x) e^(in(theta_x - theta_y)),
    for points y within R of a centre and x at least 2R from it, in polar
    coordinates (rho, theta) about the centre: the least p at which the
    term bound |I_p(kappa rho_y) K_p(kappa rho_x)| <= I_p(|kappa| R) |K_p(2R kappa)|
    has fallen to one unit roundoff of its n = 0 value.  |K_p| is taken at
    the complex argument, real where kappa is: on 31 rays with |arg z| <= 1.5,
    for p = 0, 3, ..., 87 and |z| in [0.05, 60], |K_p(z)| never grew along a
    ray, so it bounds |K_p(kappa rho_x)| for rho_x >= 2R.  None where
    |kappa| R > _GRAF_LIMIT, or where the bound needs more than
    _GRAF_MAX_ORDER orders or is not a positive finite number up to p + 1,
    the highest order a sum reads; those points are summed directly.
    """
    if not abs(kappa) * R <= _GRAF_LIMIT:
        return None
    n = np.arange(_GRAF_MAX_ORDER + 2)
    with np.errstate(all="ignore"):
        # the scaled functions keep their ratios and do not overflow
        bound = ive(n, abs(kappa) * R) * np.abs(kve(n, _bessel_arg(kappa, 2 * R)))
    below = np.flatnonzero(bound[:-1] <= np.finfo(float).eps / 2 * bound[0])
    if below.size == 0:
        return None
    p = int(below[0])
    return p if np.all((bound[:p + 2] > 0) & (bound[:p + 2] < np.inf)) else None


@dataclass(frozen=True)
class _GrafPlan:
    """Graf's expansion for one set of near points (within R of their
    centroid, the centre) and the points of another set at least 2R from
    it (``far``), to order ``order``."""

    centre: np.ndarray
    order: int
    far: np.ndarray


def _graf_plan(kappa: complex, near: np.ndarray, other: np.ndarray) -> _GrafPlan | None:
    """The plan about the centroid c of ``near``, R = max |near - c|, for
    the points of ``other`` with |x - c| >= 2R; None where ``_graf_order``
    gives no order or no point is that far."""
    centre = near.mean(axis=0)
    R = float(np.hypot(*(near - centre).T).max())
    order = _graf_order(kappa, R)
    if order is None:
        return None
    far = np.hypot(*(other - centre).T) >= 2 * R
    return _GrafPlan(centre, order, far) if far.any() else None


def _far(plan: _GrafPlan | None, count: int) -> np.ndarray:
    """The far mask of the plan for count points; with no plan every point
    is near."""
    return np.zeros(count, dtype=bool) if plan is None else plan.far


def _polar(points: np.ndarray, centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho and e^(i theta) of points about centre; e^(i theta) = 1 at rho = 0."""
    z = (points[:, 0] - centre[0]) + 1j * (points[:, 1] - centre[1])
    rho = np.abs(z)
    return rho, np.divide(z, rho, out=np.ones_like(z), where=rho > 0)


def _graf_sum(orders_at_sources, u_sources: np.ndarray, q: np.ndarray,
              orders_at_targets, u_targets: np.ndarray, order: int, shift: int) -> np.ndarray:
    """sum_m C_(m + shift) B_|m| u^m over |m| <= order + shift at each
    target, C_n = sum_j q_j A_|n|,j conj(u_j)^n for |n| <= order (0 beyond),
    where A_n and B_n are the n-th items of ``orders_at_sources`` and
    ``orders_at_targets`` (I_n or K_n of kappa rho, either way round) and u
    are e^(i theta).  With A = I at the sources and B = K at far targets
    this is Graf's expansion of sum_j q_j K_0(kappa |x - y_j|) at shift 0,
    and of sum_j q_j K_1(kappa |x - y_j|) e^(-i arg(x - y_j)) at shift 1: that
    is -(2/kappa) d/dz of the first, and d/dz [K_n e^(in theta)] =
    -(kappa/2) K_(n-1) e^(i(n-1) theta), K_(-n) = K_n.  Elementwise and
    streamed one order at a time, with no BLAS call."""
    C = np.zeros(2 * order + 1, dtype=complex)  # C_n at n + order
    power = np.ones_like(u_sources)
    for n, A in zip(range(order + 1), orders_at_sources):
        weighted = q * A
        C[order + n] = (weighted * power.conj()).sum()
        C[order - n] = (weighted * power).sum()
        power = power * u_sources

    def coefficient(n: int) -> complex:
        return C[order + n] if abs(n) <= order else 0.0

    out = np.zeros(len(u_targets), dtype=complex)
    power = np.ones_like(u_targets)
    for m, B in zip(range(order + shift + 1), orders_at_targets):
        term = coefficient(m + shift) * power
        if m:
            term += coefficient(-m + shift) * power.conj()
        term *= B
        out += term
        power = power * u_targets
    return out


#: most target-source pairs per row chunk of ``_graf_rows``: at N = 128 the
#: gap study's probes (``dirac._probes``) took 75, 71, 68 and 70 ms with
#: chunks of 2**13 to 2**16 pairs (medians of 15 on a 2-core Xeon); a
#: chunk's blocks are 0.5 MB each
_GRAF_ROW_PAIRS = 1 << 15


def _graf_rows(kappa: complex, plan: _GrafPlan, sources: np.ndarray, targets: np.ndarray):
    """K_0(kappa r) and K_1(kappa r) e^(-i arg(x - y)), r = |x - y|, between
    the targets x that ``plan`` marks far and every source y, as
    (rows, K_0 block, K_1 block) for chunks of those rows of at most
    _GRAF_ROW_PAIRS pairs: Graf's expansion of ``_graf_sum`` as products.
    With A[m] = K_|m|(kappa rho_x) u_x^m at the targets (|m| <= p, p the
    plan's order) and B[n] = I_|n|(kappa rho_y) conj(u_y)^n at the sources
    (|n| <= p + 1), u = e^(i theta) about the centre, the blocks are
    A @ B[m] and A @ B[m + 1].  B is built once and A per chunk, so no
    far-targets-by-sources temporary is held; a target costs two Bessel
    evaluations (``specfun._k_orders``).  Runs on the calling thread: the
    products are BLAS calls."""
    p = plan.order
    rho_y, u_y = _polar(sources, plan.centre)
    B = np.empty((2 * p + 3, len(sources)), dtype=complex)  # B[n] at row n + p + 1
    power = np.ones_like(u_y)
    for n, I in enumerate(specfun._i_orders(p + 1, _bessel_arg(kappa, rho_y))):
        B[p + 1 + n] = I * power.conj()
        B[p + 1 - n] = I * power
        power = power * u_y
    far = np.flatnonzero(plan.far)
    step = max(1, _GRAF_ROW_PAIRS // len(sources))
    for start in range(0, len(far), step):
        rows = far[start:start + step]
        rho_x, u_x = _polar(targets[rows], plan.centre)
        A = np.empty((len(rows), 2 * p + 1), dtype=complex)  # A[m] at column m + p
        power = np.ones_like(u_x)
        for n, K in enumerate(specfun._k_orders(p, _bessel_arg(kappa, rho_x))):
            A[:, p + n] = K * power
            A[:, p - n] = K * power.conj()
            power = power * u_x
        yield rows, A @ B[1:-1], A @ B[2:]


def _multipole_sum(kappa: complex, plan: _GrafPlan, sources: np.ndarray, q: np.ndarray,
                   targets: np.ndarray, shift: int) -> np.ndarray:
    """sum_j q_j K_shift(kappa r_j) e^(-i shift arg(x - y_j)), r_j = |x - y_j|, at
    targets at least 2R from the plan's centre, for sources within R of it:
    I_n at the sources, K_n at the targets (``_graf_sum``)."""
    rho_s, u_s = _polar(sources, plan.centre)
    rho_t, u_t = _polar(targets, plan.centre)
    return _graf_sum(specfun._i_orders(plan.order, _bessel_arg(kappa, rho_s)), u_s, q,
                     specfun._k_orders(plan.order + shift, _bessel_arg(kappa, rho_t)), u_t,
                     plan.order, shift)


def _local_sum(kappa: complex, plan: _GrafPlan, sources: np.ndarray, q: np.ndarray,
               targets: np.ndarray) -> np.ndarray:
    """sum_j q_j K_0(kappa |x - y_j|) at targets within R of the plan's centre,
    for sources at least 2R from it: the transposed expansion, with K_n at
    the sources and I_n at the targets (``_graf_sum``)."""
    rho_s, u_s = _polar(sources, plan.centre)
    rho_t, u_t = _polar(targets, plan.centre)
    return _graf_sum(specfun._k_orders(plan.order, _bessel_arg(kappa, rho_s)), u_s, q,
                     specfun._i_orders(plan.order, _bessel_arg(kappa, rho_t)), u_t,
                     plan.order, 0)


def _layer_shift(kernel) -> int | None:
    """Which layer kernel is summed: 0 for kernel_U (the single layer), 1
    for kernel_L (Psi), None for any other kernel, which ``_eval_layer``
    sums directly.  The names are read from this module when called, as
    ``_eval_refined`` and ``jump_traces`` read them to pass the kernel, so a
    wrapper put in place of either (bench/tracer.py) is the kernel it
    stands for."""
    return 0 if kernel is kernel_U else 1 if kernel is kernel_L else None


#: targets at least this many node spacings from the curve are summed on the
#: native nodes: for a target d away the trapezoid rule's error decays like
#: exp(-2 pi d / spacing), below 1e-21 here
_FAR_SPACINGS = 8

#: largest density refinement a near target gets.  On the resolvent
#: benchmark's 128^2 grid around the kite (N = 256), against sums at twice
#: the uncapped factor, a cap of 16 leaves 6 of the 930 near nodes off by
#: more than 1e-3 of max |g|, 64 leaves 2 (the two nodes 2e-4 from the
#: curve, worst 0.135), and 256 leaves none.  With windowed sums, 256 adds
#: about 1.1 MB (1%) to the peak memory of a krein_apply and residual call
#: and 0.07 s to its 0.57 s (medians of 4 processes of 3 calls each on a
#: 2-core Xeon).
_MAX_UPSAMPLE = 64


def _upsample_factors(grid: QuadratureGrid, dist: np.ndarray) -> np.ndarray:
    """Density refinement for targets ``dist`` from the curve: 1 at least
    _FAR_SPACINGS node spacings s (grid.weight times the largest jacobian)
    away, else 2^ceil(log2(_FAR_SPACINGS s / d)) capped at _MAX_UPSAMPLE: below
    the cap, a target d away sees a refined spacing of at most
    d / _FAR_SPACINGS, as a far target sees on the native nodes."""
    limit = _FAR_SPACINGS * grid.weight * grid.jacobians.max()
    factors = np.ones(len(dist), dtype=int)
    near = dist < limit
    factors[near] = np.minimum(np.exp2(np.ceil(np.log2(limit / dist[near]))), _MAX_UPSAMPLE)
    return factors


#: the blend phi(tau) = erfc((|tau - k| - c) / sigma) / 2 of a windowed sum,
#: tau in native parameter spacings and k the target's foot node: its width
#: sigma (in native spacings), the least core half-width c, and the tail
#: beyond c, in units of sigma, where phi has fallen to 1e-17 and the window
#: ends.  A blend of width 2 spacings is resolved on the native nodes to
#: about exp(-(pi sigma)^2) = 7e-18.
_WINDOW_SIGMA = 2
_WINDOW_CORE = 12
_WINDOW_TAIL = 6


def _window_plan(grid: QuadratureGrid, points: np.ndarray, factor: int):
    """Foot node k and window half-width H, in native spacings, of each
    target summed at refinement ``factor``.

    k is the target's nearest native node, from a KD-tree on the nodes.  The
    core half-width c is the largest circular index offset from k of any
    native node j nearer to the target than _FAR_SPACINGS local spacings
    (grid.weight * jac_j), and at least _WINDOW_CORE, so a target near two
    arcs gets a core that reaches both.  The candidate nodes come from one
    pair query of the targets against the node tree, out to just beyond the
    largest local reach.  Feet and cores are kept in the call scope, so the
    sums of both kernels over one target set share them.  Then
    H = c + _WINDOW_TAIL * _WINDOW_SIGMA, and the window costs
    N + 2 H factor + 1 kernel evaluations against N * factor for the full
    sum; H is 0 where the window does not pay.
    """
    N = grid.N

    def cores():
        local = _FAR_SPACINGS * grid.weight * grid.jacobians
        nodes = _kept(("nodes", grid), lambda: cKDTree(grid.points))
        feet = nodes.query(points)[1]
        pairs = cKDTree(points).sparse_distance_matrix(
            nodes, local.max() * (1 + 1e-9), output_type="ndarray")
        i, j = pairs["i"], pairs["j"]
        near = np.hypot(*(points[i] - grid.points[j]).T) < local[j]
        i, j = i[near], j[near]
        core = np.full(len(points), _WINDOW_CORE)
        np.maximum.at(core, i, np.abs((j - feet[i] + N // 2) % N - N // 2))
        feet.setflags(write=False)
        return feet, core

    feet, core = _kept(("window", grid, points.tobytes()), cores)
    half = core + _WINDOW_TAIL * _WINDOW_SIGMA
    half[N + 2 * half * factor + 1 >= N * factor] = 0
    return feet, half


def _eval_layer(grid, density, sp, points, kernel, upsample):
    """Layer potential with the given kernel at points off the curve, summed
    on the density trig-interpolated to upsample * N nodes.

    Where ``_window_plan`` gives a target a window of half-width H around
    its foot node k, the fine sum is replaced by the native sum over all N
    nodes plus a correction over the fine nodes m with |m/F - k| <= H
    (F = upsample), weighted phi(m/F) (w_F g_m - [F divides m] w g_(m/F)),
    phi the blend described at _WINDOW_SIGMA.  The refined density enters
    only where phi > 0; beyond the core, where the integrand is resolved on
    the native nodes, the native sum stands in for the fine one.  Other
    targets are summed in full on the fine nodes.

    At upsample 1, where the kernel is kernel_U or kernel_L
    (``_layer_shift``), targets of ``_graf_plan`` (at least 2R from the
    centroid of the nodes) are summed by Graf's expansion
    (``_multipole_sum``), and only the others by ``_kernel_sum``.
    """
    src, g, w = _upsampled_density(grid, density, upsample)
    if upsample <= 1:
        shift = _layer_shift(kernel)
        plan = None if shift is None else _graf_plan(sp.kappa, src, points)
        far = _far(plan, len(points))
        out = np.empty(len(points), dtype=complex)
        out[~far] = w * _kernel_sum(kernel, sp, points[~far], src, g)
        if plan is not None:
            scale = (1.0, sp.sqrt_lam)[shift] / (2 * np.pi)
            out[far] = (w * scale) * _multipole_sum(sp.kappa, plan, src, g, points[far], shift)
        return out
    feet, half = _window_plan(grid, points, upsample)
    full = half == 0
    out = np.zeros(len(points), dtype=complex)
    out[full] = w * _kernel_sum(kernel, sp, points[full], src, g)
    _, native, _ = _upsampled_density(grid, density, 1)
    out[~full] = grid.weight * _kernel_sum(kernel, sp, points[~full], grid.points, native)
    fine = w * g
    fine[::upsample] -= grid.weight * native
    for H in np.unique(half[~full]):
        rows = half == H
        tau = np.abs(np.arange(2 * H * upsample + 1) / upsample - H)
        phi = 0.5 * erfc((tau - (H - _WINDOW_TAIL * _WINDOW_SIGMA)) / _WINDOW_SIGMA)
        out[rows] += _window_sum(kernel, sp, points[rows], src, fine,
                                 upsample * (feet[rows] - H), phi)
    return out


def _eval_refined(grid, density, sp, points, kernel):
    """Layer potential with the given kernel at points off the curve, each
    target summed at its own _upsample_factors refinement."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    factors = _upsample_factors(grid, _check_points_off_curve(grid, points))
    values = np.zeros(len(points), dtype=complex)
    for factor in np.unique(factors):
        group = factors == factor
        values[group] = _eval_layer(grid, density, sp, points[group], kernel, int(factor))
    return values


def eval_SL(grid: QuadratureGrid, density: np.ndarray, sp: SpectralParameter,
            points: np.ndarray) -> np.ndarray:
    """Single layer potential SL(lambda) density at points off the curve.

    Each target is summed at the refinement of ``_upsample_factors`` for its
    distance, a near one by the windowed sum of ``_eval_layer`` where that
    costs fewer kernel evaluations than the full refined sum.  A target at
    least 2R from the centroid of the curve nodes, R their largest distance
    from it, is summed by Graf's expansion about that centroid where
    ``_graf_order`` gives an order (at |kappa| R <= 8, real or complex
    lambda): two Bessel evaluations per target instead of N.  Raises
    SingularityError for a point on the curve, ConfigurationError for a
    density whose length is not N, and ParameterError for a point or
    density value that is not finite."""
    return _eval_refined(grid, density, sp, points, kernel_U)


def eval_Psi(grid: QuadratureGrid, density: np.ndarray, sp: SpectralParameter,
             points: np.ndarray) -> np.ndarray:
    """Potential with the oblique kernel at points off the curve, summed as
    ``eval_SL`` sums the single layer; Graf's expansion takes the far
    targets with the same moments, through d/dz of K_n e^(in theta)
    (``_graf_sum``)."""
    return _eval_refined(grid, density, sp, points, kernel_L)


# ---------------------------------------------------------------------------
# traces by Richardson extrapolation


def _neville_to_zero(h: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Polynomial extrapolation of vals(h) to h=0 along the last-but-one axis.

    ``vals`` has shape (len(h), ...).
    """
    tab = [v.astype(complex) for v in vals]
    k = len(h)
    for level in range(1, k):
        new = []
        for i in range(k - level):
            num = h[i] * tab[i + 1] - h[i + level] * tab[i]
            new.append(num / (h[i] - h[i + level]))
        tab = new
    return tab[0]


def default_h_sequence(curve: Curve) -> np.ndarray:
    return curve.diameter * np.array([1e-2, 5e-3, 2.5e-3])


def _ratio_check(h_seq, stack) -> None:
    d1 = np.linalg.norm(stack[0] - stack[1])
    d2 = np.linalg.norm(stack[1] - stack[2])
    scale = np.linalg.norm(stack[-1])
    if d1 < 1e-13 * max(scale, 1.0):
        return  # field effectively h-independent, nothing to extrapolate
    if d2 == 0 or not np.isfinite(d1 / d2):
        raise NumericalInstabilityError("trace extrapolation ratio test failed")
    expected = h_seq[0] / h_seq[1]
    ratio = d1 / d2
    if not (0.25 * expected < ratio < 16.0 * expected):
        raise NumericalInstabilityError(
            f"trace extrapolation not converging (difference ratio {ratio:.3g})"
        )


#: density upsampling of every Richardson trace offset, at most 0.01
#: diameters from the curve.  Fixed: _upsample_factors would give the three
#: offsets 16, 32 and 64 at N = 256.  With windows of half-width 24 (the
#: kite's trace offsets at N = 256) that is twice the kernel evaluations
#: made here, 1025 per target and kernel against 4096 for a full sum.
_TRACE_UPSAMPLE = 16


def jump_traces(grid: QuadratureGrid, density: np.ndarray, sp: SpectralParameter):
    """Extrapolated jump identities of the oblique potential.

    Returns (i (nu1 + i nu2)(trace_+ - trace_-),  -i (dzbar trace sum));
    these approach the density and lambda S(lambda) density respectively.
    Both fields are sampled at grid.points -/+ h grid.normals for each h of
    default_h_sequence (inside, then outside), summed on the _TRACE_UPSAMPLE
    times upsampled density by ``_eval_layer``, which refines the density
    only in a window around each offset's foot node where that pays;
    dzbar Psi is (i lambda / 2) SL.  Each side is ratio-tested and
    extrapolated to h = 0.
    """
    h_seq = default_h_sequence(grid.curve)
    offsets = np.concatenate([-h_seq, h_seq])
    points = (grid.points[None] + offsets[:, None, None] * grid.normals[None]).reshape(-1, 2)
    _check_points_off_curve(grid, points)

    def sides(values: np.ndarray) -> list[np.ndarray]:
        stacks = values.reshape(2, len(h_seq), grid.N)
        for stack in stacks:
            _ratio_check(h_seq, stack)
        return [_neville_to_zero(h_seq, stack) for stack in stacks]

    psi_in, psi_out = sides(
        _eval_layer(grid, density, sp, points, kernel_L, _TRACE_UPSAMPLE))
    dz_in, dz_out = sides(
        0.5j * sp.lam * _eval_layer(grid, density, sp, points, kernel_U, _TRACE_UPSAMPLE))
    nu = grid.normals[:, 0] + 1j * grid.normals[:, 1]
    jump = 1j * nu * (psi_in - psi_out)
    dzbar_sum = -1j * (dz_in + dz_out)
    return jump, dzbar_sum


# ---------------------------------------------------------------------------
# volume grids and the adjoint map


@dataclass(frozen=True)
class VolumeGrid:
    """Uniform tensor grid over a square box, trapezoid weights h^2."""

    xs: np.ndarray
    ys: np.ndarray
    points: np.ndarray
    h: float

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.xs), len(self.ys)

    @property
    def weight(self) -> float:
        return self.h * self.h

    def reshape(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(flat).reshape(self.shape)


def make_volume_grid(halfwidth: float, n: int) -> VolumeGrid:
    """n x n cell-centred nodes over [-halfwidth, halfwidth]^2.  Raises
    ConfigurationError naming the value for a halfwidth that is not finite
    and positive, or an n that is not an integer >= 2."""
    if not 0 < halfwidth < np.inf:
        raise ConfigurationError(f"volume grid needs a finite halfwidth > 0, got {halfwidth}")
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ConfigurationError(f"volume grid needs an integer n >= 2, got {n!r}")
    # cell-centered nodes: generic curves are not hit exactly
    h = 2 * halfwidth / n
    xs = -halfwidth + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    return VolumeGrid(xs, xs, pts, h)


def check_volume_clear_of_curve(vol: VolumeGrid, grid: QuadratureGrid) -> None:
    """Raise ConfigurationError when a node of vol lies on the curve, by the
    distance and tolerance of ``_check_points_off_curve``."""
    tol = _on_curve_tol(grid.curve)
    dmin = float(_curve_distance(grid.curve, vol.points).min())
    if dmin < tol:
        raise ConfigurationError(
            f"volume grid touches the curve (min distance {dmin:.3g} < {tol:.3g})"
        )


def _volume_samples(vol: VolumeGrid, f_samples) -> np.ndarray:
    """f_samples as a flat complex array, one value per node of vol.  Raises
    ConfigurationError naming both sizes when they differ, and ParameterError
    for a sample that is not finite."""
    f = np.asarray(f_samples, dtype=complex).ravel()
    if f.size != len(vol.points):
        raise ConfigurationError(f"f_samples: {f.size} values for {len(vol.points)} volume nodes")
    if not np.isfinite(f).all():
        raise ParameterError("f_samples must be finite")
    return f


def _lattice_convolve(vol: VolumeGrid, kernel_at, self_cell: complex,
                      f: np.ndarray) -> np.ndarray:
    """h^2 sum_j k(x_i - x_j) f_j at every node x_i, as an (nx, ny) array.

    The kernel is sampled once on the (2 nx - 1) x (2 ny - 1) lattice of
    node offsets and convolved with the samples by FFT; at a transform length
    of at least 2 n - 1 per axis the products wanted do not wrap around.
    ``kernel_at`` maps the nonzero offsets, an (M, 2) array, to kernel
    values; ``self_cell`` is the value that stands for the kernel at offset 0.
    """
    nx, ny = vol.shape
    dx = vol.h * np.arange(-(nx - 1), nx)
    dy = vol.h * np.arange(-(ny - 1), ny)
    offsets = np.stack(np.meshgrid(dx, dy, indexing="ij"), axis=-1)
    off_centre = np.ones(offsets.shape[:2], dtype=bool)
    off_centre[nx - 1, ny - 1] = False
    kern = np.empty(off_centre.shape, dtype=complex)
    kern[off_centre] = kernel_at(offsets[off_centre])
    kern[nx - 1, ny - 1] = self_cell
    fg = np.asarray(f, dtype=complex).reshape(vol.shape)
    shape = [next_fast_len(n) for n in kern.shape]
    conv = ifft2(fft2(kern, shape) * fft2(fg, shape))
    return conv[nx - 1:2 * nx - 1, ny - 1:2 * ny - 1] * vol.weight


#: degree of the interpolating spline that traces volume fields on the curve;
#: its stencil reaches _SPLINE_DEGREE // 2 node spacings to either side
_SPLINE_DEGREE = 5


def apply_Psi_star(grid: QuadratureGrid, sp: SpectralParameter,
                   f_samples: np.ndarray, vol: VolumeGrid) -> np.ndarray:
    """Adjoint map: density y -> integral of conj(L(x - y)) f(x) dx.

    With lambda = conj(sp.lam), conj L at sp equals 2i dzbar U at lambda,
    and dzbar U is odd, so the map is -2i dzbar (R_lambda f) traced on the
    curve, R_lambda the free resolvent.  That field is an FFT convolution of
    f with dzbar U on the volume grid's offset lattice, where the odd
    kernel's self cell is 0 (second order in h for smooth f), traced on the
    curve nodes by a degree-5 interpolating spline, scipy.ndimage's
    ``map_coordinates`` on node-index coordinates with mirror end
    conditions.  For a Gaussian on boxes of half-width 6 around the kite it
    agrees at the curve nodes with FITPACK's interpolating spline
    (RectBivariateSpline) to 2.4e-15 of the largest value on 128^2 and
    256^2 nodes; the two splines' end conditions part near the box edge, by
    7.7e-10 on 32^2 nodes.  No kernel is evaluated
    between a volume node and the curve, so volume nodes on the curve do no
    harm here.  Raises ConfigurationError when a curve node lies outside the
    box or within the spline stencil's reach of its edge.
    """
    # scipy.ndimage, not scipy.interpolate, whose import loads scipy.optimize
    from scipy.ndimage import map_coordinates

    f = _volume_samples(vol, f_samples)
    if min(vol.shape) <= _SPLINE_DEGREE:
        raise ConfigurationError(
            f"the spline trace of Psi* f needs more than {_SPLINE_DEGREE} volume "
            f"nodes per axis, got {vol.shape}"
        )
    reach = _SPLINE_DEGREE // 2
    lo = np.array([vol.xs[reach], vol.ys[reach]])
    hi = np.array([vol.xs[-1 - reach], vol.ys[-1 - reach]])
    outside = np.any((grid.points < lo) | (grid.points > hi), axis=1)
    if outside.any():
        x, y = grid.points[np.argmax(outside)]
        raise ConfigurationError(
            f"curve node ({x:.4g}, {y:.4g}) lies outside the volume box or within "
            f"{reach} node spacings of its edge, where the spline trace of "
            f"Psi* f has no full stencil"
        )
    sp_lam = sp.conjugate
    # looked up on the kernels module, whose kernel_dzbar_U bench/tracer.py wraps
    field = -2j * _lattice_convolve(vol, lambda x: kernels.kernel_dzbar_U(sp_lam, x), 0.0, f)
    index = [(grid.points[:, 0] - vol.xs[0]) / vol.h, (grid.points[:, 1] - vol.ys[0]) / vol.h]
    return map_coordinates(field, index, order=_SPLINE_DEGREE, mode="mirror")

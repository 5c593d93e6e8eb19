"""Nystrom discretization of the boundary operators and layer potentials.

Two assembly paths for the weakly singular single-layer kernel
(1/2pi) K_0(kappa |x-y|), kappa = -i sqrt(lambda):

* moderate kappa: Martensen-Kussmaul splitting.  K_0 is split into
  -(1/2) I_0 ln(4 sin^2((t-s)/2)) plus a smooth periodic remainder; the log
  factor is integrated with the exact Fourier log-weights, the remainder
  with the trapezoid rule.  Spectrally accurate on analytic curves.  Both
  rules together weight -I_0/4pi by one factor of the index offset, so the
  kappa-independent part of a grid is its pair distances and that factor.

* large real kappa (Re kappa * diameter beyond a threshold): the splitting
  is abandoned because I_0(kappa r) overflows/cancels catastrophically.
  Instead each row integral is computed by product integration on dyadically
  graded Gauss-Legendre panels around the singular node, with the density
  transferred off-grid through the exact trigonometric interpolant.  The
  kernel is evaluated directly, so no cancellation occurs; its accuracy is
  limited and depends on N as well as kappa (``_single_layer_weights_local``).

Both paths return the symmetric weights W, (S phi)(t_i) ~ sum_j W[i,j]
jac_j phi_j.  The assembled operators are stored once, in the orthonormal
basis of the weighted L2 space on the curve that every reader (eigensolves,
eigenvectors, the Krein solve, the Dirac gaps) works in: D W D with
D = diag(sqrt(jac)), exactly symmetric.

Layer potentials off the curve are kernel sums over the nodes: near
targets on a density refined in a window around their foot node, targets
far from the curve by Graf's addition theorem about the centroid of the
nodes (the one-level form of the fast multipole method), which costs two
Bessel evaluations per target instead of N; ``spectral`` takes far volume
sources the same way.

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
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist
from scipy.special import erfc, ive, kve

from . import kernels, specfun
from .errors import (ConfigurationError, DomainError, NumericalInstabilityError, ParameterError,
                     SingularityError)
from .geometry import Curve, QuadratureGrid
from .kernels import DiracParameter, SpectralParameter, _bessel_arg, kernel_L, kernel_U
from .specfun import EULER_GAMMA, _run_chunks, bessel_i_array, bessel_k_array

#: Largest Re(kappa) * diameter the splitting path takes, set by its accuracy
#: on the eigenvalues a root finder reads: the top N/8, the branches that
#: ``count <= N/8`` lets it reach.  The splitting's smooth remainder carries
#: Fourier tails of size e^{2 kappa d}, which the trapezoid rule damps only
#: where it resolves them, so the usable range grows with N.  Against the
#: circle's closed form, the top N/8 are within 3e-12 for kappa d <= 10 at
#: every N >= 128, but off by 8.6e-2 at kappa d = 12 with N = 256; at N = 64
#: they are within 2e-13 at kappa d = 8 and off by 0.7 at kappa d = 10.
SPLIT_LIMIT = 10.0

#: fewest nodes at which the splitting path is accurate up to SPLIT_LIMIT;
#: below it the limit falls to log2(N)
_SPLIT_LIMIT_N = 128


def _split_limit(N: int) -> float:
    return SPLIT_LIMIT if N >= _SPLIT_LIMIT_N else min(SPLIT_LIMIT, float(np.log2(N)))


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


def log_quadrature_weights(N: int) -> np.ndarray:
    """First column c of the circulant log-weight matrix: R[i,j] =
    c[(i - j) mod N] is the exact quadrature weight of the periodic log kernel
    ln(4 sin^2((t_i - t_j)/2)) at node t_j."""
    n = N // 2
    theta = 2 * np.pi * np.arange(N) / N
    m = np.arange(1, n)
    return -(2 * np.pi / n) * (np.cos(np.outer(theta, m)) / m).sum(axis=1) \
        - (np.pi / n ** 2) * np.cos(n * theta)


@dataclass(frozen=True)
class _MKBlocks:
    """The kappa-independent part of the Martensen-Kussmaul scheme on the
    strict upper triangle i < j, in row-major order: the distances r and the
    log factor c = R - weight ln 4 sin^2 of the pairs, which depends only on
    the offset j - i (R the log weights), the triangle as a boolean mask, and
    R on the diagonal."""

    r: np.ndarray
    c: np.ndarray
    upper: np.ndarray
    R_diag: float


def _build_mk_blocks(grid: QuadratureGrid) -> _MKBlocks:
    """The blocks, read-only: every assembly on the grid in one call reads
    them."""
    N = grid.N
    col = log_quadrature_weights(N)
    c = col[1:] - grid.weight * np.log(4 * np.sin(np.pi * np.arange(1, N) / N) ** 2)
    # row i of the triangle holds the offsets 1 .. N - 1 - i
    c = np.concatenate([c[:N - 1 - i] for i in range(N - 1)])
    upper = np.triu(np.ones((N, N), dtype=bool), 1)
    blocks = _MKBlocks(pdist(grid.points), c, upper, float(col[0]))
    for arr in (blocks.r, blocks.c, blocks.upper):
        arr.setflags(write=False)
    return blocks


#: most triangle pairs per slice of the MK assembly, whose I_0, K_0 and
#: weights run as one pool pass.  A pair's weight does not depend on the
#: slice it falls in, so the size changes no bit.  On a 2-core Xeon with two
#: pool workers, medians of one kite assembly in ms (2 runs; whole = I_0,
#: K_0 and the weights as three arrays over the whole triangle, each Bessel
#: array cut only by its own chunks; at N = 128, 8,128 pairs, every size
#: from 2**13 up is one slice, which runs inline):
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


def _single_layer_weights_mk(grid: QuadratureGrid, kappa: complex) -> np.ndarray:
    """Symmetric weight matrix W of the Martensen-Kussmaul scheme.

    (S phi)(t_i) ~ sum_j W[i,j] jac_j phi_j.  The kernel is evaluated on the
    strict upper triangle and mirrored, so W is exactly symmetric.  I_0, K_0
    and the weights of the triangle run as one pass over slices of
    _MK_PAIRS pairs on the pool of ``specfun``, inside which each Bessel
    array runs inline.
    """
    blocks = _kept(("mk", grid), lambda: _build_mk_blocks(grid))
    upper = np.empty(len(blocks.r), dtype=float if kappa.imag == 0 else complex)

    def fill(s: slice) -> None:
        z = _bessel_arg(kappa, blocks.r[s])
        upper[s] = -bessel_i_array(0, z) / (4 * np.pi) * blocks.c[s] \
            + grid.weight * (bessel_k_array(0, z) / (2 * np.pi))

    _run_chunks(fill, specfun._even_slices(len(upper), _MK_PAIRS))

    W = np.empty((grid.N, grid.N), dtype=upper.dtype)
    W[blocks.upper] = upper
    W.T[blocks.upper] = upper
    # diagonal: A at r = 0, -I_0(0)/4pi = -1/4pi, and the limit of the
    # smooth remainder K_0/2pi - A ln 4 sin^2
    diag = -(np.log(kappa / 2) + EULER_GAMMA + np.log(grid.jacobians)) / (2 * np.pi)
    if kappa.imag == 0:
        diag = diag.real
    np.fill_diagonal(W, blocks.R_diag * (-1 / (4 * np.pi)) + grid.weight * diag)
    return W


def _trig_interp_kernel(theta: np.ndarray, N: int) -> np.ndarray:
    """Cardinal function of trigonometric interpolation at N uniform nodes."""
    n = N // 2
    theta = np.asarray(theta, dtype=float)
    small = np.abs(np.remainder(theta + np.pi, 2 * np.pi) - np.pi) < 1e-12
    th = np.where(small, 1.0, theta)
    out = np.sin(n * th) * np.cos(th / 2) / (N * np.sin(th / 2))
    out[small] = 1.0
    return out


def _graded_offsets(kappa_scale: float, n_panel: int = 16) -> tuple[np.ndarray, np.ndarray, float]:
    """One-sided offsets/weights of dyadically graded GL panels on (delta, pi].

    Returns (offsets, weights, delta); panels halve toward the singularity
    until kappa_scale * delta <= 6e-4 (freezing the density over the innermost
    interval leaves an error of order delta^3).
    """
    levels = max(10, int(np.ceil(np.log2(max(np.pi * kappa_scale / 6e-4, 2.0)))))
    xg, wg = leggauss(n_panel)
    offs, wts = [], []
    hi = np.pi
    for _ in range(levels):
        lo = hi / 2
        offs.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * wg)
        hi = lo
    return np.concatenate(offs), np.concatenate(wts), hi


def _single_layer_weights_local(grid: QuadratureGrid, kappa: complex) -> np.ndarray:
    """Graded-panel product integration.

    Its accuracy depends on N as well as kappa.  Against the circle's closed
    form, over the top N/8 eigenvalues at kappa d = Re kappa * diameter: 3.3e-9
    at kappa d = 8-12 with N = 256, but 1.4e-5 at kappa d = 8 with N = 512;
    at kappa = 0.5 it is off by 25% (N = 128) and 89% (N = 512).
    ``single_layer_weights`` uses it only beyond the splitting path's limit.
    """
    N = grid.N
    t = grid.nodes
    curve = grid.curve
    jac_max = float(grid.jacobians.max())
    offs, wts, delta = _graded_offsets(abs(kappa) * jac_max)
    Q = len(offs)

    real_path = kappa.imag == 0
    dtype = float if real_path else complex
    W = np.zeros((N, N), dtype=dtype)
    # with uniform nodes, t_i - t_j = t_{(i-j) mod N}, so the cardinal factor
    # is circulant and each panel node contributes one rank structure;
    # summing over panel nodes is a single (N,Q) x (Q,N) product per side.
    # The cardinal function of panel node t_i + s at node t_j is
    # l(s - t_{j-i}), so column d of the product lands on the diagonal
    # d = (j - i) mod N.
    idx = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N
    rows = np.arange(N)[:, None]
    # the per-side temporaries are updated in place and dropped early: this
    # assembly sets the peak memory of a spectrum run
    for sgn in (+1.0, -1.0):
        s = (t[:, None] + sgn * offs[None, :]).ravel()
        pts = curve.point(s).reshape(N, Q, 2)
        pts -= grid.points[:, None, :]
        r = np.linalg.norm(pts, axis=-1)
        del pts
        A = bessel_k_array(0, _bessel_arg(kappa, r))
        del r
        A /= 2 * np.pi
        A *= curve.jacobian(s).reshape(N, Q)
        A *= wts[None, :]
        del s
        AC = A @ _trig_interp_kernel(sgn * offs[:, None] - t[None, :], N)
        del A
        W += AC[rows, idx]
        del AC
    # innermost [0, delta]: kernel ~ K_0(kappa jac sigma), density frozen.
    a = kappa * grid.jacobians
    x = a * delta
    inner = delta * (1.0 - np.log(x / 2) - EULER_GAMMA) \
        - delta * x ** 2 / 12 * (np.log(x / 2) + EULER_GAMMA - 4.0 / 3.0) \
        - delta * x ** 4 / 320 * (np.log(x / 2) + EULER_GAMMA - 17.0 / 10.0)
    inner = grid.jacobians * inner / np.pi  # both sides, 1/(2 pi) kernel factor
    if real_path:
        inner = inner.real
    W[np.arange(N), np.arange(N)] += inner
    # divide out the jacobian column factor applied by the caller
    W /= grid.jacobians[None, :]
    W += W.T
    W *= 0.5
    return W


def single_layer_weights(grid: QuadratureGrid, kappa: complex) -> np.ndarray:
    kappa = complex(kappa)
    if kappa.real <= 0:
        raise DomainError("single layer kernel needs Re kappa > 0")
    if kappa.real * grid.curve.diameter <= _split_limit(grid.N):
        return _single_layer_weights_mk(grid, kappa)
    return _single_layer_weights_local(grid, kappa)


@dataclass(frozen=True)
class BoundaryOperatorMatrix:
    """Dense Nystrom matrix of a boundary operator in the orthonormal basis
    of the weighted L2 space on the curve: D W D, D = diag(sqrt(jac)), W the
    symmetric weights, so ``entries`` is exactly symmetric.  It applies to a
    nodal density x as (entries @ (d * x)) / d, d = sqrt(jac)."""

    entries: np.ndarray

    def eigenvalues_desc(self, k: int | None = None, vectors: int = 0):
        """Eigenvalues sorted by descending real part.  With ``vectors`` = m
        > 0, for real entries only, (values, V) from one eigensolve, the
        columns of V the eigenvectors of the top m values, held apart from
        the other eigenvectors."""
        A = self.entries
        if vectors:
            vals, V = np.linalg.eigh(A)
            return vals[::-1][:k], V[:, ::-1][:, :vectors].copy()
        if np.isrealobj(A):
            n = A.shape[0]
            if k is not None and n >= 512 and k < n // 4:
                from scipy.linalg import eigh
                vals = eigh(A, eigvals_only=True,
                            subset_by_index=[n - k, n - 1])
                return vals[::-1]
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
    """Trig-interpolate density*jacobian to a factor-times-finer grid.  Every
    layer potential and trace reads its density here, so a density of
    another length than the grid's raises ConfigurationError naming both
    sizes here, and one that is not finite ParameterError."""
    N = grid.N
    if np.shape(density) != (N,):
        raise ConfigurationError(f"density: shape {np.shape(density)} for {N} curve nodes")
    if not np.isfinite(density).all():
        raise ParameterError("density must be finite")
    g = np.asarray(density, dtype=complex) * grid.jacobians
    if factor <= 1:
        return grid.points, g, grid.weight
    M = factor * N
    gh = np.fft.fft(g)
    Gh = np.zeros(M, dtype=complex)
    n = N // 2
    Gh[:n] = gh[:n]
    Gh[-(n - 1):] = gh[-(n - 1):]
    Gh[n] = gh[n] / 2
    Gh[M - n] = gh[n] / 2
    fine_vals = np.fft.ifft(Gh) * factor
    fine_t = 2 * np.pi * np.arange(M) / M
    return grid.curve.point(fine_t), fine_vals, 2 * np.pi / M


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

#: most orders of the expansion.  At real kappa within _GRAF_LIMIT the kite,
#: ellipse(2, 1) and a mirror-free curve need 46 to 59; a kappa whose term
#: bound needs more (one well off the real axis, Re kappa << |kappa|) is
#: summed directly
_GRAF_MAX_ORDER = 80


def _graf_order(kappa: complex, R: float) -> int | None:
    """Order p of Graf's addition theorem (DLMF 10.44(iii)),
    K_0(kappa |x - y|) = sum_n I_n(kappa rho_y) K_n(kappa rho_x) e^(in(theta_x - theta_y)),
    for points y within R of a centre and x at least 2R from it, in polar
    coordinates (rho, theta) about the centre: the least p at which the
    term bound |I_p(kappa rho_y) K_p(kappa rho_x)| <= I_p(|kappa| R) K_p(2R Re kappa)
    has fallen to one unit roundoff of its n = 0 value.  None where
    |kappa| R > _GRAF_LIMIT, or where the bound needs more than
    _GRAF_MAX_ORDER orders or is not a positive finite number up to p + 1,
    the highest order a sum reads; those points are summed directly.
    """
    if not abs(kappa) * R <= _GRAF_LIMIT:
        return None
    n = np.arange(_GRAF_MAX_ORDER + 2)
    with np.errstate(all="ignore"):
        # the scaled functions keep their ratios and do not overflow
        bound = ive(n, abs(kappa) * R) * kve(n, 2 * R * kappa.real)
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
        if plan is None:
            return w * _kernel_sum(kernel, sp, points, src, g)
        out = np.empty(len(points), dtype=complex)
        out[~plan.far] = w * _kernel_sum(kernel, sp, points[~plan.far], src, g)
        scale = (1.0, sp.sqrt_lam)[shift] / (2 * np.pi)
        out[plan.far] = (w * scale) * _multipole_sum(sp.kappa, plan, src, g,
                                                      points[plan.far], shift)
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
    ``_graf_order`` gives an order (at real lambda with |kappa| R <= 8): two
    Bessel evaluations per target instead of N.  Raises SingularityError for
    a point on the curve, ConfigurationError for a density whose length is
    not N, and ParameterError for a point or density value that is not
    finite."""
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

"""Nystrom discretization of the boundary operators and layer potentials.

Two assembly paths for the weakly singular single-layer kernel
(1/2pi) K_0(kappa |x-y|), kappa = -i sqrt(lambda):

* moderate kappa: Martensen-Kussmaul splitting.  K_0 is split into
  -(1/2) I_0 ln(4 sin^2((t-s)/2)) plus a smooth periodic remainder; the log
  factor is integrated with the exact Fourier log-weights, the remainder
  with the trapezoid rule.  Spectrally accurate on analytic curves.

* large real kappa (Re kappa * diameter beyond a threshold): the splitting
  is abandoned because I_0(kappa r) overflows/cancels catastrophically.
  Instead each row integral is computed by product integration on dyadically
  graded Gauss-Legendre panels around the singular node, with the density
  transferred off-grid through the exact trigonometric interpolant.  The
  kernel is evaluated directly, so no cancellation occurs; accuracy is then
  limited only by how well N nodes resolve the density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.spatial import cKDTree

from . import kernels, specfun
from .errors import ConfigurationError, DomainError, NumericalInstabilityError, SingularityError
from .geometry import Curve, QuadratureGrid
from .kernels import DiracParameter, SpectralParameter, _bessel_arg, kernel_L, kernel_U
from .specfun import EULER_GAMMA, _run_chunks, bessel_i_array, bessel_k_array

#: Hard cap on Re(kappa) * diameter for the splitting path.  The splitting's
#: smooth remainder carries Fourier tails of size e^{2 kappa d}; the trapezoid
#: rule only damps the tail modes it resolves, so the usable range also grows
#: with N.  Empirically the remainder quadrature keeps the matrix positive
#: definite for kappa d up to about log2(N) (6 at N=64, 8 at N=256), and is
#: destroyed outright beyond kappa d of about 12 at any practical N.
SPLIT_LIMIT = 10.0


def _split_limit(N: int) -> float:
    return min(SPLIT_LIMIT, float(np.log2(N)))


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
    strict lower triangle i > j: node indices, distances r, ln 4 sin^2 of the
    parameter differences and the log weights R, plus R on the diagonal."""

    rows: np.ndarray
    cols: np.ndarray
    r: np.ndarray
    ln4sin2: np.ndarray
    R: np.ndarray
    R_diag: float


def _build_mk_blocks(grid: QuadratureGrid) -> _MKBlocks:
    rows, cols = np.tril_indices(grid.N, -1)
    rows, cols = rows.astype(np.int32), cols.astype(np.int32)
    diff = grid.points[rows] - grid.points[cols]
    r = np.sqrt((diff ** 2).sum(-1))
    theta = grid.nodes[rows] - grid.nodes[cols]
    ln4sin2 = np.log(4 * np.sin(theta / 2) ** 2)
    # R[i, j] = col[(i - j) mod N], and i - j > 0 here
    col = log_quadrature_weights(grid.N)
    return _MKBlocks(rows, cols, r, ln4sin2, col[rows - cols], float(col[0]))


def _mk_blocks(grid: QuadratureGrid) -> _MKBlocks:
    """_build_mk_blocks(grid), built on first use and kept on the grid."""
    if "_mk_blocks" not in grid.__dict__:
        object.__setattr__(grid, "_mk_blocks", _build_mk_blocks(grid))
    return grid._mk_blocks


def _drop_mk_blocks(grid: QuadratureGrid) -> None:
    """Free the blocks cached on a grid that a result keeps after its last
    assembly (N(N-1)/2 * 32 bytes, 4 MB at N = 512)."""
    grid.__dict__.pop("_mk_blocks", None)


def _single_layer_weights_mk(grid: QuadratureGrid, kappa: complex) -> np.ndarray:
    """Symmetric weight matrix W of the Martensen-Kussmaul scheme.

    (S phi)(t_i) ~ sum_j W[i,j] jac_j phi_j.  The kernel is evaluated on the
    strict lower triangle and mirrored, so W is exactly symmetric.
    """
    blocks = _mk_blocks(grid)
    real_path = kappa.imag == 0

    A = -bessel_i_array(0, _bessel_arg(kappa, blocks.r)) / (4 * np.pi)
    kern = bessel_k_array(0, _bessel_arg(kappa, blocks.r)) / (2 * np.pi)
    B = kern - A * blocks.ln4sin2
    lower = blocks.R * A + grid.weight * B

    W = np.empty((grid.N, grid.N), dtype=lower.dtype)
    W[blocks.rows, blocks.cols] = lower
    W[blocks.cols, blocks.rows] = lower
    # diagonal: A at r = 0, -I_0(0)/4pi = -1/4pi, and the limit of the
    # smooth remainder B
    diag = -(np.log(kappa / 2) + EULER_GAMMA + np.log(grid.jacobians)) / (2 * np.pi)
    if real_path:
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
    """Graded-panel product integration; valid for any kappa with Re kappa > 0."""
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
    """Dense Nystrom matrix acting on nodal density values."""

    entries: np.ndarray
    grid: QuadratureGrid

    def symmetrized(self) -> np.ndarray:
        """Similarity transform making the matrix represent the operator in an
        orthonormal basis of the weighted L2 space on the curve."""
        d = np.sqrt(self.grid.jacobians)
        return self.entries * (d[:, None] / d[None, :])

    def eigenvalues_desc(self, k: int | None = None) -> np.ndarray:
        """Eigenvalues sorted by descending real part."""
        sym = self.symmetrized()
        if np.isrealobj(sym):
            n = sym.shape[0]
            if k is not None and n >= 512 and k < n // 4:
                from scipy.linalg import eigh
                vals = eigh(sym, eigvals_only=True,
                            subset_by_index=[n - k, n - 1])
                return vals[::-1]
            vals = np.linalg.eigvalsh(sym)[::-1]
        else:
            vals = np.linalg.eigvals(sym)
            vals = vals[np.argsort(-vals.real)]
        return vals if k is None else vals[:k]

    def operator_norm(self) -> float:
        return float(np.linalg.norm(self.symmetrized(), 2))


def assemble_S(grid: QuadratureGrid, sp: SpectralParameter) -> BoundaryOperatorMatrix:
    """Single layer boundary operator S(lambda) as an N x N Nystrom matrix."""
    W = single_layer_weights(grid, sp.kappa)
    Q = W * grid.jacobians[None, :]
    return BoundaryOperatorMatrix(Q, grid)


def assemble_M3CM3(grid: QuadratureGrid, dp: DiracParameter) -> BoundaryOperatorMatrix:
    """Compression M3 C_z M3 of the Dirac boundary operator, N x N.

    The compression vanishes outside the M3 spinor component, and there the
    sigma.x term dies, so only the K_0 part of the Dirac kernel survives.
    The returned matrix is that live block: (z/c^2 - 1/2) times the scalar
    single layer matrix at the relativistic root, acting on M3-component
    densities.
    """
    factor = dp.lam / dp.c ** 2 - 0.5
    W = single_layer_weights(grid, dp.kappa)
    return BoundaryOperatorMatrix(factor * W * grid.jacobians[None, :], grid)


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
    SingularityError for a point on the curve."""
    d = _curve_distance(grid.curve, points)
    if np.any(d < _on_curve_tol(grid.curve)):
        raise SingularityError("evaluation point lies on the curve")
    return d


def _upsampled_density(grid: QuadratureGrid, density: np.ndarray, factor: int):
    """Trig-interpolate density*jacobian to a factor-times-finer grid."""
    N = grid.N
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


def _kernel_sum(kernel, sp, targets: np.ndarray, sources: np.ndarray,
                values: np.ndarray) -> np.ndarray:
    """sum_j kernel(sp, targets_i - sources_j) values_j, in the target slices
    that ``specfun._even_slices`` cuts at about ``specfun._CHUNK`` pairs, run
    on the pool of ``specfun``; each slice writes its own rows.  A row's sum
    does not depend on the slice it falls in, so the output does not depend
    on the worker count.

    A slice is reduced by an elementwise product and a pairwise row sum, not
    by a BLAS matrix-vector product: OpenBLAS threads a product this size, and
    its helper threads then spin on the cores the pool's workers need.  So a
    pool task makes no BLAS call, and the sums' bits do not depend on the
    BLAS thread count.  A real kernel (kernel_U at real lambda) enters the
    product as it is, without a complex copy.
    """
    out = np.zeros(len(targets), dtype=complex)

    def rows(s: slice) -> None:
        out[s] = (kernel(sp, targets[s, None, :] - sources[None, :, :]) * values).sum(axis=1)

    step = max(1, specfun._CHUNK // max(len(sources), 1))
    _run_chunks(rows, specfun._even_slices(len(targets), step))
    return out


#: targets at least this many node spacings from the curve are summed on the
#: native nodes: for a target d away the trapezoid rule's error decays like
#: exp(-2 pi d / spacing), below 1e-21 here
_FAR_SPACINGS = 8

#: largest density refinement a near target gets.  On the resolvent
#: benchmark's 128^2 grid around the kite (N = 256), against sums at twice
#: the uncapped factor, a cap of 16 leaves 6 of the 930 near nodes off by
#: more than 1e-3 of max |g|, 64 leaves 2 (the two nodes 2e-4 from the
#: curve, worst 0.135), and 256 leaves none but adds 4.4 MB (4%) to the
#: peak memory of a krein_apply and residual call.
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


def _eval_layer(grid, density, sp, points, kernel, upsample):
    """Layer potential with the given kernel at points off the curve, summed
    on the density trig-interpolated to upsample * N nodes."""
    src, g, w = _upsampled_density(grid, density, upsample)
    return w * _kernel_sum(kernel, sp, points, src, g)


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
    """Single layer potential SL(lambda) density at points off the curve."""
    return _eval_refined(grid, density, sp, points, kernel_U)


def eval_Psi(grid: QuadratureGrid, density: np.ndarray, sp: SpectralParameter,
             points: np.ndarray) -> np.ndarray:
    """Potential with the oblique kernel at points off the curve."""
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
#: offsets 16, 32 and 64 at N = 256, 2.3 times the pairs summed here.
_TRACE_UPSAMPLE = 16


def jump_traces(grid: QuadratureGrid, density: np.ndarray, sp: SpectralParameter):
    """Extrapolated jump identities of the oblique potential.

    Returns (i (nu1 + i nu2)(trace_+ - trace_-),  -i (dzbar trace sum));
    these approach the density and lambda S(lambda) density respectively.
    Both fields are sampled at grid.points -/+ h grid.normals for each h of
    default_h_sequence (inside, then outside), summed on the _TRACE_UPSAMPLE
    times upsampled density; dzbar Psi is (i lambda / 2) SL.  Each side is
    ratio-tested and extrapolated to h = 0.
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
    if halfwidth <= 0 or n < 2:
        raise ConfigurationError("volume grid needs halfwidth > 0 and n >= 2")
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
    curve nodes by a degree-5 interpolating spline.  No kernel is evaluated
    between a volume node and the curve, so volume nodes on the curve do no
    harm here.  Raises ConfigurationError when a curve node lies outside the
    box or within the spline stencil's reach of its edge.
    """
    from scipy.interpolate import RectBivariateSpline

    f = np.asarray(f_samples, dtype=complex).ravel()
    if f.shape[0] != len(vol.points):
        raise ConfigurationError("f_samples does not match the volume grid")
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
    trace = [RectBivariateSpline(vol.xs, vol.ys, part, kx=_SPLINE_DEGREE, ky=_SPLINE_DEGREE)
             .ev(grid.points[:, 0], grid.points[:, 1]) for part in (field.real, field.imag)]
    return trace[0] + 1j * trace[1]

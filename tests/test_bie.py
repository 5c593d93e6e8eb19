import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.integrate
from scipy import special
from scipy.linalg import circulant

from obliqueshell import bie, dirac, geometry, specfun, spectral
from obliqueshell.errors import (
    ConfigurationError,
    DomainError,
    ParameterError,
    PoleProximityError,
    ResolutionError,
    SingularityError,
)
from obliqueshell.kernels import (
    DiracParameter,
    SpectralParameter,
    kernel_dzbar_U,
    kernel_L,
    kernel_U,
)
from obliqueshell.specfun import EULER_GAMMA, bessel_ik_int


def test_log_quadrature_weights_reproduce_log_integral():
    # the circulant weights integrate f(t) log(4 sin^2((t0 - t)/2)) exactly
    # for trigonometric polynomials; check against the known value for f = cos
    N = 32
    R = circulant(bie._log_weights(N, np.arange(N)))
    t = 2 * np.pi * np.arange(N) / N
    # integral of cos(m t) log(4 sin^2(t/2)) dt over [0, 2 pi] is -2 pi / m
    for m in (1, 2, 5):
        approx = R[0] @ np.cos(m * t)
        assert approx == pytest.approx(-2 * np.pi / m, abs=1e-12)
    # and the mean (m = 0) integrates to zero
    assert R[0] @ np.ones(N) == pytest.approx(0.0, abs=1e-12)


def test_single_layer_symmetry_and_positivity(kite):
    g = geometry.grid(kite, 96)
    sp = SpectralParameter.make(-5.0)
    S = bie.assemble_S(g, sp)
    assert np.array_equal(S.entries, S.entries.T)
    vals = S.eigenvalues_desc()
    assert np.all(vals > 0)


@pytest.mark.parametrize("kd", [5.0, 20.0])
def test_entries_are_the_nodal_operator_in_an_orthonormal_basis(kite, mirror_free, kd):
    # S is stored as D W D, D = diag(sqrt(jac)), on both assembly paths: the
    # split on the grid itself at kappa d = 5, on refined rows at kappa
    # d = 20.  It is exactly symmetric and similar to the nodal matrix
    # W diag(jac)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 128)
        lam = -(kd / curve.diameter) ** 2
        assert (bie._refinement(g, np.sqrt(-lam)) > 1) == (kd == 20.0)
        S = bie.assemble_S(g, SpectralParameter.make(lam))
        assert np.array_equal(S.entries, S.entries.T), curve.name
        nodal = bie.single_layer_weights(g, np.sqrt(-lam)) * g.jacobians[None, :]
        ref = np.sort(np.linalg.eigvals(nodal).real)[::-1]
        ev = S.eigenvalues_desc()
        assert np.max(np.abs(ev - ref)) <= 1e-12 * np.abs(ref).max(), curve.name


def _pairwise_r(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(-1))


def _mk_reference(g, kappa, cutoff=False):
    """The Martensen-Kussmaul weights on the full N x N grid: every pair
    (i, j) evaluated on its own by the scheme's formula A c + weight K, with
    A = -I_0(kappa r)/4pi, K = K_0(kappa r)/2pi and the log factor
    c = R - weight ln 4 sin^2(pi m / N) at the periodic offset
    m = min(|i - j|, N - |i - j|).  With ``cutoff``, c is multiplied by the
    localized split's chi(m) = [erfc((m - a)/b) - erfc((m + a)/b)]/2 up to
    m = a + 6 b and is 0 beyond, on grids of more than 2 (a + 6 b) nodes."""
    N = g.N
    r = _pairwise_r(g.points)
    m = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
    m = np.minimum(m, N - m)
    off = m > 0
    real_path = kappa.imag == 0
    arg = kappa.real * r if real_path else kappa * r
    A = -bie.bessel_i_array(0, arg) / (4 * np.pi)
    col = bie._log_weights(N, np.arange(N))
    c = np.zeros_like(r)
    c[off] = col[m[off]] - g.weight * np.log(4 * np.sin(np.pi * m[off] / N) ** 2)
    a, b = bie._CUT_HALF, bie._CUT_WIDTH
    if cutoff and N > 2 * (a + 6 * b):
        chi = 0.5 * (special.erfc((m - a) / b) - special.erfc((m + a) / b))
        c = np.where(m <= a + 6 * b, c * chi, 0.0)
    K = np.zeros_like(A)
    K[off] = bie.bessel_k_array(0, arg[off]) / (2 * np.pi)
    W = A * c + g.weight * K
    diag = -(np.log(kappa / 2) + EULER_GAMMA + np.log(g.jacobians)) / (2 * np.pi)
    np.fill_diagonal(W, col[0] * (-1 / (4 * np.pi)) + g.weight * (diag.real if real_path
                                                                   else diag))
    return W


@pytest.mark.parametrize("N", [64, 512])
def test_mk_weights_symmetric_and_match_full_reference(kite, mirror_free, N):
    # the kernel is evaluated on the strict upper triangle and mirrored:
    # W is exactly symmetric, and the evaluated triangle is bit-identical to
    # the full reference of the localized split, which at N = 64, where the
    # band is the whole circle, is the plain Martensen-Kussmaul split
    up = np.triu_indices(N, 1)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, N)
        for kappa in (0.8 / curve.diameter, 5.0 / curve.diameter,
                      complex(1.2, -0.7), complex(0.3, 2.5)):
            kappa = complex(kappa)
            W = bie._single_layer_weights_mk(g, kappa)
            assert np.array_equal(W, W.T), (curve.name, kappa)
            ref = _mk_reference(g, kappa, cutoff=True)
            if N == 64:
                assert np.array_equal(ref, _mk_reference(g, kappa))
            assert W.dtype == ref.dtype
            assert np.array_equal(W[up], ref[up]), (curve.name, kappa)
            assert np.abs(W - ref).max() <= 1e-12 * np.abs(ref).max()


def test_mk_blocks_hold_two_floats_per_pair_and_one_mask(kite):
    # the kappa-independent blocks keep no index array over the pairs: the
    # distances on the N (N - 1) / 2 pairs, the triangle as a mask, and the
    # band's triangle index, int32, with one row per offset up to _BAND
    for N in (64, 512):
        blocks = bie._build_mk_blocks(geometry.grid(kite, N))
        arrays = [v for v in vars(blocks).values() if isinstance(v, np.ndarray)]
        ints = [a for a in arrays if np.issubdtype(a.dtype, np.integer)]
        assert [(a.dtype, a.shape) for a in ints] == [(np.int32, (min(bie._BAND, N // 2), N))]
        floats = sum(a.size for a in arrays if a.dtype == np.float64)
        masks = [a for a in arrays if a.dtype == bool]
        assert floats <= 2 * N * (N - 1) // 2
        assert len(masks) == 1 and masks[0].shape == (N, N)
        assert sum(a.nbytes for a in arrays) <= 16 * N * (N - 1) // 2 + N * N


def test_mk_blocks_are_built_once_per_grid(monkeypatch, kite):
    # the blocks live in the scope of the outermost public call: within it
    # every assembly on one grid shares them and a new grid builds its own;
    # outside a call each assembly builds them
    built = []
    build = bie._build_mk_blocks
    monkeypatch.setattr(bie, "_build_mk_blocks", lambda g: built.append(g) or build(g))
    g = geometry.grid(kite, 64)
    with bie._call():
        for lam in (-0.5, -1.0, 1j):
            bie.assemble_S(g, SpectralParameter.make(lam))
        assert built == [g]
        bie.assemble_S(geometry.grid(kite, 64), SpectralParameter.make(-1.0))
        assert len(built) == 2
    built.clear()
    for lam in (-0.5, -1.0):
        bie.assemble_S(g, SpectralParameter.make(lam))
    assert built == [g, g]
    # a public call builds them once for all its assemblies: every root
    # evaluation, or S(lambda) and M3 C M3 at every speed
    for run in (lambda: spectral.enumerate_spectrum(kite, -1.0, 3, N=64),
                lambda: dirac.correction_convergence(kite, -1.0, 1j, [16, 64, 256],
                                                     N=64, probe_n=8)):
        built.clear()
        run()
        assert len(built) == 1


def test_shared_blocks_are_read_only(kite):
    # a block the call scope shares between speeds or assemblies cannot be
    # changed in place by one of them
    g = geometry.grid(kite, 32)
    blocks = bie._build_mk_blocks(g)
    vol = bie.make_volume_grid(1.5 * kite.diameter, 8)
    _, pr, S = dirac._c_free_blocks(kite, SpectralParameter.make(1j), 32, vol)
    arrays = [blocks.r, blocks.c, blocks.upper,
              pr.x, pr.r, pr.k0, pr.k1, pr.L, pr.L_bar, S]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2


def test_both_assembly_paths_agree_in_overlap(monkeypatch, circle, ellipse, kite):
    # Re(kappa) * diameter = 5 at N = 128: the split on the grid itself is
    # accurate, so the split on 4-fold refined rows, forced here by a lower
    # threshold, must reproduce it.  The circle's rotational symmetry hides
    # pairing errors between the two sides of the singular node, so the
    # ellipse and the kite are checked as well.
    for curve in (circle, ellipse, kite):
        g = geometry.grid(curve, 128)
        kappa = complex(5.0 / curve.diameter)
        W_mk = bie._single_layer_weights_mk(g, kappa)
        step = abs(kappa) * g.jacobians.max() * g.weight
        with monkeypatch.context() as patch:
            patch.setattr(bie, "_RESOLVED", step / 3)
            assert bie._refinement(g, kappa) == 4
            W_loc = bie._single_layer_weights_local(g, kappa)
        assert np.array_equal(W_loc, W_loc.T)
        # the two quadrature rules differ entrywise but must agree as operators
        for m in (0, 1, 3):
            d = np.exp(1j * m * g.nodes)
            a, b = W_mk @ d, W_loc @ d
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a), curve.name
        d = np.sqrt(g.jacobians)
        ev_mk, ev_loc = (
            bie.BoundaryOperatorMatrix(W * np.outer(d, d)).eigenvalues_desc(8)
            for W in (W_mk, W_loc))
        assert np.allclose(ev_mk, ev_loc, rtol=1e-12, atol=0), curve.name


def _cardinal_interp(N, F):
    """The (F N, N) trigonometric interpolation from N uniform nodes to the
    F N nodes of the refined grid, node F j of which is coarse node j: the
    cardinal function sin(N t/2) cos(t/2) / (N sin(t/2)), 1 at t = 0, of
    coarse node j at fine node m, t = 2 pi (m - F j) / (F N)."""
    M = F * N
    t = 2 * np.pi * np.arange(1, M) / M
    cardinal = np.concatenate([[1.0], np.sin(N // 2 * t) * np.cos(t / 2) / (N * np.sin(t / 2))])
    return cardinal[(np.arange(M)[:, None] - F * np.arange(N)) % M]


@pytest.mark.parametrize("F", [2, 16])
def test_refined_rows_map_back_as_the_cardinal_matrix(monkeypatch, kite, mirror_free, F):
    # the F N columns of the refined rows are mapped back to the N nodes by
    # FFT; the result is the rows times the dense cardinal interpolation,
    # symmetrized, at real and complex kappa
    mapped = []
    trig_map = bie._trig_map
    monkeypatch.setattr(bie, "_trig_map", lambda x, M: mapped.append(x) or trig_map(x, M))
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 128)
        top = 0.9 * bie._RESOLVED * F / (g.jacobians.max() * g.weight)
        for kappa in (complex(top), top * np.exp(0.6j)):
            assert bie._refinement(g, kappa) == F
            mapped.clear()
            W = bie._single_layer_weights_local(g, kappa)
            ref = mapped[0] @ _cardinal_interp(g.N, F)
            ref = 0.5 * (ref + ref.T)
            assert W.dtype == ref.dtype
            assert np.abs(W - ref).max() <= 1e-14 * np.abs(ref).max(), (curve.name, kappa)


@pytest.mark.parametrize("N, M", [(16, 64), (64, 16), (32, 48), (24, 24)])
def test_trig_map_back_is_the_scaled_transpose(N, M):
    # the map from M nodes to N is N/M times the transpose of the map from N
    # to M: the +-min(N, M)/2 mode is split evenly going up and averaged
    # going down
    up = bie._trig_map(np.eye(N), M)
    assert up.shape == (N, M)
    assert np.abs(up - M / N * bie._trig_map(np.eye(M), N).T).max() <= 1e-15
    if M % N == 0 and M > N:
        assert np.allclose(up, _cardinal_interp(N, M // N).T, rtol=0, atol=1e-14)


@pytest.mark.parametrize("M", [64, 96, 256])
def test_trig_map_there_and_back_is_the_identity_without_nyquist(M):
    # samples with no +-N/2 component are a trigonometric polynomial of
    # degree < N/2, which the M-node samples carry unchanged; so are their
    # real and imaginary parts, which are mapped apart
    N = 32
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
    alternating = (-1.0) ** np.arange(N)
    x -= np.mean(x * alternating, axis=-1, keepdims=True) * alternating
    fine = bie._trig_map(x, M)
    assert np.abs(bie._trig_map(fine, N) - x).max() <= 1e-14
    t = 2 * np.pi * np.arange(M) / M
    assert np.allclose(bie._trig_map(np.cos(3 * t[::M // N]) + 2j, M), np.cos(3 * t) + 2j,
                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("N", [64, 128, 256, 512, 1024])
def test_circle_top_eighth_matches_the_oracle_at_every_kappa(circle, N):
    # one split at every kappa: the top N/8 eigenvalues, the branches
    # count <= N/8 lets a root finder reach, match the circle's closed form
    # from kappa d = 0.1 to 60, on the grid itself and on refined rows
    k = N // 8
    orders = np.repeat(np.arange(k), 2)[1:k + 1]  # order 0 once, then pairs
    g = geometry.grid(circle, N)
    refined = set()
    for kd in (0.1, 1.0, 4.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 40.0, 60.0):
        lam = -(kd / circle.diameter) ** 2
        refined.add(bie._refinement(g, np.sqrt(-lam)) > 1)
        ev = bie.assemble_S(g, SpectralParameter.make(lam)).eigenvalues_desc(k).real
        oracle = np.array([spectral.circle_oracle_mu(int(m), 1.0, lam) for m in orders])
        assert np.max(np.abs(ev - oracle) / oracle) <= 1e-12, kd
    assert refined == ({False, True} if N <= 512 else {False})


def _top8(g, W):
    d = np.sqrt(g.jacobians)
    return bie.BoundaryOperatorMatrix(W * np.outer(d, d)).eigenvalues_desc(8).real


def test_non_circles_refine_and_match_plain_mk(kite, ellipse, mirror_free):
    # on curves without the circle's symmetry the top 8 agree between N and
    # 2 N from kappa d = 0.5 to 60, whichever path each N takes, and match
    # the plain Martensen-Kussmaul reference where it is accurate
    # (kappa d <= 10)
    for curve in (kite, ellipse, mirror_free):
        g, g2 = geometry.grid(curve, 128), geometry.grid(curve, 256)
        for kd in (0.5, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0):
            kappa = complex(kd / curve.diameter)
            top = _top8(g, bie.single_layer_weights(g, kappa))
            top2 = _top8(g2, bie.single_layer_weights(g2, kappa))
            assert np.max(np.abs(top - top2) / top2) <= 1e-12, (curve.name, kd)
            if kd <= 10:
                plain = _top8(g, _mk_reference(g, kappa))
                assert np.max(np.abs(top - plain) / plain) <= 1e-12, (curve.name, kd)


def test_unresolved_kappa_is_a_resolution_error(circle):
    # past the largest refinement no rows are assembled: the error names
    # kappa and N
    g = geometry.grid(circle, 32)
    top = bie._RESOLVED * bie._MAX_REFINEMENT / (g.jacobians.max() * g.weight)
    assert bie._refinement(g, top) == bie._MAX_REFINEMENT
    with pytest.raises(ResolutionError,
                       match=r"\|kappa\| = 97\.79\d* is not resolved .* N = 32 nodes"):
        bie.assemble_S(g, SpectralParameter.make(-(1.0001 * top) ** 2))


def test_assembly_blocks_memory(kite):
    # the kappa-independent blocks: at N = 2048 on the grid itself, the
    # distances, the triangle mask and the band, 20.4 MiB (36.0 MiB with a
    # log factor per pair); at N = 128 on 16-fold refined rows, the
    # distances and the band, 2.1 MiB (4.1 MiB with a dense interpolation
    # matrix)
    for build, held_bound, peak_bound in (
            (lambda: bie._build_mk_blocks(geometry.grid(kite, 2048)), 20.5, 31.0),
            (lambda: bie._build_row_blocks(geometry.grid(kite, 128), 16), 2.2, 3.0)):
        tracemalloc.start()
        try:
            blocks = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del blocks
        assert held <= held_bound * 2 ** 20 and peak <= peak_bound * 2 ** 20


def test_eigenvalues_desc_is_the_top_of_eigvalsh(kite):
    # real entries take eigvalsh at every size and k: the top k are its
    # values bit for bit, also at N = 512 with k < N / 4
    S = bie.assemble_S(geometry.grid(kite, 512), SpectralParameter.make(-5.0))
    full = np.linalg.eigvalsh(S.entries)[::-1]
    for k in (8, 64, None):
        assert np.array_equal(S.eigenvalues_desc(k), full[:k])


def test_spectral_convergence_on_circle(circle):
    sp = SpectralParameter.make(-1.0)
    iv, kv = bessel_ik_int(0, 1.0)
    exact = iv * kv
    errs = []
    for N in (32, 64, 128):
        S = bie.assemble_S(geometry.grid(circle, N), sp)
        errs.append(abs(S.eigenvalues_desc(1)[0] - exact))
    # super-algebraic: each doubling must beat the previous error handily
    assert errs[1] <= max(0.1 * errs[0], 1e-13)
    assert errs[2] <= max(0.1 * errs[1], 1e-13)
    assert errs[2] <= 1e-12


def test_circle_eigenvalues_all_orders(circle):
    # eigenvalues of S(lambda) on the radius-R circle are R I_n(kR) K_n(kR),
    # each positive order twice
    sp = SpectralParameter.make(-4.0)
    S = bie.assemble_S(geometry.grid(circle, 64), sp)
    vals = S.eigenvalues_desc(7)
    expect = []
    for n in range(4):
        iv, kv = bessel_ik_int(n, 2.0)
        expect += [iv * kv] * (1 if n == 0 else 2)
    assert np.allclose(vals, sorted(expect, reverse=True), rtol=1e-11)


def test_large_kappa_path(circle):
    # refined rows stay accurate deep beyond the range of the split on the
    # grid itself
    sp = SpectralParameter.make(-1600.0)  # kappa = 40, kappa * diam = 80
    S = bie.assemble_S(geometry.grid(circle, 256), sp)
    iv, kv = bessel_ik_int(0, 40.0)
    assert S.eigenvalues_desc(1)[0] == pytest.approx(iv * kv, rel=1e-8)


def test_norm_envelope(circle):
    # || S(lambda) || stays below a fixed multiple of
    # ln(sqrt(2 + 1/|lambda|)) / sqrt(2 + |lambda|) on the negative axis
    g = geometry.grid(circle, 64)
    for lam in (-1e-3, -1e-1, -1.0, -1e1, -1e3):
        S = bie.assemble_S(g, SpectralParameter.make(lam))
        bound = 3.0 * np.log(np.sqrt(2 + 1 / abs(lam))) / np.sqrt(2 + abs(lam))
        assert np.linalg.norm(S.entries, 2) <= bound


def test_domain_error_for_bad_kappa(circle):
    g = geometry.grid(circle, 32)
    with pytest.raises(DomainError):
        bie.single_layer_weights(g, -1.0)


def test_dirac_compression_structure(circle, kite):
    # M3 C_z M3 is stored as its N x N live block, which equals
    # (z/c^2 - 1/2) S(lambda_eff) with the effective non-relativistic
    # parameter lambda + lambda^2/c^2
    c = 10.0
    for curve, lam in ((circle, -2.0), (kite, 1 + 2j)):
        g = geometry.grid(curve, 48)
        dp = DiracParameter.shifted(lam, c)
        M = bie.assemble_M3CM3(g, dp)
        assert M.entries.shape == (g.N, g.N)
        lam_eff = lam + lam ** 2 / c ** 2
        S_eff = bie.assemble_S(g, SpectralParameter.make(lam_eff))
        factor = dp.lam / c ** 2 - 0.5
        assert np.allclose(M.entries, factor * S_eff.entries, rtol=1e-12, atol=1e-15)


def test_eval_SL_circle_closed_form(circle):
    # constant density on the unit circle, evaluated at the origin:
    # integral over the circle of K0(kappa)/(2 pi) dsigma = K0(kappa)
    g = geometry.grid(circle, 64)
    sp = SpectralParameter.make(-9.0)
    out = bie.eval_SL(g, np.ones(g.N), sp, np.array([[0.0, 0.0]]))
    assert out[0] == pytest.approx(special.k0(3.0), rel=1e-12)


def test_eval_SL_kite_against_adaptive_quadrature(kite):
    g = geometry.grid(kite, 128)
    sp = SpectralParameter.make(-2.0)
    x = np.array([3.0, 1.0])  # well off the curve

    def integrand(t):
        p = kite.point(np.array([t]))[0]
        r = np.hypot(x[0] - p[0], x[1] - p[1])
        return special.k0(sp.kappa.real * r) / (2 * np.pi) * kite.jacobian(
            np.array([t]))[0]

    ref, _ = scipy.integrate.quad(integrand, 0, 2 * np.pi, limit=200,
                                  epsabs=1e-13, epsrel=1e-13)
    out = bie.eval_SL(g, np.ones(g.N), sp, x[None, :])
    assert out[0].real == pytest.approx(ref, rel=1e-10)
    assert abs(out[0].imag) <= 1e-12 * abs(ref)


def test_eval_layer_linearity_and_zero(circle):
    g = geometry.grid(circle, 32)
    sp = SpectralParameter.make(-1.0)
    pts = np.array([[2.0, 0.5], [0.1, 0.2]])
    rng = np.random.default_rng(3)
    a = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    b = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    va = bie.eval_Psi(g, a, sp, pts)
    vb = bie.eval_Psi(g, b, sp, pts)
    vab = bie.eval_Psi(g, 2 * a - 3j * b, sp, pts)
    assert np.allclose(vab, 2 * va - 3j * vb, rtol=1e-12)
    assert np.all(bie.eval_Psi(g, np.zeros(g.N), sp, pts) == 0)


def test_field_decay_at_infinity(circle):
    g = geometry.grid(circle, 64)
    sp = SpectralParameter.make(-1.0)
    dens = np.ones(g.N)
    near = abs(bie.eval_SL(g, dens, sp, np.array([[3.0, 0.0]]))[0])
    far = abs(bie.eval_SL(g, dens, sp, np.array([[8.0, 0.0]]))[0])
    assert far < near * np.exp(-4)  # exponential decay with rate kappa = 1


def test_on_curve_point_rejected(circle, kite):
    sp = SpectralParameter.make(-1.0)
    on_kite = kite.point(np.array([2 * np.pi * 300 / 2048]))  # a curve sample
    for curve, point in ((circle, np.array([[1.0, 0.0]])), (kite, on_kite)):
        g = geometry.grid(curve, 32)
        pts = np.vstack([[5.0, 5.0], point])
        with pytest.raises(SingularityError):
            bie.eval_SL(g, np.ones(g.N), sp, pts)


def test_curve_points_between_samples_are_rejected(kite, mirror_free):
    # points on the curve halfway between two of the proximity checks' 2048
    # curve samples, for layer potentials and volume grids alike, lie half a
    # sample spacing from the nearest one, and must still read as on the curve
    sp = SpectralParameter.make(-3.0)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 256)
        point = curve.point(np.array([2 * np.pi * 300.5 / 2048]))
        with pytest.raises(SingularityError):
            bie.eval_Psi(g, np.ones(g.N), sp, point)
        node = curve.point(np.array([2 * np.pi * 601.5 / 2048]))
        vol = bie.VolumeGrid(node[:, 0], node[:, 1], node, 1.0)
        with pytest.raises(ConfigurationError):
            bie.check_volume_clear_of_curve(vol, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_and_densities_are_a_typed_error(kite, bad):
    # a non-finite point used to reach scipy's cKDTree ValueError, a NaN
    # density value gave eval_SL a silent nan and jump_traces a trace ratio
    # test failure, which named the wrong cause
    g = geometry.grid(kite, 64)
    sp = SpectralParameter.make(-3.0)
    point = np.array([[bad, 0.1]])
    for evaluate in (bie.eval_SL, bie.eval_Psi):
        with pytest.raises(ParameterError, match="points must be finite"):
            evaluate(g, np.ones(g.N), sp, point)
    density = np.ones(g.N, dtype=complex)
    density[7] = bad
    with pytest.raises(ParameterError, match="density must be finite"):
        bie.eval_SL(g, density, sp, np.array([[0.1, 0.2]]))
    with pytest.raises(ParameterError, match="density must be finite"):
        bie.jump_traces(g, density, sp)


@pytest.mark.parametrize("entry", ["eval_SL", "eval_Psi", "jump_traces", "oblique_residual"])
def test_density_of_the_wrong_length_is_a_typed_error(kite, entry):
    # it used to reach numpy's broadcast ValueError in _upsampled_density
    g = geometry.grid(kite, 64)
    sp = SpectralParameter.make(-3.0)
    call = {"eval_SL": lambda d: bie.eval_SL(g, d, sp, [[0.1, 0.2]]),
            "eval_Psi": lambda d: bie.eval_Psi(g, d, sp, [[0.1, 0.2]]),
            "jump_traces": lambda d: bie.jump_traces(g, d, sp),
            "oblique_residual": lambda d: spectral.oblique_residual(g, d, sp, -1.0)}[entry]
    with pytest.raises(ConfigurationError, match=r"\(63,\) for 64 curve nodes"):
        call(np.ones(63))
    call(np.ones(64))


def test_jump_identities(circle):
    # i (nu1 + i nu2)(jump of the oblique potential) recovers the density and
    # -i (sum of one-sided dzbar traces) recovers lambda S(lambda) density
    g = geometry.grid(circle, 256)
    sp = SpectralParameter.make(-2.0)
    t = 2 * np.pi * np.arange(g.N) / g.N
    dens = np.exp(1j * t)
    jump, dzbar_sum = bie.jump_traces(g, dens, sp)
    assert np.linalg.norm(jump - dens) / np.linalg.norm(dens) <= 1e-4
    S = bie.assemble_S(g, sp)
    ref = sp.lam * (S.entries @ dens)
    assert np.linalg.norm(dzbar_sum - ref) / np.linalg.norm(ref) <= 1e-4


def test_volume_grid_basics():
    vol = bie.make_volume_grid(2.0, 4)
    assert vol.shape == (4, 4)
    assert vol.h == pytest.approx(1.0)
    assert vol.weight == pytest.approx(1.0)
    assert vol.xs[0] == pytest.approx(-1.5)
    assert len(vol.points) == 16
    with pytest.raises(ConfigurationError):
        bie.make_volume_grid(-1.0, 4)
    with pytest.raises(ConfigurationError):
        bie.make_volume_grid(1.0, 1)
    # a non-finite halfwidth gave an all-NaN grid, a fractional n an
    # off-centre box; each error names the value
    for halfwidth in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match=f"halfwidth > 0, got {halfwidth}"):
            bie.make_volume_grid(halfwidth, 32)
    for n in (8.5, np.float64(8.0), "8"):
        with pytest.raises(ConfigurationError, match=re.escape(f"integer n >= 2, got {n!r}")):
            bie.make_volume_grid(1.0, n)
    assert bie.make_volume_grid(2.0, np.int64(4)).shape == (4, 4)


def test_volume_touching_curve_rejected(circle, kite):
    g = geometry.grid(circle, 32)
    # cell-centered grid: nodes at +-0.375, +-1.125, all clear of the circle
    vol = bie.make_volume_grid(1.5, 4)
    xs = np.array([0.0, 1.0 + 1e-12])  # a node essentially on the circle
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    vol_bad = bie.VolumeGrid(xs, xs, pts, 1.0)
    with pytest.raises(ConfigurationError):
        bie.check_volume_clear_of_curve(vol_bad, g)
    bie.check_volume_clear_of_curve(vol, g)  # cell-centered grid is clear

    # the kite, with one grid node replaced by a curve sample
    g = geometry.grid(kite, 32)
    vol = bie.make_volume_grid(3 * kite.diameter, 24)
    bie.check_volume_clear_of_curve(vol, g)
    pts = vol.points.copy()
    pts[100] = kite.point(np.array([2 * np.pi * 1000 / 4096]))[0]
    with pytest.raises(ConfigurationError):
        bie.check_volume_clear_of_curve(bie.VolumeGrid(vol.xs, vol.ys, pts, vol.h), g)


def test_apply_Psi_star_adjointness(circle):
    # (Psi phi, f)_volume approximately equals (phi, Psi* f)_curve for a
    # smooth f supported away from the curve
    g = geometry.grid(circle, 64)
    sp = SpectralParameter.make(-3.0)
    vol = bie.make_volume_grid(4.0, 80)
    r2 = ((vol.points - [2.5, 0.0]) ** 2).sum(-1)
    f = np.exp(-r2 / (2 * 0.3 ** 2))  # bump centered off the curve
    rng = np.random.default_rng(5)
    phi = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    psi_phi = bie.eval_Psi(g, phi, sp, vol.points)
    lhs = vol.weight * np.vdot(f, psi_phi)
    star = bie.apply_Psi_star(g, sp, f, vol)
    rhs = g.weight * np.vdot(star, phi * g.jacobians)
    # agreement limited by the volume trapezoid rule on the bump
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_apply_Psi_star_shape_mismatch(circle):
    g = geometry.grid(circle, 32)
    sp = SpectralParameter.make(-1.0)
    vol = bie.make_volume_grid(3.0, 8)
    with pytest.raises(ConfigurationError):
        bie.apply_Psi_star(g, sp, np.ones(5), vol)


@pytest.mark.parametrize("lam", [-3.0, 1j, 1 + 2j])
def test_adjoint_kernel_is_the_dzbar_of_the_free_kernel(kite, lam):
    # conj L at conj(lambda) equals 2i dzbar U at lambda, on the kite's
    # node-to-volume offsets: the identity behind the FFT adjoint map
    g = geometry.grid(kite, 64)
    vol = bie.make_volume_grid(3.0, 24)
    x = vol.points[:, None, :] - g.points[None, :, :]
    sp = SpectralParameter.make(lam)
    lhs = np.conj(kernel_L(sp.conjugate, x))
    rhs = 2j * kernel_dzbar_U(sp, x)
    assert np.abs(lhs - rhs).max() <= 1e-15 * np.abs(rhs).max()


def _radial_gaussian_adjoint(points, centre, sigma, lam):
    """Psi*_{conj lambda} f = -2i dzbar (R_lambda f) at points, for the
    Gaussian f of width sigma at centre.  R_lambda f is radial about the
    centre, so its derivative is kappa (-K_1(kappa r) A(r) + I_1(kappa r) B(r)),
    A = int_0^r I_0(kappa s) f s ds and B = int_r^inf K_0(kappa s) f s ds."""
    kap = -1j * SpectralParameter.make(lam).sqrt_lam
    d = points - centre
    rho = np.hypot(d[:, 0], d[:, 1])

    def fs(s):
        return np.exp(-s * s / (2 * sigma ** 2)) * s

    def quad(fn, a, b):
        return scipy.integrate.quad(fn, a, b, epsabs=0, epsrel=1e-13, limit=200,
                                    complex_func=True)[0]

    du = []
    for r in rho:
        A = quad(lambda s: special.iv(0, kap * s) * fs(s), 0, r)
        # beyond r + 12 sigma the Gaussian is below exp(-72)
        B = quad(lambda s: special.kv(0, kap * s) * fs(s), r, r + 12 * sigma)
        du.append(kap * (-special.kv(1, kap * r) * A + special.iv(1, kap * r) * B))
    return -2j * np.array(du) * (d[:, 0] + 1j * d[:, 1]) / (2 * rho)


@pytest.mark.parametrize("lam", [-3.0, 1 + 2j])
def test_apply_Psi_star_converges_at_second_order_on_the_kite(kite, lam):
    # an off-centre Gaussian on the 12 x 12 box, 128^2 -> 256^2 -> 512^2,
    # against the exact radial-integral value of -2i dzbar (R_lambda f)
    g = geometry.grid(kite, 64)
    centre, sigma = np.array([0.25, 0.0]), 0.25
    sp = SpectralParameter.make(lam)
    ref = _radial_gaussian_adjoint(g.points, centre, sigma, lam)
    errs = []
    for n in (128, 256, 512):
        vol = bie.make_volume_grid(6.0, n)
        f = np.exp(-((vol.points - centre) ** 2).sum(-1) / (2 * sigma ** 2))
        got = bie.apply_Psi_star(g, sp.conjugate, f, vol)
        errs.append(np.abs(got - ref).max() / np.abs(ref).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[0] <= 5e-3 and np.all(orders >= 1.8), (errs, orders)


@pytest.mark.parametrize("halfwidth, n, cause", [
    (1.2, 32, "within 2 node spacings of its edge"),
    (1.6, 32, "within 2 node spacings of its edge"),
    (6.0, 2, "more than 5 volume nodes per axis"),
])
def test_apply_Psi_star_needs_the_spline_stencil_inside_the_box(kite, halfwidth, n, cause):
    # the kite reaches y = +-1.5: a 2.4-wide box cuts it, and on the
    # 3.2-wide box at h = 0.1 its top lies 0.05 below the outermost nodes,
    # inside the box but within the degree-5 spline's reach of the edge;
    # a 2 x 2 grid cannot carry the spline at all
    g = geometry.grid(kite, 64)
    sp = SpectralParameter.make(-3.0)
    vol = bie.make_volume_grid(halfwidth, n)
    with pytest.raises(ConfigurationError, match=cause):
        bie.apply_Psi_star(g, sp, np.ones(len(vol.points)), vol)


def _upsampled_reference(g, density, sp, points, kernel, factor):
    """The layer potential with every target summed on factor * N nodes."""
    src, vals, w = bie._upsampled_density(g, density, factor)
    return w * bie._kernel_sum(kernel, sp, points, src, vals)


def _doubled_reference(g, density, sp, points, kernel, factors):
    """The layer potential with each target summed at twice its own factor."""
    ref = np.zeros(len(points), dtype=complex)
    for factor in np.unique(factors):
        rows = factors == factor
        ref[rows] = _upsampled_reference(g, density, sp, points[rows], kernel, 2 * factor)
    return ref


@pytest.mark.parametrize("lam", [-3.0, -97.5, 1 + 2j])
def test_far_targets_match_upsampled_reference(kite, mirror_free, lam):
    # targets >= 8 node spacings from the curve are summed on the native
    # nodes, nearer ones on a density refined by their distance; each target
    # must agree with a sum at twice its own factor.  Sets: all near (trace
    # offsets), all far, and both mixed.  A target nearer than 8 spacings /
    # _MAX_UPSAMPLE needs more refinement than the cap allows and is not held
    # to the reference: one node of the mirror-free volume set lies 1.3e-4
    # from the curve (0.002 spacings), where the capped sum is off by O(1).
    sp = SpectralParameter.make(lam)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 128)
        dens = np.exp(np.cos(g.nodes) + 1j * np.sin(2 * g.nodes))
        far_limit = 8 * g.weight * g.jacobians.max()
        h = bie.default_h_sequence(curve)[0]
        traces = np.concatenate([g.points - h * g.normals, g.points + h * g.normals])
        mixed = np.concatenate([bie.make_volume_grid(1.5 * curve.diameter, 16).points,
                                traces])
        dist = bie._check_points_off_curve(g, mixed)
        far = dist >= far_limit
        assert far.sum() > 100 and not far[-len(traces):].any()
        uncapped = dist >= far_limit / bie._MAX_UPSAMPLE
        assert uncapped[-len(traces):].all()
        factors = bie._upsample_factors(g, dist)
        for evaluator, kernel in ((bie.eval_Psi, kernel_L), (bie.eval_SL, kernel_U)):
            ref = _doubled_reference(g, dens, sp, mixed, kernel, factors)
            for rows in (np.arange(len(mixed)), np.arange(len(mixed) - len(traces),
                                                          len(mixed)), np.flatnonzero(far)):
                got = evaluator(g, dens, sp, mixed[rows])
                err = np.abs(got - ref[rows])[uncapped[rows]]
                assert np.all(err <= 1e-12 * np.abs(ref[rows][uncapped[rows]])), \
                    (curve.name, lam, kernel.__name__)


def _abs_sum(kernel, sp, targets, sources, values):
    """sum_j |kernel(sp, targets_i - sources_j) values_j|, the scale of a
    sum's rounding."""
    return bie._kernel_sum(lambda s, x: np.abs(kernel(s, x)), sp, targets, sources,
                           np.abs(values)).real


@pytest.mark.parametrize("lam", [-3.0, -10.0, -0.01, 1 + 2j, 5 + 0.5j, -97.5])
def test_far_points_by_graf_match_the_direct_sum(kite, ellipse, mirror_free, lam):
    # volume targets at least 2R from the centroid c of the curve nodes (R
    # their largest distance from c) take Graf's expansion about c in the
    # layer potentials, and such volume sources its transposed form in the
    # residual's free part; each target is within 1e-13 sum_j |q_j k| of the
    # direct sum, and within 1e-14 of its largest value, at real and complex
    # lambda alike.  Where the expansion is not taken (|kappa| R beyond the
    # gate at -97.5) the sums keep the direct sum's bits.
    sp = SpectralParameter.make(lam)
    vol = bie.make_volume_grid(6.0, 96)
    f = np.exp(-(vol.points ** 2).sum(-1) / 8 + 1j * vol.points[:, 0])
    for curve in (kite, ellipse, mirror_free):
        g = geometry.grid(curve, 256)
        dens = np.exp(np.cos(g.nodes) + 1j * np.sin(2 * g.nodes))
        q = dens * g.jacobians
        plan = bie._graf_plan(sp.kappa, g.points, vol.points)
        assert (plan is None) == (lam == -97.5), curve.name
        far = vol.points[plan.far] if plan else vol.points[np.hypot(*vol.points.T) > 5][::16]
        for evaluator, kernel in ((bie.eval_SL, kernel_U), (bie.eval_Psi, kernel_L)):
            got = evaluator(g, dens, sp, far)
            ref = g.weight * bie._kernel_sum(kernel, sp, far, g.points, q)
            if plan is None:
                assert got.tobytes() == ref.tobytes(), (curve.name, kernel.__name__)
                continue
            err = np.abs(got - ref)
            assert np.all(err <= 1e-13 * g.weight * _abs_sum(kernel, sp, far, g.points, q))
            assert err.max() <= 1e-14 * np.abs(ref).max(), (curve.name, kernel.__name__)
        got = spectral._direct_volume_field(kernel_U, sp, vol, f, g.points)
        ref = vol.weight * bie._kernel_sum(kernel_U, sp, g.points, vol.points, f)
        if plan is None:
            assert got.tobytes() == ref.tobytes(), curve.name
            continue
        err = np.abs(got - ref)
        assert np.all(err <= 1e-13 * vol.weight * _abs_sum(kernel_U, sp, g.points,
                                                           vol.points, f))
        assert err.max() <= 1e-14 * np.abs(ref).max(), curve.name


@pytest.mark.parametrize("lam", [-3.0, 1 + 2j])
def test_near_targets_are_refined_by_their_distance(kite, mirror_free, monkeypatch, lam):
    # targets along the normals, 0.55 to 8.8 node spacings s to both sides,
    # are summed at F = 2^ceil(log2(8 s / d)) for their distance d (F = 1
    # from 8 s on, at most _MAX_UPSAMPLE), one _eval_layer call per factor.
    # Those whose F is not capped agree with a sum at 2F.  Some inward
    # targets lie nearer to another arc of the curve than to their foot, so
    # d is the measured distance, not the offset.
    calls = []
    original = bie._eval_layer

    def recording(grid, density, sp, points, kernel, upsample):
        calls.append((points, upsample))
        return original(grid, density, sp, points, kernel, upsample)

    monkeypatch.setattr(bie, "_eval_layer", recording)
    sp = SpectralParameter.make(lam)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 128)
        dens = np.exp(np.cos(g.nodes) + 1j * np.sin(2 * g.nodes))
        s = g.weight * g.jacobians.max()
        spacings = 1.1 * 2.0 ** np.arange(-1, 3.5, 0.5)
        offsets = s * np.concatenate([-spacings, spacings])
        targets = (g.points[::8, None, :] + offsets[None, :, None]
                   * g.normals[::8, None, :]).reshape(-1, 2)
        d = bie._check_points_off_curve(g, targets)
        rule = np.where(d >= 8 * s, 1, 2.0 ** np.ceil(np.log2(8 * s / d)))
        expected = np.minimum(rule, bie._MAX_UPSAMPLE)
        assert {1, 2, 4, 8, 16} <= set(expected)
        calls.clear()
        got = bie.eval_Psi(g, dens, sp, targets)
        assert sorted(F for _, F in calls) == sorted(set(expected))
        for points, F in calls:
            rows = np.flatnonzero(expected == F)
            assert np.array_equal(points, targets[rows])
            ref = _upsampled_reference(g, dens, sp, points, kernel_L, 2 * F)
            held = rule[rows] <= bie._MAX_UPSAMPLE
            assert np.all(np.abs(got[rows] - ref)[held] <= 1e-12 * np.abs(ref[held])), \
                (curve.name, lam, F)


def _arcs_near(g, x):
    """Number of separate arcs of native nodes nearer to x than 8 local
    spacings (grid.weight * jac_j)."""
    close = np.flatnonzero(np.linalg.norm(g.points - x, axis=-1)
                           < 8 * g.weight * g.jacobians)
    if len(close) in (0, g.N):
        return int(len(close) > 0)
    return int((np.diff(np.r_[close, close[0] + g.N]) > 1).sum())


@pytest.mark.parametrize("N", [128, 256])
@pytest.mark.parametrize("lam", [-3.0, -97.5, 1 + 2j])
def test_windowed_sums_match_the_full_refined_sum(circle, kite, mirror_free, N, lam):
    # _eval_layer sums a near target at refinement F as the native sum plus
    # a correction on the fine nodes around its foot node, where the window
    # pays; each target set agrees with the full F-refined sum to 1e-12 of
    # its largest value.  Sets: the trace offsets at the traces' fixed F and
    # normal offsets of 0.55 to 8.8 node spacings, both at 16 nodes, and the
    # near nodes of a volume grid, each at its own F.  Per target the
    # difference is rounding, up to about 4e-14 of the set's largest value,
    # which is more than 1e-12 of a value near a zero of the field.
    sp = SpectralParameter.make(lam)
    windowed = two_arcs = 0
    for curve in (circle, kite, mirror_free):
        g = geometry.grid(curve, N)
        dens = np.exp(np.cos(g.nodes) + 1j * np.sin(2 * g.nodes))
        s = g.weight * g.jacobians.max()
        h = bie.default_h_sequence(curve)
        feet = slice(None, None, N // 16)
        traces = (g.points[None, feet] + np.concatenate([-h, h])[:, None, None]
                  * g.normals[None, feet]).reshape(-1, 2)
        spacings = 1.1 * 2.0 ** np.arange(-1, 3.5, 0.5)
        normal = (g.points[feet, None, :] + s * np.concatenate([-spacings, spacings])[:, None]
                  * g.normals[feet, None, :]).reshape(-1, 2)
        vol = bie.make_volume_grid(0.75 * curve.diameter, 24).points
        vol = vol[bie._upsample_factors(g, bie._check_points_off_curve(g, vol)) > 1]
        groups = [(traces, bie._TRACE_UPSAMPLE)]
        for targets in (normal, vol):
            factors = bie._upsample_factors(g, bie._check_points_off_curve(g, targets))
            groups += [(targets[factors == F], int(F)) for F in np.unique(factors) if F > 1]
        for targets, F in groups:
            half = bie._window_plan(g, targets, F)[1]
            windowed += (half > 0).sum()
            two_arcs += sum(_arcs_near(g, x) > 1 for x in targets[half > 0])
            for kernel in (kernel_L, kernel_U):
                got = bie._eval_layer(g, dens, sp, targets, kernel, F)
                ref = _upsampled_reference(g, dens, sp, targets, kernel, F)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), \
                    (curve.name, F, kernel.__name__)
    assert windowed > 1000 and two_arcs > 0


def test_window_core_reaches_every_near_arc(kite):
    # a target in the notch between the kite's upper wing and its left side
    # lies within 8 local spacings of both arcs: its core runs from its foot
    # node past the nodes of the other arc
    g = geometry.grid(kite, 128)
    x = np.array([[-1.26, 1.26]])
    assert _arcs_near(g, x[0]) == 2
    feet, half = bie._window_plan(g, x, 4)
    close = np.flatnonzero(np.linalg.norm(g.points - x, axis=-1) < 8 * g.weight * g.jacobians)
    offsets = np.abs((close - feet[0] + g.N // 2) % g.N - g.N // 2)
    assert half[0] == max(offsets.max(), 12) + 12 > 24


def _window_plan_reference(g, points, factor):
    """Feet and half-widths of ``bie._window_plan`` from the full targets x
    nodes distance array."""
    x = points[:, None, :] - g.points[None, :, :]
    dist = np.hypot(x[..., 0], x[..., 1])
    feet = dist.argmin(axis=1)
    offsets = np.abs((np.arange(g.N)[None, :] - feet[:, None] + g.N // 2) % g.N - g.N // 2)
    near = dist < 8 * g.weight * g.jacobians[None, :]
    half = np.maximum(np.where(near, offsets, 0).max(axis=1), 12) + 12
    half[g.N + 2 * half * factor + 1 >= g.N * factor] = 0
    return feet, half


@pytest.mark.parametrize("N", [64, 256])
def test_window_plan_matches_a_brute_force_reference(kite, mirror_free, N):
    # the plan's pair query finds the same feet and cores as a scan of every
    # target x node pair: trace offsets, the near nodes of a volume grid, and
    # the kite's notch target, which lies near two arcs
    two_arcs = 0
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, N)
        h = bie.default_h_sequence(curve)
        traces = (g.points[None] + np.concatenate([-h, h])[:, None, None]
                  * g.normals[None]).reshape(-1, 2)
        vol = bie.make_volume_grid(0.75 * curve.diameter, 48).points
        vol = vol[bie._upsample_factors(g, bie._check_points_off_curve(g, vol)) > 1]
        notch = np.array([[-1.26, 1.26]]) if curve is kite else np.empty((0, 2))
        for targets in (traces, np.concatenate([vol, notch])):
            two_arcs += sum(_arcs_near(g, x) > 1 for x in targets)
            for F in (4, bie._TRACE_UPSAMPLE):
                feet, half = bie._window_plan(g, targets, F)
                ref_feet, ref_half = _window_plan_reference(g, targets, F)
                assert np.array_equal(feet, ref_feet), (curve.name, F)
                assert np.array_equal(half, ref_half), (curve.name, F)
    assert two_arcs > 0


def test_worker_count_from_threads(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    monkeypatch.delenv("THREADS", raising=False)
    assert specfun._workers() == cores
    for value, expect in (("1", 1), ("", cores), (str(10 ** 6), cores)):
        monkeypatch.setenv("THREADS", value)
        assert specfun._workers() == expect
    for value in ("0", "-2", "2.5", "two", " 4", "+4", "1_0", "\u0664"):
        monkeypatch.setenv("THREADS", value)
        with pytest.raises(ConfigurationError, match=re.escape(repr(value))):
            specfun._workers()


def test_kernel_sums_do_not_depend_on_the_pool(kite, monkeypatch):
    # inputs spanning many chunks give the same bits on 1, 2 and 4 workers
    # (4 > cores), with a short switch interval to shake out lost writes:
    # native sums, the adjoint map, the windowed sums of the trace offsets,
    # whose slices gather their own sources, and the layer potential and
    # residual free part on a volume grid whose far nodes take Graf's
    # expansion
    g = geometry.grid(kite, 256)
    sp = SpectralParameter.make(-3.0)
    vol = bie.make_volume_grid(2 * kite.diameter, 48)
    f = np.exp(-(vol.points ** 2).sum(-1)) * np.exp(1j * vol.points[:, 0])
    dens = np.exp(1j * g.nodes)
    assert len(vol.points) * g.N > 8 * bie._SUM_PAIRS
    h = bie.default_h_sequence(kite)
    traces = (g.points[None] + np.concatenate([-h, h])[:, None, None]
              * g.normals[None]).reshape(-1, 2)
    half = bie._window_plan(g, traces, bie._TRACE_UPSAMPLE)[1]
    assert (half > 0).all()
    assert len(traces) * (2 * half.min() * bie._TRACE_UPSAMPLE + 1) > 8 * bie._SUM_PAIRS
    assert bie._graf_plan(sp.kappa, g.points, vol.points).far.mean() > 0.5
    outputs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                monkeypatch.setattr(specfun, "_pool", lambda: pool)
                outputs.append((bie._kernel_sum(kernel_L, sp, vol.points, g.points, dens),
                                bie.apply_Psi_star(g, sp, f, vol),
                                bie._eval_layer(g, dens, sp, traces, kernel_L,
                                                bie._TRACE_UPSAMPLE),
                                bie.eval_Psi(g, dens, sp, vol.points),
                                spectral._direct_volume_field(kernel_U, sp, vol, f, g.points)))
    finally:
        sys.setswitchinterval(interval)
    for parts in outputs[1:]:
        for part, first in zip(parts, outputs[0]):
            assert part.tobytes() == first.tobytes()


def test_kernel_sums_do_not_depend_on_the_slicing(kite, monkeypatch):
    # _even_slices cuts the 6 * (rows per chunk) + 1 targets into 7, 8 and 9
    # uneven slices for 1, 2 and 3 workers; every row's sum keeps its bits.
    # Native sums at random targets, and windowed sums at trace offsets:
    # their rows per chunk follow the window's width, not N.  Random
    # targets over a wider box, whose far ones take Graf's expansion at
    # real lambda and the rest the native sum, keep their bits too
    g = geometry.grid(kite, 256)
    sp = SpectralParameter.make(1 + 2j)
    step = bie._SUM_PAIRS // g.N
    rng = np.random.default_rng(7)
    targets = rng.uniform(-2.0, 2.0, size=(6 * step + 1, 2))
    wide = rng.uniform(-6.0, 6.0, size=(6 * step + 1, 2))
    sp_real = SpectralParameter.make(-3.0)  # complex lambda takes no expansion
    assert 0 < bie._graf_plan(sp_real.kappa, g.points, wide).far.mean() < 1
    dens = np.exp(1j * g.nodes) + 0.5 * np.cos(3 * g.nodes)
    F = bie._TRACE_UPSAMPLE
    h = bie.default_h_sequence(kite)
    traces = (g.points[None] + np.concatenate([-h, h])[:, None, None]
              * g.normals[None]).reshape(-1, 2)
    feet, half = bie._window_plan(g, traces, F)
    near = np.flatnonzero(half == half.min())
    width = 2 * half.min() * F + 1
    near = near[:6 * (bie._SUM_PAIRS // width) + 1]
    src, fine, _ = bie._upsampled_density(g, dens, F)
    starts, phi = F * (feet[near] - half.min()), np.linspace(0.0, 1.0, width)
    outputs, counts, pools = [], [], []
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(specfun, "_workers", lambda workers=workers: workers)
            specfun._pool.cache_clear()
            pools.append(specfun._pool())
            counts.append([len(specfun._even_slices(len(targets), step)),
                           len(specfun._even_slices(len(near), bie._SUM_PAIRS // width))])
            outputs.append((bie._kernel_sum(kernel_L, sp, targets, g.points, dens),
                            bie._window_sum(kernel_L, sp, traces[near], src, fine,
                                            starts, phi),
                            bie._eval_layer(g, dens, sp_real, wide, kernel_L, 1)))
    finally:
        specfun._pool.cache_clear()
        for pool in pools:
            pool.shutdown()
    assert counts == [[7, 7], [8, 8], [9, 9]]
    for parts in outputs[1:]:
        for part, first in zip(parts, outputs[0]):
            assert part.tobytes() == first.tobytes()


@pytest.mark.parametrize("lam", [-3.0, 1 + 2j])
def test_kernel_sums_match_an_extended_precision_sum(kite, lam):
    # chunks are reduced by an elementwise product and a pairwise row sum;
    # each row agrees with the long-double sum of the same kernel values to
    # 4 eps of sum_j |K_ij| |v_j|.  At real lambda kernel_U is real.
    sp = SpectralParameter.make(lam)
    g = geometry.grid(kite, 256)
    src, dens, _ = bie._upsampled_density(
        g, np.exp(np.cos(g.nodes) + 0.3j * np.sin(3 * g.nodes)), 16)
    h = bie.default_h_sequence(kite)[0]
    targets = np.concatenate([g.points[::8] - h * g.normals[::8],
                              g.points[::8] + h * g.normals[::8],
                              bie.make_volume_grid(1.5 * kite.diameter, 8).points])
    assert len(targets) * len(src) > 4 * specfun._CHUNK
    eps = np.finfo(float).eps
    for kernel in (kernel_L, kernel_U):
        K = kernel(sp, targets[:, None, :] - src[None, :, :])
        ref = (K.astype(np.clongdouble) * dens.astype(np.clongdouble)).sum(axis=1)
        bound = 4 * eps * (np.abs(K) * np.abs(dens)).sum(axis=1)
        got = bie._kernel_sum(kernel, sp, targets, src, dens)
        assert np.all(np.abs(got - ref) <= bound), kernel.__name__


def test_kernel_sum_chunk_memory(kite):
    # one slice at the largest refinement, 2 near targets x 64 N sources at
    # N = 256, runs inline; kernel_L builds (x1 - i x2)/r in one complex array
    # and scales it in place (5.13 MiB at twice the pairs when it made four
    # complex temporaries, 3.1 MiB at twice the pairs now)
    sp = SpectralParameter.make(-3.0)
    g = geometry.grid(kite, 256)
    src, dens, _ = bie._upsampled_density(g, np.exp(1j * g.nodes), bie._MAX_UPSAMPLE)
    targets = g.points[:2] + 1e-3 * g.normals[:2]
    assert len(targets) * len(src) == bie._SUM_PAIRS
    bie._kernel_sum(kernel_L, sp, targets, src, dens)
    tracemalloc.start()
    try:
        bie._kernel_sum(kernel_L, sp, targets, src, dens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 2 ** 20


_KERNEL_SUM_DIGEST = """
import hashlib, numpy as np
from obliqueshell import bie, geometry, spectral
from obliqueshell.kernels import SpectralParameter, kernel_U
kite = geometry.make_curve("kite")
g = geometry.grid(kite, 128)
sp = SpectralParameter.make(-3.0)
vol = bie.make_volume_grid(6.0, 64)
dens = np.exp(np.cos(g.nodes) + 0.3j * np.sin(3 * g.nodes))
f = np.exp(-(vol.points ** 2).sum(-1) / 8 + 1j * vol.points[:, 0])
assert bie._graf_plan(sp.kappa, g.points, vol.points).far.mean() > 0.5
parts = [bie.eval_Psi(g, dens, sp, vol.points), *bie.jump_traces(g, dens, sp),
         spectral._direct_volume_field(kernel_U, sp, vol, f, g.points)]
print(hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest())
"""


def _digests(script: str, envs: list[dict]) -> list[str]:
    """The SHA-256 digest script prints, from one subprocess per entry of
    envs, each run with this checkout's src and the entry's variables."""
    src = str(pathlib.Path(bie.__file__).resolve().parents[1])
    digests = []
    for extra in envs:
        env = {**os.environ, "PYTHONPATH": src, **extra}
        proc = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
        assert len(digests[-1]) == 64
    return digests


def test_kernel_sums_do_not_depend_on_the_blas_thread_count():
    # pool tasks make no BLAS call, and Graf's expansion at the far volume
    # nodes none either, so the volume and trace sums give the same bits at
    # 1 and 2 BLAS threads with THREADS fixed, also outside a public call's
    # serial BLAS scope
    digests = _digests(_KERNEL_SUM_DIGEST, [{"THREADS": "2", "OPENBLAS_NUM_THREADS": blas}
                                            for blas in ("1", "2")])
    assert digests[0] == digests[1]


_KREIN_DIGEST = """
import hashlib, numpy as np
from obliqueshell import bie, geometry, spectral
from obliqueshell.kernels import SpectralParameter
vol = bie.make_volume_grid(6.0, 64)
f = np.exp(-(vol.points ** 2).sum(-1) / 8 + 1j * vol.points[:, 0])
res = spectral.krein_apply(geometry.make_curve("kite"), -1.0, SpectralParameter.make(-3.0),
                           f, vol, N=64)
print(hashlib.sha256(res.values.tobytes() + res.density.tobytes()).hexdigest())
"""


def test_krein_apply_is_bit_identical_for_any_thread_count():
    # THREADS sizes the kernel-sum pool; the BLAS thread variables are
    # inherited unchanged by both runs
    digests = _digests(_KREIN_DIGEST, [{"THREADS": threads} for threads in ("1", "2")])
    assert digests[0] == digests[1]


_MK_DIGEST = """
import hashlib
from obliqueshell import bie, geometry
from obliqueshell.kernels import SpectralParameter
kite = geometry.make_curve("kite")
W = [bie._single_layer_weights_mk(geometry.grid(kite, N), SpectralParameter.make(lam).kappa)
     for N in (512, 384) for lam in (-5.0, complex(1.0, 2.0))]
assert [w.dtype for w in W] == [float, complex] * 2
print(hashlib.sha256(b"".join(w.tobytes() for w in W)).hexdigest())
"""


def test_mk_assembly_is_bit_identical_for_any_thread_count(monkeypatch):
    # the MK triangle runs as slices on the pool, cut by the worker count
    # that THREADS sets; each weight is computed elementwise, so the real
    # and complex kappa weights at N = 512 have the same bits at 1 and 2
    # workers.  At N = 384 the two counts cut the triangle differently
    cuts = []
    for workers in (1, 2):
        monkeypatch.setattr(specfun, "_workers", lambda: workers)
        cuts.append(specfun._even_slices(384 * 383 // 2, bie._MK_PAIRS))
    assert len(cuts[0]) > 1 and cuts[0] != cuts[1]
    monkeypatch.undo()
    digests = _digests(_MK_DIGEST, [{"THREADS": threads} for threads in ("1", "2")])
    assert digests[0] == digests[1]


needs_blas_setter = pytest.mark.skipif(
    not specfun._blas_setters(),
    reason="no OpenBLAS with openblas_set_num_threads_local in this process")

_KREIN_256_DIGEST = """
import hashlib, numpy as np
from obliqueshell import bie, geometry, spectral
from obliqueshell.kernels import SpectralParameter
vol = bie.make_volume_grid(6.0, 32)
f = np.exp(-(vol.points ** 2).sum(-1) / 8 + 1j * vol.points[:, 0])
res = spectral.krein_apply(geometry.make_curve("kite"), -1.0, SpectralParameter.make(-3.0),
                           f, vol, N=256)
print(hashlib.sha256(res.values.tobytes() + res.density.tobytes()).hexdigest())
"""

_SPECTRUM_DIGEST = """
import hashlib, os, tempfile
from obliqueshell import cli
out = os.path.join(tempfile.mkdtemp(), "spectrum.json")
assert cli.main(["spectrum", "--curve", "kite", "--alpha", "-1", "--count", "2",
                 "--N", "512", "--out", out]) == 0
print(hashlib.sha256(open(out, "rb").read()).hexdigest())
"""


@needs_blas_setter
@pytest.mark.parametrize("script", [_KREIN_256_DIGEST, _SPECTRUM_DIGEST],
                         ids=["krein_apply_N256", "spectrum_json"])
def test_lapack_results_do_not_depend_on_the_blas_thread_count(script):
    # the public call runs BLAS on one thread, so krein_apply's N x N solve
    # and the spectrum's eigensolves give the same bits at 1 and 2 BLAS
    # threads (both differed before the serial scope)
    digests = _digests(script, [{"THREADS": "2", "OPENBLAS_NUM_THREADS": blas}
                                for blas in ("1", "2")])
    assert digests[0] == digests[1]


def _blas_counts() -> list[int]:
    """The thread count of each OpenBLAS build the serial scope sets, read
    by setting it to 1 and back."""
    counts = []
    for setter in specfun._blas_setters():
        count = setter(1)
        setter(count)
        counts.append(count)
    return counts


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS build at 2 threads for the test, restored after it."""
    setters = specfun._blas_setters()
    before = [setter(2) for setter in setters]
    yield [2] * len(setters)
    for setter, count in zip(setters, before):
        setter(count)


@needs_blas_setter
def test_public_calls_run_blas_serially_and_restore_the_count(
        monkeypatch, kite, circle, circle_roots, two_blas_threads):
    serial = [1] * len(two_blas_threads)
    inside = []
    assemble = bie.assemble_S
    monkeypatch.setattr(bie, "assemble_S",
                        lambda *a: inside.append(_blas_counts()) or assemble(*a))
    # a normal return
    spectral.enumerate_spectrum(kite, -1.0, 2, N=64)
    assert inside and all(counts == serial for counts in inside)
    assert _blas_counts() == two_blas_threads
    # an exception raised inside the call
    inside.clear()
    vol = bie.make_volume_grid(2.0, 16)
    lam1 = circle_roots["oblique_roots_per_fourier_order"]["-1.0"][0]
    with pytest.raises(PoleProximityError):
        spectral.krein_apply(circle, -1.0, SpectralParameter.make(lam1),
                             np.ones(len(vol.points)), vol, N=128)
    assert inside == [serial]
    assert _blas_counts() == two_blas_threads
    # nested scopes: an inner public call's exit leaves the outer call serial
    after_inner = []
    correction = dirac.dirac_correction

    def recorded(*args, **kwargs):
        norm = correction(*args, **kwargs)
        after_inner.append(_blas_counts())
        return norm

    monkeypatch.setattr(dirac, "dirac_correction", recorded)
    dirac.correction_convergence(kite, -1.0, 1j, [16, 64], N=32, probe_n=8)
    assert after_inner == [serial, serial]
    assert _blas_counts() == two_blas_threads


@needs_blas_setter
def test_overlapping_calls_on_two_threads_restore_the_count(monkeypatch, kite,
                                                             two_blas_threads):
    # the first call to end leaves the second serial; the last restores
    barrier = threading.Barrier(2, timeout=60)
    first_done = threading.Event()
    role = threading.local()
    seen = {}
    mu_n = spectral._mu_n

    def waiting(*args):
        if role.name not in seen:
            barrier.wait()  # both calls are open
            if role.name == "second":
                assert first_done.wait(60)
            seen[role.name] = _blas_counts()
        return mu_n(*args)

    def run(name):
        role.name = name
        spectral.enumerate_spectrum(kite, -1.0, 2, N=64)
        if name == "first":
            first_done.set()

    monkeypatch.setattr(spectral, "_mu_n", waiting)
    with ThreadPoolExecutor(max_workers=2) as ex:
        for future in [ex.submit(run, name) for name in ("first", "second")]:
            future.result()
    assert seen == {"first": [1] * len(two_blas_threads),
                    "second": [1] * len(two_blas_threads)}
    assert _blas_counts() == two_blas_threads

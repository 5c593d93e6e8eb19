import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.integrate

from obliqueshell import bie, geometry
from obliqueshell.errors import (
    ConfigurationError,
    DomainError,
    SingularityError,
)
from obliqueshell.kernels import (
    DiracParameter,
    SpectralParameter,
    kernel_dzbar_U,
    kernel_L,
    kernel_U,
)
from obliqueshell.specfun import EULER_GAMMA, bessel_ik_int, bessel_k


def test_log_quadrature_weights_reproduce_log_integral():
    # the circulant weights integrate f(t) log(4 sin^2((t0 - t)/2)) exactly
    # for trigonometric polynomials; check against the known value for f = cos
    N = 32
    R = bie.log_quadrature_weights(N)
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
    sym = S.symmetrized()
    assert np.linalg.norm(sym - sym.T) <= 1e-10 * np.linalg.norm(sym)
    vals = S.eigenvalues_desc()
    assert np.all(vals > 0)


def _mk_reference(g, kappa):
    """The Martensen-Kussmaul weights on the full N x N grid: every pair
    (i, j) evaluated on its own, in the order of the scheme's formula."""
    N = g.N
    r = bie._pairwise_r(g.points)
    theta = g.nodes[:, None] - g.nodes[None, :]
    off = ~np.eye(N, dtype=bool)
    real_path = kappa.imag == 0
    arg = kappa.real * r if real_path else kappa * r
    A = -bie.bessel_i_array(0, arg) / (4 * np.pi)
    ln4sin2 = np.zeros_like(r)
    ln4sin2[off] = np.log(4 * np.sin(theta[off] / 2) ** 2)
    B = np.zeros_like(A, dtype=float if real_path else complex)
    kern = np.zeros_like(B)
    kern[off] = bie.bessel_k_array(0, arg[off]) / (2 * np.pi)
    B[off] = kern[off] - A[off] * ln4sin2[off]
    diag = -(np.log(kappa / 2) + EULER_GAMMA + np.log(g.jacobians)) / (2 * np.pi)
    np.fill_diagonal(B, diag.real if real_path else diag)
    return bie.log_quadrature_weights(N) * A + g.weight * B


@pytest.mark.parametrize("N", [64, 512])
def test_mk_weights_symmetric_and_match_full_reference(kite, mirror_free, N):
    # the kernel is evaluated on the strict lower triangle and mirrored:
    # W is exactly symmetric, and its lower triangle, the part LAPACK's
    # symmetric eigensolvers read, is bit-identical to the full reference
    low = np.tril_indices(N)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, N)
        for kappa in (0.8 / curve.diameter, 5.0 / curve.diameter,
                      complex(1.2, -0.7), complex(0.3, 2.5)):
            kappa = complex(kappa)
            W = bie._single_layer_weights_mk(g, kappa)
            assert np.array_equal(W, W.T), (curve.name, kappa)
            ref = _mk_reference(g, kappa)
            assert W.dtype == ref.dtype
            assert np.array_equal(W[low], ref[low]), (curve.name, kappa)
            # the reference's upper triangle differs only by the rounding of
            # the log weights R[i, j] = col[i - j] against col[N + i - j]
            assert np.abs(W - ref).max() <= 1e-12 * np.abs(ref).max()


def test_mk_blocks_are_built_once_per_grid(monkeypatch, kite):
    built = []
    build = bie._build_mk_blocks
    monkeypatch.setattr(bie, "_build_mk_blocks", lambda g: built.append(g) or build(g))
    g = geometry.grid(kite, 64)
    for lam in (-0.5, -2.0, 1j):
        bie.assemble_S(g, SpectralParameter.make(lam))
    assert built == [g]
    # a new grid on the same curve builds its own
    bie.assemble_S(geometry.grid(kite, 64), SpectralParameter.make(-1.0))
    assert len(built) == 2


def test_both_assembly_paths_agree_in_overlap(circle, ellipse, kite):
    # Re(kappa) * diameter = 5 < log2(128): the global splitting path is
    # valid, so the graded-panel local path must reproduce it.  The circle's
    # rotational symmetry hides pairing errors between the two sides of the
    # singular node, so the ellipse and the kite are checked as well.
    for curve in (circle, ellipse, kite):
        g = geometry.grid(curve, 128)
        kappa = 5.0 / curve.diameter
        W_mk = bie._single_layer_weights_mk(g, kappa)
        W_loc = bie._single_layer_weights_local(g, kappa)
        # the two quadrature rules differ entrywise but must agree as operators
        for m in (0, 1, 3):
            d = np.exp(1j * m * g.nodes)
            a, b = W_mk @ d, W_loc @ d
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a), curve.name
        ev_mk, ev_loc = (
            bie.BoundaryOperatorMatrix(W * g.jacobians[None, :], g)
            .eigenvalues_desc(8) for W in (W_mk, W_loc))
        assert np.allclose(ev_mk, ev_loc, rtol=1e-8), curve.name


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
    # the local product-integration path must stay accurate deep beyond the
    # validity range of the global splitting
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
        assert S.operator_norm() <= bound


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
    assert out[0] == pytest.approx(bessel_k(0, 3.0), rel=1e-12)


def test_eval_SL_kite_against_adaptive_quadrature(kite):
    g = geometry.grid(kite, 128)
    sp = SpectralParameter.make(-2.0)
    x = np.array([3.0, 1.0])  # well off the curve

    def integrand(t):
        p = kite.point(np.array([t]))[0]
        r = np.hypot(x[0] - p[0], x[1] - p[1])
        return bessel_k(0, sp.kappa * r).real / (2 * np.pi) * kite.jacobian(
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
    vol = bie.make_volume_grid(2.0, 4, center=(1.0, 0.0))
    assert vol.shape == (4, 4)
    assert vol.h == pytest.approx(1.0)
    assert vol.weight == pytest.approx(1.0)
    assert vol.xs[0] == pytest.approx(-0.5)
    assert len(vol.points) == 16
    with pytest.raises(ConfigurationError):
        bie.make_volume_grid(-1.0, 4)
    with pytest.raises(ConfigurationError):
        bie.make_volume_grid(1.0, 1)


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
    psi_phi = bie.eval_Psi(g, phi, sp, vol.points, upsample=2)
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
    from scipy import special

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


@pytest.mark.parametrize("lam", [-3.0, -97.5, 1 + 2j])
def test_far_targets_match_upsampled_reference(kite, mirror_free, lam):
    # targets >= 8 node spacings from the curve are summed on the native
    # nodes and must agree pointwise with an upsample=16 sum; nearer targets
    # keep the caller's upsample.  Sets: all near (trace offsets), all far,
    # and both mixed.
    sp = SpectralParameter.make(lam)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 128)
        dens = np.exp(np.cos(g.nodes) + 1j * np.sin(2 * g.nodes))
        far_limit = 8 * g.weight * g.jacobians.max()
        h = bie.default_h_sequence(curve)[0]
        traces = np.concatenate([g.points - h * g.normals, g.points + h * g.normals])
        mixed = np.concatenate([bie.make_volume_grid(1.5 * curve.diameter, 16).points,
                                traces])
        far = bie._check_points_off_curve(g, mixed) >= far_limit
        assert far.sum() > 100 and not far[-len(traces):].any()
        for evaluator, kernel in ((bie.eval_Psi, kernel_L), (bie.eval_SL, kernel_U)):
            ref = _upsampled_reference(g, dens, sp, mixed, kernel, 16)
            for rows in (np.arange(len(mixed)), np.arange(len(mixed) - len(traces),
                                                          len(mixed)), np.flatnonzero(far)):
                got = evaluator(g, dens, sp, mixed[rows], upsample=16)
                assert np.all(np.abs(got - ref[rows]) <= 1e-12 * np.abs(ref[rows])), \
                    (curve.name, lam, kernel.__name__)


@pytest.mark.parametrize("upsample", [2.5, 4.0, 0, -3, "4"])
def test_upsample_must_be_a_positive_integer(circle, upsample):
    g = geometry.grid(circle, 32)
    sp = SpectralParameter.make(-1.0)
    pts = np.array([[2.0, 0.5]])
    for call in (lambda: bie.eval_SL(g, np.ones(g.N), sp, pts, upsample=upsample),
                 lambda: bie.eval_Psi(g, np.ones(g.N), sp, pts, upsample=upsample),
                 lambda: bie.eval_dzbar_Psi(g, np.ones(g.N), sp, pts, upsample=upsample)):
        with pytest.raises(ConfigurationError, match="upsample"):
            call()


def test_worker_count_from_threads(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    monkeypatch.delenv("THREADS", raising=False)
    assert bie._workers() == cores
    for value, expect in (("1", 1), ("", cores), (str(10 ** 6), cores)):
        monkeypatch.setenv("THREADS", value)
        assert bie._workers() == expect
    for value in ("0", "-2", "2.5", "two"):
        monkeypatch.setenv("THREADS", value)
        with pytest.raises(ConfigurationError, match=repr(value)):
            bie._workers()


def test_kernel_sums_do_not_depend_on_the_pool(kite, monkeypatch):
    # inputs spanning many chunks give the same bits on 1, 2 and 4 workers
    # (4 > cores), with a short switch interval to shake out lost writes
    g = geometry.grid(kite, 256)
    sp = SpectralParameter.make(-3.0)
    vol = bie.make_volume_grid(2 * kite.diameter, 48)
    f = np.exp(-(vol.points ** 2).sum(-1)) * np.exp(1j * vol.points[:, 0])
    dens = np.exp(1j * g.nodes)
    assert len(vol.points) * g.N > 8 * bie._CHUNK_PAIRS
    outputs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                monkeypatch.setattr(bie, "_pool", lambda: pool)
                outputs.append((bie._kernel_sum(kernel_L, sp, vol.points, g.points, dens),
                                bie.apply_Psi_star(g, sp, f, vol)))
    finally:
        sys.setswitchinterval(interval)
    for sums, adjoint in outputs[1:]:
        assert sums.tobytes() == outputs[0][0].tobytes()
        assert adjoint.tobytes() == outputs[0][1].tobytes()


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
    src = str(pathlib.Path(bie.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _KREIN_DIGEST], env=env, text=True,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1] and len(digests[0]) == 64

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from obliqueshell import bie, dirac, geometry, kernels, specfun
from obliqueshell.errors import DomainError, ParameterError
from obliqueshell.kernels import (
    DiracParameter,
    SpectralParameter,
    branch_sqrt,
    kernel_G,
    kernel_L,
)

#: the spinor matrices of the limit: M2 shifts the second component to the
#: first, M3 projects onto the second
M2 = np.array([[0, 1], [0, 0]], dtype=complex)
M3 = np.array([[0, 0], [0, 1]], dtype=complex)


def test_real_lambda_rejected(circle):
    with pytest.raises(DomainError):
        next(dirac._gap_rows(circle, -1.0, [16.0], 128, None, False))
    with pytest.raises(DomainError):
        dirac.dirac_correction(circle, -1.0, -1.0, 16.0)


def _spinor_flatten(K):
    """(M, N, 2, 2) kernel blocks -> (2M, 2N) matrix, component-major."""
    M, N = K.shape[:2]
    return K.transpose(2, 0, 3, 1).reshape(2 * M, 2 * N)


def test_compression_resolvent_identity(circle, kite):
    # the correction's Dirac factors on the live M3 block, as dirac_correction
    # forms them, equal the full spinor formula
    # c Phi_z P3 (I - alpha c^2 M3 C_z M3)^-1 alpha c P3 Phi*_zbar with 2N x 2N
    # padded boundary matrices
    alpha, c, lam = -1.0, 8.0, 1 + 2j
    for curve in (circle, kite):
        g = geometry.grid(curve, 32)
        vol = bie.make_volume_grid(1.5 * curve.diameter, 8)  # the probe volume
        N = g.N
        w_b = g.weight * g.jacobians
        dp = DiracParameter.shifted(lam, c)
        dp_bar = DiracParameter.shifted(np.conj(lam), c)
        M3CM3 = bie.assemble_M3CM3(g, dp).entries
        C = np.zeros((2 * N, 2 * N), dtype=complex)
        C[N:, N:] = M3CM3
        P3 = np.zeros((2 * N, 2 * N))
        P3[N:, N:] = np.eye(N)
        diff = vol.points[:, None, :] - g.points[None, :, :]
        phi = _spinor_flatten(kernel_G(dp, diff) * w_b[None, :, None, None])
        GH = np.conj(np.swapaxes(kernel_G(dp_bar, diff), -1, -2))
        phi_star = _spinor_flatten(np.swapaxes(GH, 0, 1)) * vol.weight
        R = np.linalg.inv(np.eye(2 * N) - alpha * c ** 2 * C)
        ref = (c * phi) @ P3 @ R @ (alpha * c * P3 @ phi_star)

        phi_z, phi_zbar = dirac._phi_m3_sides(
            dp, dirac._probes(SpectralParameter.make(lam), g, vol.points))
        live = (c * phi_z * w_b) @ np.linalg.solve(
            np.eye(N) - alpha * c ** 2 * M3CM3,
            alpha * c * np.conj(phi_zbar).T * vol.weight)
        assert live.shape == ref.shape
        err = np.linalg.norm(live - ref)
        assert err <= 1e-12 * np.linalg.norm(ref), curve.name


def test_gap_phistar_is_adjoint_at_conjugate_parameters(mirror_free):
    # on a curve without a mirror axis, gap (c) taken at (zbar, lambdabar)
    # differs from gap (b) at (z, lambda)
    curve = mirror_free
    vol = bie.make_volume_grid(3 * curve.diameter, 24)
    lam, c = 1j, 8.0
    _, phi, phistar, _ = next(dirac._gap_rows(curve, lam, [c], 64, vol, False))
    # reference: the adjoint kernel c M3 G*_zbar - M2^T conj(L_lambdabar),
    # volume index -> boundary index, with both quadrature weights
    g = geometry.grid(curve, 64)
    dp_bar = DiracParameter.shifted(np.conj(lam), c)
    sp_bar = SpectralParameter.make(np.conj(lam))
    diff = vol.points[:, None, :] - g.points[None, :, :]
    GH = np.conj(np.swapaxes(kernel_G(dp_bar, diff), -1, -2))
    K = c * (M3 @ GH) - np.conj(kernel_L(sp_bar, diff))[..., None, None] * M2.T
    A = _spinor_flatten(np.swapaxes(K, 0, 1)) * np.sqrt(vol.weight)
    A *= np.sqrt(np.tile(g.weight * g.jacobians, 2))[:, None]
    ref = np.linalg.svd(A, compute_uv=False)[0]
    assert phistar == pytest.approx(ref, rel=1e-12)
    assert abs(phistar - phi) >= 1e-8 * phi


def test_gap_sequences_decrease_with_c(circle):
    vol = bie.make_volume_grid(3.0, 24)
    g1 = next(dirac._gap_rows(circle, 1j, [8.0], 64, vol, False))
    g2 = next(dirac._gap_rows(circle, 1j, [32.0], 64, vol, False))
    for a, b in zip(g1, g2):
        assert b < a
        assert a > 0 and np.isfinite(a)


def test_limit_study_slopes(circle):
    vol = bie.make_volume_grid(3.0, 24)
    res = dirac.nonrel_limit_study(circle, 1j, [8.0, 32.0, 128.0], N=64,
                                   volume_box=vol)
    # boundary-volume and volume gaps decay like 1/c, the boundary-boundary
    # gap like 1/c^2
    for name in ("a0", "phi", "phistar"):
        assert -1.4 <= res.slopes[name] <= -0.7, (name, res.slopes)
    assert res.slopes["c"] <= -1.7
    rows = list(res.csv_rows())
    assert rows[0] == "c,gap_a0,gap_phi,gap_phistar,gap_c"
    assert len(rows) == 4
    assert "slopes" in res.to_json()


def test_limit_study_needs_two_speeds(circle):
    with pytest.raises(ParameterError):
        dirac.nonrel_limit_study(circle, 1j, [8.0])


@pytest.mark.parametrize("c_values", [[16.0], [16.0, 16.0]])
def test_slope_fits_need_two_distinct_speeds(circle, c_values):
    with pytest.raises(ParameterError):
        dirac.correction_convergence(circle, -1.0, 1j, c_values)
    with pytest.raises(ParameterError):
        dirac.nonrel_limit_study(circle, 1j, c_values)


def test_gap_resolution_stability(circle):
    # doubling the boundary resolution moves the gaps by < 5%
    vol = bie.make_volume_grid(3.0, 24)
    a = next(dirac._gap_rows(circle, 1j, [16.0], 64, vol, False))
    b = next(dirac._gap_rows(circle, 1j, [16.0], 128, vol, False))
    for x, y in zip(a, b):
        assert abs(x - y) <= 0.05 * abs(x)


def test_correction_zero_coupling(circle):
    assert dirac.dirac_correction(circle, 0.0, 1j, 16.0, N=48, probe_n=10) == 0.0


@pytest.mark.parametrize("lam", [1j, 1 + 2j])
@pytest.mark.parametrize("c", [8.0, 64.0, 256.0])
def test_difference_norm_matches_dense_norm(circle, kite, mirror_free, lam, c):
    # the norm taken from the rank <= 2N factors equals that of dense 2M x 2M
    # kernels built here independently; at c = 256, K_D - K_S is smallest
    # relative to its factors.  The Dirac side comes from the full spinor
    # formula c Phi_z P3 (I - alpha c^2 M3 C_z M3)^-1 alpha c P3 Phi*_zbar with
    # 2N x 2N padded boundary matrices, the limit side
    # Psi M2 (I - alpha lambda S)^-1 alpha M2^T Psi*_lambdabar from kernel_L
    alpha = -1.0
    for curve in (circle, kite, mirror_free):
        g = geometry.grid(curve, 32)
        vol = bie.make_volume_grid(1.5 * curve.diameter, 8)  # the probe volume
        N, M = g.N, len(vol.points)
        w_b = g.weight * g.jacobians
        dp = DiracParameter.shifted(lam, c)
        dp_bar = DiracParameter.shifted(np.conj(lam), c)
        C = np.zeros((2 * N, 2 * N), dtype=complex)
        C[N:, N:] = bie.assemble_M3CM3(g, dp).entries
        P3 = np.zeros((2 * N, 2 * N))
        P3[N:, N:] = np.eye(N)
        diff = vol.points[:, None, :] - g.points[None, :, :]
        phi = _spinor_flatten(kernel_G(dp, diff) * w_b[None, :, None, None])
        GH = np.conj(np.swapaxes(kernel_G(dp_bar, diff), -1, -2))
        phi_star = _spinor_flatten(np.swapaxes(GH, 0, 1)) * vol.weight
        R = np.linalg.inv(np.eye(2 * N) - alpha * c ** 2 * C)
        K_dirac = (c * phi) @ P3 @ R @ (alpha * c * P3 @ phi_star)

        sp = SpectralParameter.make(lam)
        psi = kernel_L(sp, diff) * w_b
        psi_star = np.conj(kernel_L(sp.conjugate, diff)).T * vol.weight
        S = bie.assemble_S(g, sp).entries
        K_schrod = np.zeros_like(K_dirac)
        K_schrod[:M, :M] = psi @ np.linalg.solve(np.eye(N) - alpha * lam * S,
                                                 alpha * psi_star)

        dense = vol.weight * np.linalg.norm(K_dirac - K_schrod, 2)
        got = dirac.dirac_correction(curve, alpha, lam, c, N=32, probe_n=8)
        assert got == pytest.approx(dense, rel=1e-12), curve.name


def test_no_bessel_array_is_evaluated_twice(kite, monkeypatch):
    # every K_0/K_1 array is evaluated once per (kappa, geometry); the
    # (zbar, lambdabar) side conjugates the (z, lambda) side's arrays, and
    # every speed takes its K_0/K_1 from the probes' set at kappa(lambda)
    seen, repeats, calls = set(), [], []
    original = specfun.bessel_k_array

    def recording(order, z):
        z = np.asarray(z)
        key = (order, z.shape, z.tobytes())
        if key in seen or (order, z.shape, np.conj(z).tobytes()) in seen:
            repeats.append((order, z.shape))
        seen.add(key)
        calls.append(z.shape)
        return original(order, z)

    for mod in (specfun, kernels, bie):
        monkeypatch.setattr(mod, "bessel_k_array", recording)
    vol = bie.make_volume_grid(3 * kite.diameter, 16)
    study = dirac.nonrel_limit_study(kite, 1j, [8, 16], N=32, volume_box=vol)
    assert seen and repeats == []
    # a third speed adds no Bessel array on the probe-node pairs
    probe_pairs = (len(vol.points), 32)
    two_speeds = calls.count(probe_pairs)
    seen.clear()
    calls.clear()
    dirac.nonrel_limit_study(kite, 1j, [8, 16, 32], N=32, volume_box=vol)
    assert repeats == []
    assert two_speeds > 0 and calls.count(probe_pairs) == two_speeds
    seen.clear()
    dirac.dirac_correction(kite, -1.0, 1j, 16, N=32, probe_n=8)
    assert seen and repeats == []
    # a one-speed gap row is the study's row, bit for bit
    for i, c in enumerate(study.c_values):
        row = next(dirac._gap_rows(kite, 1j, [c], 32, vol, False))
        assert row == tuple(study.gaps()[k][i] for k in ("a0", "phi", "phistar", "c"))


def _phi_m3_reference(dp, x):
    G = kernel_G(dp, x)
    return np.concatenate([G[..., 0, 1], G[..., 1, 1]])


@pytest.mark.parametrize("lam", [1j, 1 + 2j])
def test_multiplication_series_matches_bessel_arrays(kite, mirror_free, lam):
    # K_0/K_1 at kappa(z) r from the probes' set at kappa(lambda) r agree
    # pointwise with bessel_k_array there; the error is that of rounding the
    # argument, about eps |w| |K_1/K_0|
    sp = SpectralParameter.make(lam)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 64)
        vol = bie.make_volume_grid(3 * curve.diameter, 24)
        pr = dirac._probes(sp, g, vol.points)
        assert np.array_equal(pr.k0, specfun.bessel_k_array(0, sp.kappa * pr.r))
        assert np.array_equal(pr.k1, specfun.bessel_k_array(1, sp.kappa * pr.r))
        for c in (8.0, 16.0, 64.0, 256.0):
            dp = DiracParameter.shifted(lam, c)
            terms = dirac._series_terms(dp, pr)
            assert terms is not None and terms <= 20, (curve.name, c, terms)
            got = np.empty((2,) + pr.r.shape, dtype=complex)
            specfun._k01_multiplication(dp.kappa / sp.kappa, sp.kappa * pr.r,
                                        pr.k0, pr.k1, terms, *got)
            for order, k in enumerate(got):
                ref = specfun.bessel_k_array(order, dp.kappa * pr.r)
                err = np.max(np.abs(k - ref) / np.abs(ref))
                assert err <= 1e-14, (curve.name, c, order, err)


def test_slow_speeds_take_the_bessel_array_path(mirror_free):
    # at c = 1, 2 (|1 - mu^2| = 1, 1/4) the series does not pay; Phi M3 is
    # kernel_G's bit for bit, and so are the gaps of blocks built from it
    lam, N = 1j, 64
    sp = SpectralParameter.make(lam)
    g = geometry.grid(mirror_free, N)
    vol = bie.make_volume_grid(3 * mirror_free.diameter, 24)
    pr = dirac._probes(sp, g, vol.points)
    for c in (1.0, 2.0):
        dp = DiracParameter.shifted(lam, c)
        dp_bar = DiracParameter.make(np.conj(dp.lam), c)
        assert dirac._series_terms(dp, pr) is None
        row = next(dirac._gap_rows(mirror_free, lam, [c], N, vol, False))
        for side, p, L, gap in zip(dirac._phi_m3_sides(dp, pr), (dp, dp_bar),
                                   (pr.L, pr.L_bar), row[1:3]):
            phi = _phi_m3_reference(p, pr.x)
            assert np.array_equal(side, phi)
            A = c * phi
            A[:len(vol.points)] -= L
            A *= np.sqrt(g.weight * g.jacobians)[None, :]
            A *= np.sqrt(vol.weight)
            assert gap == float(np.sqrt(np.linalg.eigvalsh(A.conj().T @ A)[-1]))


@pytest.mark.parametrize("lam", [1j, 1 + 2j])
def test_conjugate_side_equals_direct_evaluation(mirror_free, lam):
    # the (zbar, lambdabar) blocks built from conjugated K_0/K_1 arrays are
    # those of kernel_G and kernel_L evaluated there: bit for bit for L and
    # on the bessel_k_array path (c = 2), to the series' rounding (c = 8, 64)
    # (the 24^2-probe box gives arrays above numpy's 256 kB threshold for
    # reusing temporaries in place, where operand order can change bits)
    curve = mirror_free
    g = geometry.grid(curve, 32)
    sp = SpectralParameter.make(lam)
    for n in (8, 24):
        vol = bie.make_volume_grid(1.5 * curve.diameter, n)
        pr = dirac._probes(sp, g, vol.points)
        assert np.array_equal(pr.L, kernel_L(sp, pr.x))
        assert np.array_equal(pr.L_bar, kernel_L(sp.conjugate, pr.x))
        for c in (2.0, 8.0, 64.0):
            dp = DiracParameter.shifted(lam, c)
            dp_bar = DiracParameter.make(np.conj(dp.lam), c)
            series = dirac._series_terms(dp, pr) is not None
            assert series == (c > 2)
            for side, p in zip(dirac._phi_m3_sides(dp, pr), (dp, dp_bar)):
                ref = _phi_m3_reference(p, pr.x)
                if series:
                    assert np.max(np.abs(side - ref)) <= 1e-14 * np.max(np.abs(ref))
                else:
                    assert np.array_equal(side, ref)


def test_phi_m3_sides_hold_little_beyond_their_outputs(kite, monkeypatch):
    # the series runs in row chunks that write both sides in place: on the
    # gap study's 48^2 x 128 probe set, the peak over the call is the two
    # (2M, N) outputs and a few chunk temporaries per worker
    g = geometry.grid(kite, 128)
    vol = bie.make_volume_grid(3.0 * kite.diameter, 48)  # the gap study's box
    pr = dirac._probes(SpectralParameter.make(1j), g, vol.points)
    dp = DiracParameter.shifted(1j, 8.0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        monkeypatch.setattr(specfun, "_pool", lambda: pool)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sides = tuple(dirac._phi_m3_sides(dp, pr))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    outputs = sum(side.nbytes for side in sides)
    assert outputs == 2 * (2 * 48 ** 2 * 128) * 16
    assert peak <= outputs + 8 * 2 ** 20, (peak - outputs) / 2 ** 20


@pytest.mark.parametrize("c", [8.0, 128.0])
def test_gap_phi_from_gram_matrix_equals_svd(kite, mirror_free, c):
    # sigma_max from the N x N Gram matrix equals the SVD's on the same
    # weighted 2M x N block, on both sides (gap (b) at (z, lambda), gap (c)
    # at (zbar, lambdabar))
    lam = 1j
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 64)
        vol = bie.make_volume_grid(3 * curve.diameter, 24)
        pr = dirac._probes(SpectralParameter.make(lam), g, vol.points)
        sides = dirac._phi_m3_sides(DiracParameter.shifted(lam, c), pr)
        for phi, L in zip(sides, (pr.L, pr.L_bar)):
            A = c * phi
            A[:len(vol.points)] -= L
            A *= np.sqrt(g.weight * g.jacobians * vol.weight)[None, :]
            ref = np.linalg.svd(A, compute_uv=False)[0]
            got = dirac._gap_phi(c, phi, L, g, vol)
            assert abs(got - ref) <= 1e-13 * ref, (curve.name, c)


def test_correction_reference_block_structure(circle):
    assert dirac.dirac_correction(circle, -1.0, 1j, 16.0, N=48, probe_n=10) > 0


def test_correction_convergence_rate(circle):
    norms, slope = dirac.correction_convergence(
        circle, -1.0, 1j, [16.0, 64.0], N=64, probe_n=12)
    assert norms[1] < norms[0]
    assert slope <= -0.8


def _shifted_roots(lam, c):
    """sqrt(lambda + t lambda^2 / c^2) at 201 points t of [0, 1]."""
    return np.array([branch_sqrt(lam + t * lam * lam / c ** 2)
                     for t in np.linspace(0.0, 1.0, 201)])


def test_sqrt_shift_bounds_hold():
    # |sqrt(lambda)|/2 <= |sqrt(lambda + t lambda^2/c^2)| <= 3|sqrt(lambda)|/2
    # and Im sqrt(lambda + t lambda^2/c^2) >= Im sqrt(lambda)/2 on t in [0, 1]
    for lam, c in ((1j, 100.0), (1 + 1j, 10.0)):
        roots, base = _shifted_roots(lam, c), branch_sqrt(lam)
        assert np.abs(roots).min() >= abs(base) / 2
        assert np.abs(roots).max() <= 1.5 * abs(base)
        assert roots.imag.min() >= base.imag / 2
    # ratio of the shifted to unshifted root approaches 1 as c grows
    big = np.abs(_shifted_roots(1 + 1j, 1e6)).max() / abs(branch_sqrt(1 + 1j))
    assert big == pytest.approx(1.0, abs=1e-10)

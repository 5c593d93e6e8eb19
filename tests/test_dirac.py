import numpy as np
import pytest

from obliqueshell import bie, dirac, geometry, kernels, specfun
from obliqueshell.errors import DomainError, ParameterError
from obliqueshell.kernels import (
    M2,
    M3,
    DiracParameter,
    SpectralParameter,
    kernel_G,
    kernel_L,
)


def test_real_lambda_rejected(circle):
    with pytest.raises(DomainError):
        dirac.limit_gaps(circle, -1.0, 16.0)
    with pytest.raises(DomainError):
        dirac.dirac_correction(circle, -1.0, -1.0, 16.0)
    with pytest.raises(DomainError):
        dirac.sqrt_shift_bounds(-1.0, 16.0)


def _spinor_flatten(K):
    """(M, N, 2, 2) kernel blocks -> (2M, 2N) matrix, component-major."""
    M, N = K.shape[:2]
    return K.transpose(2, 0, 3, 1).reshape(2 * M, 2 * N)


def _mirror_free_curve():
    return geometry.make_curve("custom", x_coeffs=[0, 0.5, 0.1 + 0.05j],
                               y_coeffs=[0, -0.5j, 0.08 + 0.03j])


def test_compression_resolvent_identity(circle, kite):
    # the correction kernel on the live M3 block equals the full spinor formula
    # c Phi_z P3 (I - alpha c^2 M3 C_z M3)^-1 alpha c P3 Phi*_zbar with 2N x 2N
    # padded boundary matrices
    alpha, c, lam = -1.0, 8.0, 1 + 2j
    for curve in (circle, kite):
        blocks = dirac.dirac_correction(curve, alpha, lam, c, N=32, probe_n=8)
        g = geometry.grid(curve, 32)
        vol = bie.make_volume_grid(1.5 * curve.diameter, 8)  # the probe volume
        N = g.N
        dp = DiracParameter.shifted(lam, c)
        dp_bar = DiracParameter.shifted(np.conj(lam), c)
        C = np.zeros((2 * N, 2 * N), dtype=complex)
        C[N:, N:] = bie.assemble_M3CM3(g, dp).entries
        P3 = np.zeros((2 * N, 2 * N))
        P3[N:, N:] = np.eye(N)
        diff = vol.points[:, None, :] - g.points[None, :, :]
        phi = _spinor_flatten(kernel_G(dp, diff)
                              * (g.weight * g.jacobians)[None, :, None, None])
        GH = np.conj(np.swapaxes(kernel_G(dp_bar, diff), -1, -2))
        phi_star = _spinor_flatten(np.swapaxes(GH, 0, 1)) * vol.weight
        R = np.linalg.inv(np.eye(2 * N) - alpha * c ** 2 * C)
        ref = (c * phi) @ P3 @ R @ (alpha * c * P3 @ phi_star)
        assert blocks.dirac_kernel.shape == ref.shape
        err = np.linalg.norm(blocks.dirac_kernel - ref)
        assert err <= 1e-12 * np.linalg.norm(ref), curve.name


def test_gap_phistar_is_adjoint_at_conjugate_parameters():
    # on a curve without a mirror axis, gap (c) taken at (zbar, lambdabar)
    # differs from gap (b) at (z, lambda)
    curve = _mirror_free_curve()
    vol = bie.make_volume_grid(3 * curve.diameter, 24)
    lam, c = 1j, 8.0
    _, phi, phistar, _ = dirac.limit_gaps(curve, lam, c, N=64, volume_box=vol)
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
    g1 = dirac.limit_gaps(circle, 1j, 8.0, N=64,
                          volume_box=bie.make_volume_grid(3.0, 24))
    g2 = dirac.limit_gaps(circle, 1j, 32.0, N=64,
                          volume_box=bie.make_volume_grid(3.0, 24))
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
    a = dirac.limit_gaps(circle, 1j, 16.0, N=64, volume_box=vol)
    b = dirac.limit_gaps(circle, 1j, 16.0, N=128, volume_box=vol)
    for x, y in zip(a, b):
        assert abs(x - y) <= 0.05 * abs(x)


def test_correction_zero_coupling(circle):
    blocks = dirac.dirac_correction(circle, 0.0, 1j, 16.0, N=48, probe_n=10)
    assert blocks.difference_norm == 0.0
    assert np.all(blocks.dirac_kernel == 0)


@pytest.mark.parametrize("lam", [1j, 1 + 2j])
@pytest.mark.parametrize("c", [8.0, 64.0])
def test_difference_norm_matches_dense_norm(kite, lam, c):
    # the norm taken from the rank <= 2N factors equals the dense 2M x 2M one
    for curve in (kite, _mirror_free_curve()):
        blocks = dirac.dirac_correction(curve, -1.0, lam, c, N=32, probe_n=8)
        w = np.sqrt(bie.make_volume_grid(1.5 * curve.diameter, 8).weight)
        dense = np.linalg.norm(w * (blocks.dirac_kernel - blocks.schrod_kernel) * w, 2)
        assert blocks.difference_norm == pytest.approx(dense, rel=1e-12), curve.name


def test_no_bessel_array_is_evaluated_twice(kite, monkeypatch):
    # every K_0/K_1 array is evaluated once per (kappa, geometry); the
    # (zbar, lambdabar) side conjugates the (z, lambda) side's arrays
    seen, repeats = set(), []
    original = specfun.bessel_k_array

    def recording(order, z):
        z = np.asarray(z)
        key = (order, z.shape, z.tobytes())
        if key in seen or (order, z.shape, np.conj(z).tobytes()) in seen:
            repeats.append((order, z.shape))
        seen.add(key)
        return original(order, z)

    for mod in (specfun, kernels, bie):
        monkeypatch.setattr(mod, "bessel_k_array", recording)
    vol = bie.make_volume_grid(3 * kite.diameter, 16)
    study = dirac.nonrel_limit_study(kite, 1j, [8, 16], N=32, volume_box=vol)
    assert seen and repeats == []
    seen.clear()
    dirac.dirac_correction(kite, -1.0, 1j, 16, N=32, probe_n=8)
    assert seen and repeats == []
    # limit_gaps is the one-speed case of the study, bit for bit
    for i, c in enumerate(study.c_values):
        row = dirac.limit_gaps(kite, 1j, c, N=32, volume_box=vol)
        assert row == tuple(study.gaps()[k][i] for k in ("a0", "phi", "phistar", "c"))


@pytest.mark.parametrize("lam", [1j, 1 + 2j])
def test_conjugate_side_equals_direct_evaluation(lam):
    # the (zbar, lambdabar) blocks built from conjugated K_0/K_1 arrays are
    # bit for bit those of kernel_G and kernel_L evaluated there
    curve = _mirror_free_curve()
    g = geometry.grid(curve, 32)
    vol = bie.make_volume_grid(1.5 * curve.diameter, 8)
    sp = SpectralParameter.make(lam)
    pr = dirac._probes(sp, g, vol.points)
    assert np.array_equal(pr.L, kernel_L(sp, pr.x))
    assert np.array_equal(pr.L_bar, kernel_L(sp.conjugate, pr.x))
    for c in (8.0, 64.0):
        dp = DiracParameter.shifted(lam, c)
        dp_bar = DiracParameter.make(np.conj(dp.lam), c)
        for side, p in zip(dirac._phi_m3_sides(dp, pr), (dp, dp_bar)):
            G = kernel_G(p, pr.x)
            assert np.array_equal(side, np.concatenate([G[..., 0, 1], G[..., 1, 1]]))


def test_correction_reference_block_structure(circle):
    blocks = dirac.dirac_correction(circle, -1.0, 1j, 16.0, N=48, probe_n=10)
    M = blocks.schrod_kernel.shape[0] // 2
    # the limit correction lives in the first spinor component only
    assert np.linalg.norm(blocks.schrod_kernel[M:, :]) == 0.0
    assert np.linalg.norm(blocks.schrod_kernel[:, M:]) == 0.0
    assert np.linalg.norm(blocks.schrod_kernel[:M, :M]) > 0
    assert blocks.difference_norm > 0


def test_correction_convergence_rate(circle):
    norms, slope = dirac.correction_convergence(
        circle, -1.0, 1j, [16.0, 64.0], N=64, probe_n=12)
    assert norms[1] < norms[0]
    assert slope <= -0.8


def test_sqrt_shift_bounds_hold():
    out = dirac.sqrt_shift_bounds(1j, 100.0)
    assert out["bounds_hold"]
    out2 = dirac.sqrt_shift_bounds(1 + 1j, 10.0)
    assert out2["bounds_hold"]
    # ratio of the shifted to unshifted root approaches 1 as c grows
    big = dirac.sqrt_shift_bounds(1 + 1j, 1e6)
    assert big["max_abs"] / big["abs_sqrt_lambda"] == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ParameterError):
        dirac.sqrt_shift_bounds(1j, -5.0)


def test_sqrt_shift_reports_minimal_c():
    # huge |lambda| with tiny c violates the bounds; a minimal c is reported
    out = dirac.sqrt_shift_bounds(-1e6 + 1j, 1.0)
    if not out["bounds_hold"]:
        assert out["minimal_c"] > 1.0
        again = dirac.sqrt_shift_bounds(-1e6 + 1j, out["minimal_c"])
        assert again["bounds_hold"]

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import lapack

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


def _nodal(g, entries):
    """D^-1 A D, D = diag(sqrt(jac)): the operator that an orthonormal-basis
    matrix A stands for, acting on nodal density values."""
    d = np.sqrt(g.jacobians)
    return entries / d[:, None] * d[None, :]


def test_compression_resolvent_identity(circle, kite):
    # the correction's Dirac factors on the live M3 block, as dirac_correction
    # forms them in the orthonormal basis of the boundary matrices, equal the
    # full spinor formula
    # c Phi_z P3 (I - alpha c^2 M3 C_z M3)^-1 alpha c P3 Phi*_zbar with 2N x 2N
    # padded boundary matrices acting on nodal values
    alpha, c, lam = -1.0, 8.0, 1 + 2j
    for curve in (circle, kite):
        g = geometry.grid(curve, 32)
        vol = bie.make_volume_grid(1.5 * curve.diameter, 8)  # the probe volume
        N = g.N
        w_b = g.weight * g.jacobians
        d = np.sqrt(g.jacobians)
        dp = DiracParameter.shifted(lam, c)
        dp_bar = DiracParameter.shifted(np.conj(lam), c)
        M3CM3 = bie.assemble_M3CM3(g, dp).entries
        C = np.zeros((2 * N, 2 * N), dtype=complex)
        C[N:, N:] = _nodal(g, M3CM3)
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
        live = (c * phi_z * (g.weight * d)) @ np.linalg.solve(
            np.eye(N) - alpha * c ** 2 * M3CM3,
            alpha * c * d[:, None] * np.conj(phi_zbar).T * vol.weight)
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


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_correction_rejects_non_finite_alpha(circle, alpha):
    # it used to end in numpy's LinAlgError from the SVD
    with pytest.raises(ParameterError, match=r"^alpha\b"):
        dirac.dirac_correction(circle, alpha, 1j, 16.0, N=48, probe_n=10)


def _dense_difference_norm(curve, alpha, lam, c, N, probe_n):
    """||sqrt(w) (K_D - K_S) sqrt(w)||_2 from dense 2M x 2M kernels: the
    Dirac side from the full spinor formula
    c Phi_z P3 (I - alpha c^2 M3 C_z M3)^-1 alpha c P3 Phi*_zbar with 2N x 2N
    padded boundary matrices, the limit side
    Psi M2 (I - alpha lambda S)^-1 alpha M2^T Psi*_lambdabar from kernel_L."""
    g = geometry.grid(curve, N)
    vol = bie.make_volume_grid(1.5 * curve.diameter, probe_n)  # the probe volume
    M = len(vol.points)
    w_b = g.weight * g.jacobians
    dp = DiracParameter.shifted(lam, c)
    dp_bar = DiracParameter.shifted(np.conj(lam), c)
    C = np.zeros((2 * N, 2 * N), dtype=complex)
    C[N:, N:] = _nodal(g, bie.assemble_M3CM3(g, dp).entries)
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
    S = _nodal(g, bie.assemble_S(g, sp).entries)
    K_schrod = np.zeros_like(K_dirac)
    K_schrod[:M, :M] = psi @ np.linalg.solve(np.eye(N) - alpha * lam * S, alpha * psi_star)
    return vol.weight * np.linalg.norm(K_dirac - K_schrod, 2)


@pytest.mark.parametrize("lam", [1j, 1 + 2j])
@pytest.mark.parametrize("c", [8.0, 64.0, 256.0])
def test_difference_norm_matches_dense_norm(circle, kite, mirror_free, lam, c):
    # the norm taken from the rank <= 2N factors equals that of dense 2M x 2M
    # kernels built here independently; at c = 256, K_D - K_S is smallest
    # relative to its factors
    for curve in (circle, kite, mirror_free):
        got = dirac.dirac_correction(curve, -1.0, lam, c, N=32, probe_n=8)
        dense = _dense_difference_norm(curve, -1.0, lam, c, 32, 8)
        assert got == pytest.approx(dense, rel=1e-12), curve.name


@pytest.mark.parametrize("c", [8.0, 256.0])
def test_difference_norm_with_fewer_probes_than_nodes(kite, mirror_free, c):
    # with M = 16 probes and N = 32 nodes the -Psi panel has fewer rows than
    # columns: its QR triangle is 16 x 32 and R has 2M rows
    for curve in (kite, mirror_free):
        got = dirac.dirac_correction(curve, -1.0, 1 + 2j, c, N=32, probe_n=4)
        dense = _dense_difference_norm(curve, -1.0, 1 + 2j, c, 32, 4)
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
    # a third speed adds no Bessel array on the probes: neither on the pairs
    # of the near probes nor on the far probes of Graf's expansion
    far = bie._graf_plan(SpectralParameter.make(1j).kappa, geometry.grid(kite, 32).points,
                         vol.points).far
    probe_arrays = ((int((~far).sum()), 32), (int(far.sum()),))
    two_speeds = [calls.count(shape) for shape in probe_arrays]
    seen.clear()
    calls.clear()
    dirac.nonrel_limit_study(kite, 1j, [8, 16, 32], N=32, volume_box=vol)
    assert repeats == []
    assert min(two_speeds) > 0
    assert [calls.count(shape) for shape in probe_arrays] == two_speeds
    seen.clear()
    dirac.dirac_correction(kite, -1.0, 1j, 16, N=32, probe_n=8)
    assert seen and repeats == []
    # the correction's c-free blocks (the probes' K_0/K_1 and S(lambda)) are
    # built once for the whole c-list
    seen.clear()
    dirac.correction_convergence(kite, -1.0, 1j, [16, 64, 256], N=32, probe_n=8)
    assert seen and repeats == []
    # a one-speed gap row is the study's row, bit for bit
    for i, c in enumerate(study.c_values):
        row = next(dirac._gap_rows(kite, 1j, [c], 32, vol, False))
        assert row == tuple(study.gaps()[k][i] for k in ("a0", "phi", "phistar", "c"))


def _assert_direct_probe_arrays(sp, g, pr, points, rel=1e-13):
    """The probes' K_0, K_1, L(lambda) and L(lambdabar) against
    bessel_k_array and kernel_L on every pair: bit for bit on the rows that
    take the direct arrays, within ``rel`` of each entry on the rows of
    Graf's expansion (``bie._graf_plan``'s far probes)."""
    plan = bie._graf_plan(sp.kappa, g.points, points)
    far = np.zeros(len(points), dtype=bool) if plan is None else plan.far
    w = sp.kappa * pr.r
    for got, ref in ((pr.k0, specfun.bessel_k_array(0, w)),
                     (pr.k1, specfun.bessel_k_array(1, w)),
                     (pr.L, kernel_L(sp, pr.x)), (pr.L_bar, kernel_L(sp.conjugate, pr.x))):
        assert np.array_equal(got[~far], ref[~far])
        err = np.abs(got[far] - ref[far]) / np.abs(ref[far])
        assert far.sum() == 0 or err.max() <= rel, err.max()
    return far


def _phi_m3_reference(dp, x):
    G = kernel_G(dp, x)
    return np.concatenate([G[..., 0, 1], G[..., 1, 1]])


def _series_terms(dp, pr):
    """The multiplication-series term count _phi_m3_sides takes at dp over
    the probes, None where it evaluates K_0/K_1 directly."""
    kappa = abs(pr.kappa)
    return specfun._multiplication_terms(dp.kappa / pr.kappa, kappa * float(pr.r.min()),
                                         kappa * float(pr.r.max()))


@pytest.mark.parametrize("lam", [1j, 1 + 2j])
def test_multiplication_series_matches_bessel_arrays(kite, mirror_free, lam):
    # K_0/K_1 at kappa(z) r from K_0/K_1 at kappa(lambda) r agree pointwise
    # with bessel_k_array there.  Seeded with the direct arrays, the error is
    # that of rounding the argument, about eps |w| |K_1/K_0|; seeded with the
    # probes' set, whose far rows come from Graf's expansion, it adds theirs
    sp = SpectralParameter.make(lam)
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 64)
        vol = bie.make_volume_grid(3 * curve.diameter, 24)
        pr = dirac._probes(sp, g, vol.points)
        direct = [specfun.bessel_k_array(order, sp.kappa * pr.r) for order in (0, 1)]
        for c in (8.0, 16.0, 64.0, 256.0):
            dp = DiracParameter.shifted(lam, c)
            terms = _series_terms(dp, pr)
            assert terms is not None and terms <= 20, (curve.name, c, terms)
            refs = [specfun.bessel_k_array(order, dp.kappa * pr.r) for order in (0, 1)]
            for seeds, bound in ((direct, 1e-14), ((pr.k0, pr.k1), 1e-13)):
                got = np.empty((2,) + pr.r.shape, dtype=complex)
                specfun._k01_multiplication(dp.kappa / sp.kappa, sp.kappa * pr.r,
                                            *seeds, terms, *got)
                for order, (k, ref) in enumerate(zip(got, refs)):
                    err = np.max(np.abs(k - ref) / np.abs(ref))
                    assert err <= bound, (curve.name, c, order, err)


@pytest.mark.parametrize("lam", [1j, 1 + 2j, -3 + 1j])
def test_far_probe_rows_by_graf_match_the_direct_arrays(kite, ellipse, mirror_free, lam):
    # probes at least 2R from the centroid of the nodes take K_0/K_1 from
    # Graf's expansion, the others the direct arrays bit for bit.  A far
    # entry is within 2e-14 of the largest entry of its row.  Relative to
    # itself it is within 1e-13 at lambda = i and 1 + 2i; at -3 + i the
    # expansion's terms exceed the smallest entries, on the far side of the
    # curve, by up to e^(2 Re kappa R) (about 10^3 on the ellipse), and
    # those entries read up to 3.2e-13 relative
    sp = SpectralParameter.make(lam)
    for curve in (kite, ellipse, mirror_free):
        g = geometry.grid(curve, 64)
        vol = bie.make_volume_grid(3 * curve.diameter, 24)
        pr = dirac._probes(sp, g, vol.points)
        far = _assert_direct_probe_arrays(sp, g, pr, vol.points,
                                          rel=1e-13 if lam != -3 + 1j else 5e-13)
        assert far.mean() > 0.8, curve.name
        w = sp.kappa * pr.r[far]
        for got, ref in ((pr.k0, specfun.bessel_k_array(0, w)),
                         (pr.k1, specfun.bessel_k_array(1, w)),
                         (pr.L, kernel_L(sp, pr.x[far])),
                         (pr.L_bar, kernel_L(sp.conjugate, pr.x[far]))):
            err = np.abs(got[far] - ref)
            assert np.all(err <= 2e-14 * np.abs(ref).max(axis=1, keepdims=True)), curve.name


def test_probes_refused_by_the_graf_gate_take_the_direct_arrays(kite):
    # at |kappa| R > _GRAF_LIMIT no probe takes Graf's expansion, and every
    # array is the direct one bit for bit
    sp = SpectralParameter.make(-30 + 10j)
    g = geometry.grid(kite, 64)
    vol = bie.make_volume_grid(3 * kite.diameter, 24)
    assert bie._graf_plan(sp.kappa, g.points, vol.points) is None
    pr = dirac._probes(sp, g, vol.points)
    assert not _assert_direct_probe_arrays(sp, g, pr, vol.points).any()


def test_probes_hold_little_beyond_their_outputs(kite):
    # on the gap study's 48^2 x 128 probe set, the far rows are built in row
    # chunks: the peak over the call is the outputs, the conjugated K_1 that
    # L(lambdabar) is built from, and less than 1 MB besides
    g = geometry.grid(kite, 128)
    vol = bie.make_volume_grid(3.0 * kite.diameter, 48)
    sp = SpectralParameter.make(1j)
    assert bie._graf_plan(sp.kappa, g.points, vol.points).far.mean() > 0.8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pr = dirac._probes(sp, g, vol.points)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (pr.x, pr.r, pr.k0, pr.k1, pr.L, pr.L_bar))
    assert outputs == 48 ** 2 * 128 * (16 + 8 + 4 * 16)
    assert peak <= outputs + pr.k1.nbytes + 2 ** 20, (peak - outputs) / 2 ** 20


def test_slow_speeds_take_the_bessel_array_path(mirror_free):
    # at c = 1, 2 (|1 - mu^2| = 1, 1/4) the series does not pay; Phi M3 is
    # kernel_G's bit for bit, and so are the gaps of Gram matrices built
    # from it over the same probe row groups
    lam, N = 1j, 64
    sp = SpectralParameter.make(lam)
    g = geometry.grid(mirror_free, N)
    vol = bie.make_volume_grid(3 * mirror_free.diameter, 24)
    M = len(vol.points)
    pr = dirac._probes(sp, g, vol.points)
    for c in (1.0, 2.0):
        dp = DiracParameter.shifted(lam, c)
        dp_bar = DiracParameter.make(np.conj(dp.lam), c)
        assert _series_terms(dp, pr) is None
        row = next(dirac._gap_rows(mirror_free, lam, [c], N, vol, False))
        for side, p, L, gap in zip(dirac._phi_m3_sides(dp, pr), (dp, dp_bar),
                                   (pr.L, pr.L_bar), row[1:3]):
            phi = _phi_m3_reference(p, pr.x)
            assert np.array_equal(side, phi)
            A = phi
            A *= c
            A[:M] -= L
            A *= np.sqrt(g.weight * g.jacobians * vol.weight)
            gram = np.zeros((N, N), dtype=complex)
            for rows in dirac._row_groups(M, N):
                group = np.concatenate([A[rows], A[M + rows.start:M + rows.stop]])
                gram += group.conj().T @ group
            assert gap == float(np.sqrt(np.linalg.eigvalsh(gram, UPLO="L")[-1]))


@pytest.mark.parametrize("lam", [1j, 1 + 2j])
def test_conjugate_side_equals_direct_evaluation(mirror_free, lam):
    # the (zbar, lambdabar) blocks built from conjugated K_0/K_1 arrays are
    # those of kernel_G and kernel_L evaluated there: for L bit for bit on the
    # near probes and within 1e-13 of each entry on the far probes of Graf's
    # expansion; on the bessel_k_array path (c = 2) bit for bit on the near
    # probes, and to the series' rounding (c = 8, 64) (the 24^2-probe box
    # gives arrays above numpy's 256 kB threshold for reusing temporaries in
    # place, where operand order can change bits)
    curve = mirror_free
    g = geometry.grid(curve, 32)
    sp = SpectralParameter.make(lam)
    for n in (8, 24):
        vol = bie.make_volume_grid(1.5 * curve.diameter, n)
        pr = dirac._probes(sp, g, vol.points)
        far = _assert_direct_probe_arrays(sp, g, pr, vol.points)
        assert far.any() and not far.all()
        for c in (2.0, 8.0, 64.0):
            dp = DiracParameter.shifted(lam, c)
            dp_bar = DiracParameter.make(np.conj(dp.lam), c)
            series = _series_terms(dp, pr) is not None
            assert series == (c > 2)
            for side, p in zip(dirac._phi_m3_sides(dp, pr), (dp, dp_bar)):
                ref = _phi_m3_reference(p, pr.x)
                if series:
                    assert np.max(np.abs(side - ref)) <= 1e-14 * np.max(np.abs(ref))
                else:
                    rows = np.concatenate([~far, ~far])
                    assert np.array_equal(side[rows], ref[rows])
                    assert np.max(np.abs(side - ref)) <= 1e-14 * np.max(np.abs(ref))


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
    # sigma_max from the N x N Gram matrix, summed over probe row groups,
    # equals the SVD's on the same weighted 2M x N block, on both sides (gap (b) at (z, lambda), gap (c)
    # at (zbar, lambdabar))
    lam = 1j
    for curve in (kite, mirror_free):
        g = geometry.grid(curve, 64)
        vol = bie.make_volume_grid(3 * curve.diameter, 24)
        pr = dirac._probes(SpectralParameter.make(lam), g, vol.points)
        dp = DiracParameter.shifted(lam, c)
        sides = dirac._phi_m3_sides(dp, pr)
        for phi, L, gram in zip(sides, (pr.L, pr.L_bar), dirac._gap_grams(dp, pr, g, vol)):
            A = c * phi
            A[:len(vol.points)] -= L
            A *= np.sqrt(g.weight * g.jacobians * vol.weight)[None, :]
            ref = np.linalg.svd(A, compute_uv=False)[0]
            got = dirac._gap_phi(gram)
            assert abs(got - ref) <= 1e-13 * ref, (curve.name, c)


def test_a_gap_speed_holds_little_beyond_the_probes(kite):
    # one speed of the study on its 48^2 x 128 probe set forms its weighted
    # rows one probe row group at a time: the peak over the speed, with the
    # c-free blocks built, stays under 4 MB, less than one (2M, N) block of
    # Phi M3 (9 MB), which the study held two of per speed
    vol = bie.make_volume_grid(3.0 * kite.diameter, 48)
    sp = SpectralParameter.make(1j)
    with bie._call():
        g, pr, S = dirac._c_free_blocks(kite, sp, 128, vol)
        lattice = dirac._a0_lattice(sp, vol)
        lam_S = sp.lam * S
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dirac._gap_row(DiracParameter.shifted(1j, 8.0), g, pr, lam_S, vol, lattice)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    block = 2 * len(vol.points) * g.N * 16
    assert peak <= 4 * 2 ** 20 < block, peak / 2 ** 20


def test_zunmqr_gets_a_copy_of_the_kept_reflectors(kite, monkeypatch):
    # zunm2r sets each reflector's diagonal entry to 1 while it works and
    # restores it after, also through a read-only array; the kept reflectors
    # are shared by the speeds' pool tasks, so no call may receive them
    kept, shared = [], []
    zgeqrf, zunmqr = lapack.zgeqrf, lapack.zunmqr

    def factor(*args, **kwargs):
        out = zgeqrf(*args, **kwargs)
        kept.append(out[0])
        return out

    def apply(side, trans, a, *args, **kwargs):
        shared.append(any(np.shares_memory(a, reflectors) for reflectors in kept))
        return zunmqr(side, trans, a, *args, **kwargs)

    monkeypatch.setattr(lapack, "zgeqrf", factor)
    monkeypatch.setattr(lapack, "zunmqr", apply)
    dirac.correction_convergence(kite, -1.0, 1j, [16, 64, 256], N=32, probe_n=8)
    assert len(kept) == 1 and shared and not any(shared)


def _tiny_nonrel(curve) -> bytes:
    """The outputs of the benchmark's tiny nonrel workload, as bytes."""
    study = dirac.nonrel_limit_study(curve, 1j, [8, 16], N=32, check_box=True)
    norms, slope = dirac.correction_convergence(curve, -1.0, 1j, [16, 64], N=32)
    gaps = np.array([study.gaps()[k] for k in ("a0", "phi", "phistar", "c")])
    return gaps.tobytes() + np.array(norms + [slope]).tobytes()


def test_nonrel_calls_on_a_four_worker_pool_are_bit_identical(kite, monkeypatch):
    # the speeds run as concurrent tasks that share the kept c-free blocks;
    # none may disturb another's bits, also with more workers than cores and
    # threads switched often
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(max_workers=4) as pool:
        monkeypatch.setattr(specfun, "_pool", lambda: pool)
        sys.setswitchinterval(1e-5)
        try:
            first = _tiny_nonrel(kite)
            assert all(_tiny_nonrel(kite) == first for _ in range(39))
        finally:
            sys.setswitchinterval(interval)


_NONREL_DIGEST = """
import hashlib, numpy as np
from obliqueshell import dirac, geometry
kite = geometry.make_curve("kite")
study = dirac.nonrel_limit_study(kite, 1j, [8, 16, 32], N=32, check_box=True)
norms, slope = dirac.correction_convergence(kite, -1.0, 1j, [16, 64, 256], N=32)
gaps = np.array([study.gaps()[k] for k in ("a0", "phi", "phistar", "c")])
print(hashlib.sha256(gaps.tobytes() + np.array(norms + [slope]).tobytes()).hexdigest())
"""

needs_blas_setter = pytest.mark.skipif(
    not specfun._blas_setters(),
    reason="no OpenBLAS with openblas_set_num_threads_local in this process")


@pytest.mark.parametrize("envs", [
    [{"THREADS": threads} for threads in ("1", "2", "4")],
    pytest.param([{"THREADS": "2", "OPENBLAS_NUM_THREADS": blas} for blas in ("1", "2")],
                 marks=needs_blas_setter)], ids=["pool", "blas"])
def test_nonrel_is_bit_identical_for_any_thread_count(envs, run_digests):
    # each speed is one pool task whose BLAS calls run under the public
    # call's one-thread scope, and its Gram matrices are summed over row
    # groups that do not depend on the pool (THREADS = 4 exceeds the cores
    # of a 2-core box, which caps the pool at 2)
    assert len(set(run_digests(_NONREL_DIGEST, envs))) == 1


def test_correction_reference_block_structure(circle):
    assert dirac.dirac_correction(circle, -1.0, 1j, 16.0, N=48, probe_n=10) > 0


def test_correction_limit_side_is_solved_once_per_c_list(kite, monkeypatch):
    # Psi M2 and Y = (I - alpha lambda S)^-1 alpha Psi* do not depend on c:
    # one correction_convergence over three speeds solves for them once, and
    # its norms are those of one dirac_correction call per speed, bit for bit
    solved = []
    limit_side = dirac._limit_side
    monkeypatch.setattr(dirac, "_limit_side",
                        lambda *args: solved.append(args[0]) or limit_side(*args))
    c_values = [16.0, 64.0, 256.0]
    norms, _ = dirac.correction_convergence(kite, -1.0, 1j, c_values, N=32, probe_n=8)
    assert solved == [-1.0]
    alone = [dirac.dirac_correction(kite, -1.0, 1j, c, N=32, probe_n=8) for c in c_values]
    assert len(solved) == 4 and norms == alone
    # another alpha within one call scope solves again
    with bie._call():
        dirac.dirac_correction(kite, -1.0, 1j, 16.0, N=32, probe_n=8)
        dirac.dirac_correction(kite, -0.5, 1j, 16.0, N=32, probe_n=8)
    assert solved[4:] == [-1.0, -0.5]


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

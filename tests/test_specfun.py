import numpy as np
import pytest

from obliqueshell import bie, geometry, specfun
from obliqueshell.errors import DomainError
from obliqueshell.kernels import DiracParameter, SpectralParameter


def test_frozen_oracle_k(bessel_oracle):
    for e in bessel_oracle["k"]:
        z = complex(e["z"][0], e["z"][1])
        ref = complex(e["value"][0], e["value"][1])
        got = specfun.bessel_k(e["order"], z)
        assert abs(got - ref) <= 1e-10 * abs(ref), (e["order"], z)


def test_frozen_oracle_ik(bessel_oracle):
    for e in bessel_oracle["ik"]:
        iv, kv = specfun.bessel_ik_int(e["order"], e["x"])
        if e["i"] != 0:
            assert abs(iv - e["i"]) <= 1e-10 * abs(e["i"])
        if e["k"] != 0:
            assert abs(kv - e["k"]) <= 1e-10 * abs(e["k"])


def test_real_positive_values():
    for x in (1e-6, 0.3, 1.0, 5.0, 50.0):
        for order in (0, 1):
            v = specfun.bessel_k(order, x)
            assert v.imag == 0 and v.real > 0


def test_k1_derivative_identity():
    # K1'(z) = -K0(z) - K1(z)/z, via Richardson-extrapolated central stencils
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = complex(rng.uniform(0.5, 20), rng.uniform(-5, 5))
        if z.real <= 0.3:
            continue
        hs = [0.05, 0.025, 0.0125]
        d = [(specfun.bessel_k(1, z + h) - specfun.bessel_k(1, z - h)) / (2 * h)
             for h in hs]
        # two Richardson steps remove the h^2 and h^4 error terms
        d1 = [(4 * d[i + 1] - d[i]) / 3 for i in range(2)]
        deriv = (16 * d1[1] - d1[0]) / 15
        ref = -specfun.bessel_k(0, z) - specfun.bessel_k(1, z) / z
        assert abs(deriv - ref) <= 1e-10 * abs(ref), z


def test_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = 10 ** rng.uniform(-3, 2)
        th = rng.uniform(-1.3, 1.3)
        z = r * np.exp(1j * th)
        for order in (0, 1):
            a = specfun.bessel_k(order, np.conj(z))
            b = np.conj(specfun.bessel_k(order, z))
            assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300)


def test_conjugate_symmetry_is_exact_on_kernel_arguments(kite):
    # the Dirac layer takes the (zbar, lambdabar) side's K_0/K_1 as the
    # conjugates of the (z, lambda) side's, so kappa and kv must be
    # conjugate-symmetric bit for bit on every argument kappa r it meets there
    g = geometry.grid(kite, 128)
    vol = bie.make_volume_grid(3 * kite.diameter, 48)
    r = np.linalg.norm(vol.points[:, None, :] - g.points[None, :, :], axis=-1).ravel()
    params = [(SpectralParameter.make(lam), SpectralParameter.make(np.conj(lam)))
              for lam in (1j, 1 + 2j)]
    for c in (8.0, 64.0, 256.0):
        dp = DiracParameter.shifted(1j, c)
        params.append((dp, DiracParameter.make(np.conj(dp.lam), c)))
    for p, p_bar in params:
        assert p_bar.kappa == np.conj(p.kappa)
        z = p.kappa * r
        for order in (0, 1):
            a = specfun.bessel_k_array(order, np.conj(z))
            b = np.conj(specfun.bessel_k_array(order, z))
            assert np.array_equal(a, b), (p.kappa, order)


def test_overlap_annulus_continuity(bessel_oracle):
    # values across the small/large-argument regimes agree with the frozen
    # high-precision oracle to 1e-9 in the annulus 8.5 <= |z| <= 9.5
    seen = 0
    for e in bessel_oracle["k"]:
        z = complex(e["z"][0], e["z"][1])
        if not 8.5 <= abs(z) <= 9.5:
            continue
        ref = complex(e["value"][0], e["value"][1])
        assert abs(specfun.bessel_k(e["order"], z) - ref) <= 1e-9 * abs(ref)
        seen += 1
    assert seen >= 20


def test_decay_envelope():
    # |K_j(z)| <= C/|z| for |z| < 1 and <= C e^{-Re z / 2} for |z| >= 1
    C = 5.0
    for arg in (-np.pi / 5, 0.0, np.pi / 5):
        direction = np.exp(1j * arg)
        for r in (0.01, 0.1, 0.5, 0.99):
            z = r * direction
            for order in (0, 1):
                assert abs(specfun.bessel_k(order, z)) <= C / abs(z)
        for r in (1.0, 3.0, 10.0, 50.0, 200.0):
            z = r * direction
            for order in (0, 1):
                assert abs(specfun.bessel_k(order, z)) <= C * np.exp(-z.real / 2)


def test_wronskian():
    for x in (0.5, 1.0, 10.0):
        for n in range(21):
            i_n, k_n = specfun.bessel_ik_int(n, x)
            i_n1, k_n1 = specfun.bessel_ik_int(n + 1, x)
            w = i_n * k_n1 + i_n1 * k_n
            assert abs(w - 1.0 / x) <= 1e-10 / x


def test_log_singularity_at_zero():
    # K0(z) + ln(z/2) approaches -EulerGamma monotonically from above
    xs = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    vals = np.array([specfun.bessel_k(0, x).real + np.log(x / 2) for x in xs])
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] == pytest.approx(-specfun.EULER_GAMMA, abs=1e-10)


def test_i0_near_zero():
    iv, _ = specfun.bessel_ik_int(0, 1e-6)
    assert abs(iv - 1.0) <= 1e-11


def test_domain_errors_and_underflow():
    with pytest.raises(DomainError):
        specfun.bessel_k(2, 1.0)
    with pytest.raises(DomainError):
        specfun.bessel_k(0, -1.0)
    with pytest.raises(DomainError):
        specfun.bessel_k(0, 1j)  # Re z = 0
    with pytest.raises(DomainError):
        specfun.bessel_ik_int(0, -1.0)
    with pytest.raises(DomainError):
        specfun.bessel_ik_int(300, 1.0)
    with pytest.warns(specfun.BesselUnderflowWarning):
        assert specfun.bessel_k(0, 800.0) == 0j

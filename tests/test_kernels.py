import numpy as np
import pytest
from scipy import special

from obliqueshell import kernels
from obliqueshell.errors import DomainError, SingularityError
from obliqueshell.kernels import (
    DiracParameter,
    I2,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    SpectralParameter,
    branch_sqrt,
    kernel_G,
    kernel_L,
    kernel_U,
    kernel_dzbar_U,
)


def test_branch_sqrt_properties():
    for lam in (-1.0, -100.0, 1j, -2 + 3j, -2 - 3j, 5 + 0.1j):
        s = branch_sqrt(lam)
        assert s.imag > 0
        assert s * s == pytest.approx(lam, rel=1e-14)
    with pytest.raises(DomainError):
        branch_sqrt(1.0)
    with pytest.raises(DomainError):
        branch_sqrt(0.0)


def test_branch_sqrt_conjugation():
    # sqrt(conj lambda) = -conj(sqrt lambda) on this branch
    for lam in (1j, -2 + 3j, -5 - 0.7j):
        assert branch_sqrt(np.conj(lam)) == pytest.approx(
            -np.conj(branch_sqrt(lam)), rel=1e-14)


def test_spectral_parameter():
    sp = SpectralParameter.make(-4.0)
    assert sp.kappa == pytest.approx(2.0)
    assert sp.conjugate.lam == -4.0
    spc = SpectralParameter.make(1 + 1j)
    assert spc.kappa.real > 0
    assert spc.conjugate.lam == np.conj(1 + 1j)


def test_dirac_parameter_domain():
    dp = DiracParameter.make(1j, 10.0)
    assert dp.kappa.real > 0
    assert dp.rel_root * dp.rel_root == pytest.approx(
        (1j) ** 2 / 100 - 25.0, rel=1e-14)
    with pytest.raises(DomainError):
        DiracParameter.make(60.0, 10.0)  # in the essential spectrum
    with pytest.raises(DomainError):
        DiracParameter.make(-51.0, 10.0)
    with pytest.raises(DomainError):
        DiracParameter.make(1j, -1.0)
    # the shifted constructor re-centers at the non-relativistic reference
    ds = DiracParameter.shifted(-3.0, 8.0)
    assert ds.lam == pytest.approx(-3.0 + 32.0)
    # relativistic root at the shifted parameter equals sqrt(lam + lam^2/c^2)
    assert ds.rel_root == pytest.approx(branch_sqrt(-3.0 + 9.0 / 64), rel=1e-14)


def test_pauli_algebra():
    for s in (SIGMA_1, SIGMA_2, SIGMA_3):
        assert np.allclose(s @ s, I2)


def test_kernel_singularity():
    sp = SpectralParameter.make(-1.0)
    with pytest.raises(SingularityError):
        kernel_U(sp, np.array([0.0, 0.0]))


def test_kernel_U_closed_form():
    sp = SpectralParameter.make(-4.0)  # kappa = 2
    x = np.array([0.3, 0.4])  # |x| = 0.5
    assert kernel_U(sp, x) == pytest.approx(special.k0(1.0) / (2 * np.pi), rel=1e-14)


def test_dzbar_of_U_matches_finite_differences():
    sp = SpectralParameter.make(-2 + 1j)
    x = np.array([0.7, -0.4])
    h = 1e-6
    ux = (kernel_U(sp, x + [h, 0]) - kernel_U(sp, x - [h, 0])) / (2 * h)
    uy = (kernel_U(sp, x + [0, h]) - kernel_U(sp, x - [0, h])) / (2 * h)
    dzbar = 0.5 * (ux + 1j * uy)
    assert kernel_dzbar_U(sp, x) == pytest.approx(dzbar, rel=1e-8)


def test_kernel_L_is_minus_2i_dz_U():
    sp = SpectralParameter.make(-3.0)
    x = np.array([0.5, 0.8])
    h = 1e-6
    ux = (kernel_U(sp, x + [h, 0]) - kernel_U(sp, x - [h, 0])) / (2 * h)
    uy = (kernel_U(sp, x + [0, h]) - kernel_U(sp, x - [0, h])) / (2 * h)
    dz = 0.5 * (ux - 1j * uy)
    assert kernel_L(sp, x) == pytest.approx(-2j * dz, rel=1e-8)


def test_kernel_G_compression_reduces_to_scalar():
    # M3 G_z M3 = (z/c^2 - 1/2) * scalar kernel at the relativistic root * M3
    dp = DiracParameter.shifted(-1 + 2j, 12.0)
    x = np.array([0.4, 0.9])
    G = kernel_G(dp, x)
    M3 = np.array([[0, 0], [0, 1]], dtype=complex)  # onto the second component
    comp = M3 @ G @ M3
    r = np.linalg.norm(x)
    scalar = (dp.lam / dp.c ** 2 - 0.5) * special.kv(0, dp.kappa * r) / (2 * np.pi)
    assert comp[1, 1] == pytest.approx(scalar, rel=1e-13)
    assert abs(comp[0, 0]) + abs(comp[0, 1]) + abs(comp[1, 0]) == 0


def test_kernel_G_symmetry_structure():
    dp = DiracParameter.make(0.5j, 5.0)
    x = np.array([0.3, -0.2])
    G = kernel_G(dp, x)
    G_neg = kernel_G(dp, -x)
    # the sigma.x part is odd, the diagonal part even
    odd = (G - G_neg) / 2
    even = (G + G_neg) / 2
    assert abs(odd[0, 0]) < 1e-15 and abs(odd[1, 1]) < 1e-15
    assert abs(even[0, 1]) < 1e-15 and abs(even[1, 0]) < 1e-15


def test_vectorized_shapes():
    sp = SpectralParameter.make(-1.0)
    pts = np.random.default_rng(0).normal(size=(4, 7, 2))
    assert kernel_U(sp, pts).shape == (4, 7)
    assert kernel_L(sp, pts).shape == (4, 7)
    dp = DiracParameter.make(1j, 4.0)
    assert kernels.kernel_G(dp, pts).shape == (4, 7, 2, 2)

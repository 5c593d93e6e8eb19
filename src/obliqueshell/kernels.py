"""Pointwise integral kernels: free resolvent, oblique, and Dirac.

All kernels are built from K_0/K_1 at the argument -i sqrt(lambda) |x| with
the branch Im sqrt(lambda) > 0, so the Bessel argument always has positive
real part.  x = 0 raises; singular integration is the quadrature module's job.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .specfun import bessel_k_array

# Pauli matrices and the projection/shift matrices of the 2x2 spinor algebra.
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
M1 = np.array([[1, 0], [0, 0]], dtype=complex)
M2 = np.array([[0, 1], [0, 0]], dtype=complex)
M3 = np.array([[0, 0], [0, 1]], dtype=complex)


def branch_sqrt(lam: complex) -> complex:
    """Square root with Im sqrt > 0, defined on C minus [0, infinity)."""
    lam = complex(lam)
    if lam.imag == 0 and lam.real >= 0:
        raise DomainError(f"lambda must avoid [0, inf), got {lam}")
    s = np.sqrt(lam)
    if s.imag < 0:
        s = -s
    return complex(s)


@dataclass(frozen=True)
class SpectralParameter:
    """Schrodinger spectral parameter with cached branch root."""

    lam: complex
    sqrt_lam: complex

    @classmethod
    def make(cls, lam: complex) -> "SpectralParameter":
        lam = complex(lam)
        if not cmath.isfinite(lam):
            raise DomainError(f"lambda must be finite, got {lam}")
        return cls(lam, branch_sqrt(lam))

    @property
    def kappa(self) -> complex:
        """-i sqrt(lambda); has positive real part."""
        return -1j * self.sqrt_lam

    @property
    def conjugate(self) -> "SpectralParameter":
        return SpectralParameter.make(np.conj(self.lam))


def _check_speed(c: float) -> None:
    if not (c > 0 and math.isfinite(c * c)):
        raise DomainError(f"speed of light c must be positive with c^2 finite, got {c}")


@dataclass(frozen=True)
class DiracParameter:
    """Dirac spectral parameter z in rho(A_0) and speed of light c.

    Units: hbar = 1, mass 1/2.  The relativistic root sqrt(z^2/c^2 - c^2/4)
    is taken with positive imaginary part.
    """

    lam: complex
    c: float
    rel_root: complex

    @classmethod
    def make(cls, lam: complex, c: float) -> "DiracParameter":
        lam = complex(lam)
        _check_speed(c)
        if lam.imag == 0 and abs(lam.real) >= c * c / 2:
            raise DomainError(
                f"lambda={lam} outside rho(A_0) for c={c} "
                "(must avoid (-inf,-c^2/2] U [c^2/2,inf))"
            )
        root = branch_sqrt(lam * lam / (c * c) - c * c / 4)
        return cls(lam, float(c), root)

    @classmethod
    def shifted(cls, lam: complex, c: float) -> "DiracParameter":
        """Parameter at lam + c^2/2, the non-relativistic energy reference."""
        _check_speed(c)
        return cls.make(complex(lam) + c * c / 2, c)

    @property
    def kappa(self) -> complex:
        """-i * relativistic root; has positive real part."""
        return -1j * self.rel_root


def _radii(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    r = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
    if np.any(r == 0):
        raise SingularityError("kernel evaluated at x = 0")
    return r


def _bessel_arg(kappa: complex, r: np.ndarray) -> np.ndarray:
    """kappa r, kept real when kappa is real so the Bessel functions take
    their real fast path."""
    return kappa.real * r if kappa.imag == 0 else kappa * r


def kernel_U(sp: SpectralParameter, x: np.ndarray) -> np.ndarray:
    """Free-resolvent kernel (1/2pi) K_0(-i sqrt(lambda) |x|).

    Accepts a single 2-vector or an (..., 2) array; scalar in, scalar out.
    """
    r = _radii(x)
    out = bessel_k_array(0, _bessel_arg(sp.kappa, r)) / (2 * np.pi)
    return out if out.ndim else out[()]


def kernel_L(sp: SpectralParameter, x: np.ndarray) -> np.ndarray:
    """Oblique kernel (sqrt(lambda)/2pi) K_1(-i sqrt(lambda)|x|) (x1-ix2)/|x|."""
    x = np.asarray(x, dtype=float)
    r = _radii(x)
    out = _L_body(sp, x, r, bessel_k_array(1, _bessel_arg(sp.kappa, r)))
    return out if out.ndim else out[()]


def _L_body(sp: SpectralParameter, x: np.ndarray, r: np.ndarray,
            k1: np.ndarray) -> np.ndarray:
    """kernel_L from offsets x, radii r = |x| and k1 = K_1(kappa r).

    (x1 - i x2)/r is built in one complex array and scaled in place, so a
    kernel-sum chunk holds one complex temporary here.
    """
    out = np.empty(r.shape, dtype=complex)
    out.real = x[..., 0]
    np.negative(x[..., 1], out=out.imag)
    out /= r
    out *= k1
    out *= sp.sqrt_lam / (2 * np.pi)
    return out


def kernel_dzbar_U(sp: SpectralParameter, x: np.ndarray) -> np.ndarray:
    """Wirtinger derivative d/dzbar of kernel_U in x.

    Equals -(kappa/4pi) K_1(kappa|x|) (x1+ix2)/|x| with kappa = -i sqrt(lambda).
    """
    x = np.asarray(x, dtype=float)
    r = _radii(x)
    kappa = sp.kappa
    k1 = bessel_k_array(1, _bessel_arg(kappa, r))
    out = -(kappa / (4 * np.pi)) * k1 * (x[..., 0] + 1j * x[..., 1]) / r
    return out if out.ndim else out[()]


def kernel_G(dp: DiracParameter, x: np.ndarray) -> np.ndarray:
    """Free Dirac resolvent kernel, a 2x2 matrix per point (shape (..., 2, 2))."""
    x = np.asarray(x, dtype=float)
    r = _radii(x)
    arg = dp.kappa * r
    k0, k1 = bessel_k_array(0, arg), bessel_k_array(1, arg)
    c = dp.c
    sigma_x = SIGMA_1 * x[..., None, None, 0] + SIGMA_2 * x[..., None, None, 1]
    diag = (dp.lam / c) * I2 + (c / 2) * SIGMA_3
    return (dp.rel_root / (2 * np.pi * c)) * (k1 / r)[..., None, None] * sigma_x \
        + (1 / (2 * np.pi * c)) * k0[..., None, None] * diag

"""Birman-Schwinger machinery for the oblique transmission operator.

The discrete spectrum of the operator with coupling alpha on the curve is
characterized through the dispersion functions lambda -> lambda mu_n(S(lambda))
(mu_n = n-th largest eigenvalue of the single layer operator), each strictly
increasing from -infinity to 0 on (-infinity, 0).  Eigenvalues are the unique
roots of lambda mu_n(S(lambda)) = 1/alpha (alpha < 0); for alpha > 0 there are
none.  A delta-interaction comparison spectrum solves alpha mu_n(S(lambda)) =
-1 instead, where branches may be empty.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bie
from .bie import VolumeGrid
from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    NumericalInstabilityError,
    ParameterError,
    PoleProximityError,
    ResolutionError,
)
from .geometry import Curve, QuadratureGrid, grid as make_grid
# kernel_dzbar_U is unused here but stays a module attribute: bench/tracer.py
# wraps spectral.kernel_dzbar_U alongside kernels.kernel_dzbar_U.
from .kernels import SpectralParameter, _bessel_arg, kernel_U, kernel_dzbar_U  # noqa: F401
from .specfun import bessel_ik_int

#: smallest lambda the bracket expansion may visit before giving up
BRACKET_FLOOR = -1e12

#: smallest relative tolerance brentq accepts
RTOL_FLOOR = 4 * np.finfo(float).eps

#: singular-value gate for resolvent application near the point spectrum:
#: krein_apply and dirac.dirac_correction refuse a system matrix whose
#: smallest singular value is at most this
POLE_GATE = 1e-8


# ---------------------------------------------------------------------------
# dispersion


@dataclass(frozen=True)
class DispersionSample:
    lam: float
    n: int
    value: float


def _check_branch(n: int, N: int) -> None:
    if n < 1:
        raise ParameterError(f"branch index must be >= 1, got {n}")
    if n > N // 4:
        raise ResolutionError(f"branch n={n} needs N >= {4 * n}, got N={N}")


def _mu_n(g: QuadratureGrid, lam: float, k: int, basis: np.ndarray | None = None,
          vectors: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """(mu, V): mu_1 >= ... >= mu_k of S(lambda) on g, from the one assembly
    behind every dispersion branch, and V the eigenvectors of the top
    ``vectors`` as columns, None when that is 0.

    With a ``basis`` of orthonormal columns (``_ritz_basis``), mu are the
    Ritz values of S on its span when they pass the gate of
    ``_ritz_values``, and no dense eigensolve runs; else, and without a
    basis, mu come from ``eigenvalues_desc``.
    """
    op = bie.assemble_S(g, SpectralParameter.make(lam))
    mu = None if basis is None else _ritz_values(op.entries, basis, k)
    if mu is not None:
        return mu, None
    if vectors:
        return op.eigenvalues_desc(k, vectors)
    return op.eigenvalues_desc(k=k).real, None


#: eigenvectors of a coarse root beyond the k branches its memo serves that
#: a Ritz basis carries: they keep theta_(k+1), the gap the gate reads,
#: apart from the top k
_RITZ_EXTRA = 4


def _ritz_basis(V: np.ndarray, coarse: QuadratureGrid, fine: QuadratureGrid) -> np.ndarray:
    """Orthonormal columns on the fine grid spanning eigenvectors V of S on
    the coarse one: each column of V, in the orthonormal basis of S's
    entries, is divided by sqrt(jac), interpolated trigonometrically to the
    fine nodes (both grids start at t = 0 and have an even number of
    nodes), multiplied by sqrt(jac) there, and the columns are
    orthonormalized by a thin QR."""
    c = np.fft.rfft(V / np.sqrt(coarse.jacobians)[:, None], axis=0)
    c[-1] /= 2  # the Nyquist mode of the coarse grid, split between +-N_c/2
    B = np.fft.irfft(c, fine.N, axis=0) * np.sqrt(fine.jacobians)[:, None]
    return np.linalg.qr(B)[0]


def _ritz_values(S: np.ndarray, Q: np.ndarray, k: int) -> np.ndarray | None:
    """Top k Ritz values of the symmetric S on the span of the orthonormal
    columns of Q (Rayleigh-Ritz), or None when they fail the gate.

    theta, Y = eigh(Q^T S Q) in descending order, with residuals
    r_i = ||S Q y_i - theta_i Q y_i||.  By the Kato-Temple bound theta_i
    lies below the eigenvalue mu_i of S by at most r_i^2 over its gap to
    the rest of the spectrum, for which theta_i - theta_(k+1) stands.  The
    top k are accepted when every r_i^2 <= 16 eps |theta_1| (theta_i -
    theta_(k+1)): each is then within a few ulps of |theta_1| of mu_i.  A
    zero gap, as at a degenerate pair split at k, fails too.
    """
    SQ = S @ Q
    theta, Y = np.linalg.eigh(Q.T @ SQ)
    theta, Y = theta[::-1], Y[:, ::-1][:, :k]
    R = SQ @ Y - (Q @ Y) * theta[:k]
    gap = theta[:k] - theta[k]
    bound = 16 * np.finfo(float).eps * abs(theta[0]) * gap
    if np.all(gap > 0) and np.all(np.einsum("ij,ij->j", R, R) <= bound):
        return theta[:k]
    return None


def _grid(curve: Curve, N: int) -> QuadratureGrid:
    """The N-node grid of the curve, built once per call scope."""
    return bie._kept(("grid", curve, N), lambda: make_grid(curve, N))


class _Memo:
    """mu_1..mu_k of S(lambda) on the N-node grid of a curve, keyed by lambda
    alone, so that every branch n <= k reads the same assemblies, and with
    ``vectors`` > 0 the eigenvectors of the top ``vectors`` at each lambda,
    from the same eigensolve, until ``drop_vectors_above`` drops them.  The
    grid is read from the call scope, not held."""

    def __init__(self, curve: Curve, N: int, k: int, vectors: int = 0) -> None:
        self.curve, self.N, self.k, self.vectors = curve, N, k, vectors
        self.mus: dict[float, np.ndarray] = {}
        self.eigvecs: dict[float, np.ndarray] = {}
        #: the abscissa assembled at each kappa
        self.assembled: dict[complex, float] = {}

    def mu(self, lam: float, n: int, basis: np.ndarray | None = None) -> float:
        """mu_n(S(lambda)), assembled on first read, by ``_mu_n`` with
        ``basis``.  S depends on lambda through kappa alone, so an abscissa
        whose kappa an earlier one shares, as the seeded brackets of the two
        roots of a degenerate pair one ulp apart can, reads its values."""
        lam = float(lam)
        if lam not in self.mus:
            kappa = SpectralParameter.make(lam).kappa
            twin = self.assembled.setdefault(kappa, lam)
            if twin == lam:
                self.mus[lam], V = _mu_n(_grid(self.curve, self.N), lam, self.k, basis,
                                         self.vectors)
            else:
                self.mus[lam], V = self.mus[twin], self.eigvecs.get(twin)
            if V is not None:
                self.eigvecs[lam] = V
        return float(self.mus[lam][n - 1])

    def drop_vectors_above(self, root: float) -> None:
        """Drop the eigenvectors kept above the nearest abscissa above a
        root of branch n.  The root of a branch m > n lies at or below that
        of n, and brentq returns the evaluated abscissa nearest to the root
        on one side, so ordered branches need none of them; a later root
        whose vectors went takes no Ritz basis.  Kept, they would hold
        about 0.6 MB over a spectrum call at 128 nodes and raise its peak
        memory by about 1.5 MB."""
        above = sorted(lam for lam in self.eigvecs if lam > root)
        for lam in above[1:]:
            del self.eigvecs[lam]


@contextlib.contextmanager
def _branch(curve: Curve, n: int, N: int, vectors: int = 0):
    """The memo through which branches 1..n on an N-node grid reach mu_n.

    The only way the spectral routines reach mu_n, so a root finder that
    revisits an abscissa (a bracket end, the root itself, another branch's
    abscissa) costs no assembly.  It opens the call scope (``bie._call``)
    and keeps one memo per curve, N and ``vectors`` there, so every call
    made inside the block shares it, and the memo, the grid and its blocks
    go when the outermost scope ends.  An enclosing block serves branches
    up to its own n, which the public callers open at their largest branch.
    """
    _check_branch(n, N)
    with bie._call():
        yield bie._kept(("memo", curve, N, vectors), lambda: _Memo(curve, N, n, vectors))


def dispersion(curve: Curve, n: int, lam: float, N: int = 256) -> DispersionSample:
    """Sample of the dispersion function lambda * mu_n(S(lambda)), lambda < 0."""
    if not lam < 0:
        raise DomainError(f"dispersion needs lambda < 0, got {lam}")
    with _branch(curve, n, N) as memo:
        return DispersionSample(float(lam), n, float(lam) * memo.mu(lam, n))


def circle_oracle_mu(n: int, R: float, lam: float) -> float:
    """Closed-form mu for the circle of radius R: R I_n(kR) K_n(kR), k=sqrt(-lambda).

    For n >= 1 this eigenvalue has multiplicity two.
    """
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    if not R > 0:
        raise DomainError(f"radius must be positive, got {R}")
    if not lam < 0:
        raise DomainError(f"lambda must be negative, got {lam}")
    k = float(np.sqrt(-lam))
    iv, kv = bessel_ik_int(n, k * R)
    return R * iv * kv


# ---------------------------------------------------------------------------
# root finding on a monotone branch


def _bracket_and_solve(f, points, step: float, tol: float, increasing: bool):
    """Root of the monotone function f on (-inf, 0); f is in lambda < 0.

    f is evaluated at every abscissa in ``points`` (memoized assemblies cost
    nothing), and the nearest of them on each side of the sign change bound
    the bracket.  A side with no such point is found by one march from the
    nearest point on the other: toward 0 by min(a + step, a/8), toward
    -infinity by max(a - step, 8a), with ``step`` widening 4-fold after each
    step.  ``step = inf`` is a geometric march by 8; a step of a few tol |a|
    starts next to a point near the root (a coarse grid's root of the same
    branch).  Brent's method then solves on the bracket; on one already
    narrower than tol |lambda| it evaluates f at no new abscissa and returns
    the end with the smaller |f|.  Returns None when the march toward 0
    passes -1e-14 without a sign change; raises DivergenceError when the
    march toward -infinity passes BRACKET_FLOOR.
    """
    sign_at_left = -1.0 if increasing else 1.0  # sign of f near -infinity
    lo = hi = None
    for lam in sorted(points):
        v = f(lam)
        if v == 0:
            return lam
        if np.sign(v) == sign_at_left:
            lo, f_lo, hi = lam, v, None
        elif hi is None:
            hi, f_hi = lam, v
    if lo is None or hi is None:
        rightward = hi is None  # from the -infinity side toward 0
        b, f_b = (lo, f_lo) if rightward else (hi, f_hi)
        # while f(b) is nonzero and on the side the march started from
        while (np.sign(f_b) == sign_at_left) == rightward and f_b != 0:
            a = b
            b = min(a + step, a / 8) if rightward else max(a - step, 8 * a)
            if b > -1e-14:
                return None  # no crossing before lambda -> 0-
            if b < BRACKET_FLOOR:
                raise DivergenceError(f"bracket expansion passed lambda = {BRACKET_FLOOR:g}")
            f_b, step = f(b), 4 * step
        lo, hi = sorted([a, b])
    # imported here: scipy.optimize adds about 10 MB to a process that finds no root
    from scipy.optimize import brentq

    # brentq returns an end where f is 0 as it is
    return brentq(f, lo, hi, rtol=max(tol, RTOL_FLOOR), xtol=1e-300)


#: fewest nodes of the coarse pass that seeds each root.  At 128 nodes the
#: top 8 of the kite, ellipse(2, 1) and a mirror-free curve are within
#: 5e-13 of their values at 256 nodes from kappa d = 0.5 to 60, whether the
#: split runs on the grid itself or on refined rows (``bie._refinement``),
#: so the coarse root differs from the root at N by discretization error
#: alone.  On a 2-core box an assembly of the kite at lambda = -5
#: (``bie.assemble_S``, medians of 15 in one call scope) took 0.9 ms there,
#: 2.7 ms at N = 256 and 9.0 ms at N = 512; at lambda = -8, on 2-fold
#: refined rows at 128 nodes, 2.5 ms
COARSE_N = 128


def _coarse_nodes(k: int, N: int) -> int | None:
    """Nodes of the pass that seeds branches 1..k at N: max(COARSE_N, 8 k),
    the fewest at which ``count <= N/8`` admits k branches, if at most N/2;
    else None, and no coarse pass runs."""
    Nc = max(COARSE_N, 8 * k)
    return Nc if 2 * Nc <= N else None


def _solve_branch(memo: _Memo, alpha: float, n: int, tol: float, points,
                  step: float, basis: np.ndarray | None = None) -> tuple[float, float]:
    """Root of lambda mu_n(S(lambda)) = 1/alpha on the memo's grid, bracketed
    from ``points`` by ``step`` (``_bracket_and_solve``), and the zero of the
    secant through the nearest evaluated abscissae on either side of it,
    which costs no assembly.  Abscissae new to the memo are evaluated with
    ``basis`` (``_mu_n``)."""

    def f(lam: float) -> float:
        return lam * memo.mu(lam, n, basis) - 1.0 / alpha

    root = _bracket_and_solve(f, points, step, tol, increasing=True)
    if root is None:
        raise DivergenceError("dispersion root escaped toward lambda = 0")
    values = {lam: f(lam) for lam in memo.mus}
    lo = max(lam for lam, v in values.items() if v <= 0)
    if values[lo] == 0:
        return float(root), lo
    hi = min(lam for lam, v in values.items() if v > 0)
    return float(root), lo - values[lo] * (hi - lo) / (values[hi] - values[lo])


def find_eigenvalue(curve: Curve, alpha: float, n: int, tol: float = 1e-9,
                    N: int = 256) -> tuple[float, float, float | None]:
    """Unique root of lambda mu_n(S(lambda)) = 1/alpha for alpha < 0.

    Returns (lambda_n, birman_schwinger_residual, error_estimate).  The
    residual is |alpha lambda_n mu_n(S(lambda_n)) - 1|, with mu_n the value
    the root finder read at lambda_n, from the assembly that found the root:
    after a coarse pass the Ritz value of that assembly, else (and where the
    Ritz gate fails) its dense eigenvalue.  It measures how well the root
    finder solved the discrete equation, not how close lambda_n is to the
    true eigenvalue.

    The branch is first solved on N_c = ``_coarse_nodes(k, N)`` nodes, k the
    largest branch of the enclosing call (n for a lone call), with a memo
    of its own in the same call scope.  Both solves take the one bracketing
    loop of ``_bracket_and_solve``.  The coarse one starts from the memo's
    abscissae, or from -max(1, 1/(2 alpha^2)) when it is empty, and marches
    by factors of 8; so does the one at N when no coarse pass runs.  Else
    the one at N starts from the coarse root lambda_hat(N_c) alone, with a
    first step of max(tol, RTOL_FLOOR) |lambda_hat| / 2 that widens 4-fold,
    no step moving lambda by more than a factor of 8: usually two
    assemblies at N.  lambda_hat is the zero of the secant through the
    final bracket on a grid, and error_estimate = |lambda_hat(N) -
    lambda_hat(N_c)| is a discretization-error estimate that the residual
    cannot give, at no assembly.  It is None when no coarse pass runs
    (2 N_c > N).

    The coarse memo keeps the top k + 4 eigenvectors of each of its
    assemblies (``_Memo.drop_vectors_above`` drops those no later branch
    reads).  Those at the abscissa brentq returned as the coarse root span
    the basis (``_ritz_basis``) from which the pass at N takes mu_1..mu_k
    by one Rayleigh-Ritz step per assembly, with no dense eigensolve.  An
    abscissa whose Ritz values fail their gate (``_ritz_values``: a
    residual too large for its gap, or a zero gap) takes the dense
    eigensolve instead; so does every abscissa when no coarse pass runs,
    or when a branch solved after a lower one finds its coarse root's
    vectors dropped.
    """
    if not -math.inf < alpha < 0:
        raise ParameterError(f"find_eigenvalue needs finite alpha < 0, got {alpha}")
    _check_tol(tol)
    # 1/(2 alpha^2) overflows, or alpha^2 underflows to 0, for |alpha| below
    # about 1.5e-154
    seed = max(1.0, 4.0 / alpha ** 2 / 8) if alpha ** 2 > 0 else math.inf
    if seed == math.inf:
        raise ParameterError(f"alpha={alpha} is too close to 0: the root bracket seed "
                             "1/(2 alpha^2) overflows")
    with _branch(curve, n, N) as memo:
        coarse = basis = None
        Nc = _coarse_nodes(memo.k, N)
        points, step = list(memo.mus) or [-seed], math.inf
        if Nc is not None:
            with _branch(curve, memo.k, Nc, memo.k + _RITZ_EXTRA) as coarse_memo:
                lam_c, coarse = _solve_branch(coarse_memo, alpha, n, tol,
                                              list(coarse_memo.mus) or [-seed], math.inf)
                # brentq returns an evaluated abscissa, whose vectors went
                # only if a lower root of this call was found first
                V = coarse_memo.eigvecs.get(lam_c)
                coarse_memo.drop_vectors_above(lam_c)
            if V is not None:
                basis = _ritz_basis(V, _grid(curve, Nc), _grid(curve, N))
            # a step of at least brentq's rtol floor moves off the coarse
            # root however small tol is
            points, step = [coarse], max(tol, RTOL_FLOOR) * abs(coarse) / 2
        root, lam_hat = _solve_branch(memo, alpha, n, tol, points, step, basis)
        estimate = None if coarse is None else abs(lam_hat - coarse)
        # brentq returns an abscissa it evaluated, so this reads the memo
        residual = abs(alpha * root * memo.mu(root, n) - 1.0)
    return root, float(residual), estimate


# ---------------------------------------------------------------------------
# spectrum enumeration


@dataclass(frozen=True)
class EigenvalueEntry:
    n: int
    lam: float
    residual: float
    multiplicity: int = 1
    #: |lambda_hat(N) - lambda_hat(N_c)| (find_eigenvalue); None without a
    #: coarse pass
    error_estimate: float | None = None


@dataclass(frozen=True)
class SpectrumResult:
    alpha: float
    curve_name: str
    N: int
    tol: float
    eigenvalues: tuple[EigenvalueEntry, ...]
    kind: str = "oblique"
    empty_branches: tuple[int, ...] = ()

    def lambdas(self) -> np.ndarray:
        return np.array([e.lam for e in self.eigenvalues])

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "curve": self.curve_name,
            "N": self.N,
            "tol": self.tol,
            "kind": self.kind,
            "empty_branches": list(self.empty_branches),
            "eigenvalues": [
                {"n": e.n, "lambda": e.lam, "residual": e.residual,
                 "multiplicity": e.multiplicity, "error_estimate": e.error_estimate}
                for e in self.eigenvalues
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _annotate_multiplicities(entries: list[EigenvalueEntry]) -> list[EigenvalueEntry]:
    """Cluster roots closer than 1e-6 |lambda| and stamp each entry with its
    cluster size (symmetry-forced degeneracies, e.g. circle pairs)."""
    entries = sorted(entries, key=lambda e: -e.lam)
    out: list[EigenvalueEntry] = []
    i = 0
    while i < len(entries):
        j = i + 1
        while j < len(entries) and \
                abs(entries[j].lam - entries[i].lam) <= 1e-6 * abs(entries[i].lam):
            j += 1
        for e in entries[i:j]:
            out.append(replace(e, multiplicity=j - i))
        i = j
    return out


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")


def _check_alpha(alpha: float) -> None:
    if alpha == 0 or not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite and nonzero, got {alpha}")


def _check_count(alpha: float, count: int, N: int, tol: float) -> None:
    _check_alpha(alpha)
    _check_tol(tol)
    if count < 1:
        raise ParameterError("count must be >= 1")
    if count > N // 8:
        raise ResolutionError(f"count={count} needs N >= {8 * count}, got N={N}")


def enumerate_spectrum(curve: Curve, alpha: float, count: int, N: int = 256,
                       tol: float = 1e-9) -> SpectrumResult:
    """First ``count`` discrete eigenvalues, non-increasing; empty for alpha > 0.

    The branches share one memo of S(lambda), so each lambda is assembled
    once: branch n brackets its root between abscissae that branches 1..n-1
    already evaluated, lambda_{n-1} among them.
    """
    _check_count(alpha, count, N, tol)
    if alpha > 0:
        # verify the mechanism: every eigenvalue of alpha lambda S(lambda)
        # stays below 1 on a probe grid, so 1 is never hit
        with _branch(curve, 1, N) as memo:
            for lam in np.geomspace(1e-2, 100, 20):
                top = alpha * (-lam) * memo.mu(-lam, 1)
                if top >= 1:
                    raise NumericalInstabilityError(
                        f"unexpected unit crossing at lambda={-lam} for alpha={alpha}"
                    )
        return SpectrumResult(alpha, curve.name, N, tol, ())

    entries = []
    with _branch(curve, count, N):
        for n in range(1, count + 1):
            lam_n, res, estimate = find_eigenvalue(curve, alpha, n, tol=tol, N=N)
            entries.append(EigenvalueEntry(n, lam_n, res, error_estimate=estimate))
    entries = _annotate_multiplicities(entries)
    return SpectrumResult(alpha, curve.name, N, tol, tuple(entries))


# ---------------------------------------------------------------------------
# eigenfunctions


@dataclass(frozen=True)
class EigenfunctionField:
    points: np.ndarray
    values: np.ndarray
    density: np.ndarray
    lam: float
    n: int
    grid: QuadratureGrid = field(repr=False)


@bie._call()
def eigenfunction(curve: Curve, alpha: float, lambda_n: float, n: int,
                  spatial_grid, N: int = 256, tol: float = 1e-6) -> EigenfunctionField:
    """Field Psi_lambda phi of the eigenfunction on branch n at lambda_n.

    phi is the eigenvector of alpha lambda S(lambda) for the eigenvalue nearest
    1, normalized to unit L2 norm on the curve, and the field is summed by
    bie.eval_Psi, on a density refined by each target's distance to the curve
    and, for a near target, only in a window around its foot node where
    that pays.
    That eigenvalue must lie within 10 tol of 1, so tol is the root tolerance
    lambda_n was found with; otherwise lambda_n and n are reported as
    inconsistent.  A zero or non-finite alpha, or a tol that is not finite and
    positive, raises ParameterError before anything is assembled.  The grid
    is read from the call scope, so a caller whose scope found lambda_n
    reuses its grid and splitting blocks; S(lambda_n) is assembled again for
    its eigenvectors.
    """
    _check_alpha(alpha)
    _check_tol(tol)
    if not lambda_n < 0:
        raise DomainError("lambda_n must be negative")
    g = _grid(curve, N)
    sp = SpectralParameter.make(lambda_n)
    w_all, V = np.linalg.eigh(bie.assemble_S(g, sp).entries)
    bs_vals = alpha * lambda_n * w_all
    idx = int(np.argmin(np.abs(bs_vals - 1.0)))
    if abs(bs_vals[idx] - 1.0) > 10 * tol:
        raise NumericalInstabilityError(
            f"no eigenvalue of alpha lambda S near 1 at lambda={lambda_n} "
            f"(nearest is {bs_vals[idx]:.6g}); lambda_n and n are inconsistent"
        )
    # the columns of V are orthonormal, so phi has unit L2 norm on the curve
    phi = V[:, idx] / np.sqrt(g.weight * g.jacobians)
    pts = spatial_grid.points if isinstance(spatial_grid, VolumeGrid) \
        else np.atleast_2d(np.asarray(spatial_grid, dtype=float))
    values = bie.eval_Psi(g, phi, sp, pts)
    return EigenfunctionField(pts, values, phi, float(lambda_n), n, g)


@bie._call()
def oblique_residual(g: QuadratureGrid, density: np.ndarray,
                     sp: SpectralParameter, alpha: float) -> float:
    """Relative residual of the oblique transmission condition for Psi density.

    The condition (nu1 + i nu2)(f_+ - f_-) = -alpha (dzbar f_+ + dzbar f_-)
    reduces, through the extrapolated jump identities, to
    jump_estimate = alpha * dzbar_sum.  A zero density, where both sides
    vanish, raises ParameterError.
    """
    jump, dzbar_sum = bie.jump_traces(g, density, sp)
    return _relative_residual(jump, alpha * dzbar_sum)


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|) of a transmission condition; raises
    ParameterError when both sides vanish, as they do for a zero input."""
    den = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
    if den == 0:
        raise ParameterError("residual undefined: both sides vanish (zero input)")
    return float(np.linalg.norm(lhs - rhs) / den)


# ---------------------------------------------------------------------------
# resolvent application


@dataclass(frozen=True)
class KreinResult:
    volume: VolumeGrid
    values: np.ndarray
    density: np.ndarray
    grid: QuadratureGrid = field(repr=False)
    sp: SpectralParameter = field(repr=False)
    alpha: float = 0.0


def _free_resolvent_on_grid(sp: SpectralParameter, vol: VolumeGrid,
                            f: np.ndarray) -> np.ndarray:
    """(-Delta - lambda)^-1 f by convolution quadrature on the uniform grid.

    The self-cell weight integrates the kernel exactly over a disc of equal
    area: int_0^a K_0(k rho) rho d rho = (1 - k a K_1(k a)) / k^2.
    """
    from .specfun import bessel_k_array

    kap = sp.kappa
    a = vol.h / np.sqrt(np.pi)
    ka = kap * a
    self_cell = (1.0 - ka * bessel_k_array(1, np.array([ka]))[0]) / kap ** 2

    def kernel_at(x: np.ndarray) -> np.ndarray:
        r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
        return bessel_k_array(0, _bessel_arg(kap, r)) / (2 * np.pi)

    return bie._lattice_convolve(vol, kernel_at, self_cell / vol.weight, f).ravel()


@bie._call()
def krein_apply(curve: Curve, alpha: float, sp: SpectralParameter,
                f_samples: np.ndarray, vol: VolumeGrid, N: int = 256) -> KreinResult:
    """Resolvent of the transmission operator applied to volume samples f.

    g = free + alpha Psi_lambda (I - alpha lambda S(lambda))^-1 Psi*_lambdabar f.
    The free part R_lambda f and the right-hand side Psi*_lambdabar f =
    -2i dzbar (R_lambda f) on the curve are FFT convolutions on the volume
    grid (bie.apply_Psi_star); the correction is summed by bie.eval_Psi, on a
    density refined by each node's distance to the curve, for a near node
    only in a window around its foot node where that pays, and for a node
    far from the curve by Graf's expansion about it.  f_samples are the
    values of f at the nodes of vol: another number of samples raises
    ConfigurationError, and a non-finite alpha or sample ParameterError.
    The curve must lie at least two node spacings inside the outermost
    volume nodes, else ConfigurationError.  At alpha != 0, a volume node on
    the curve raises SingularityError in bie.eval_Psi.
    When I - alpha lambda S is nearly singular, the PoleProximityError names
    the branch n whose alpha lambda mu_n lies nearest 1, taken from the same
    assembly.  At real lambda, where I - alpha lambda S is symmetric, the
    gate reads its singular values |1 - alpha lambda mu_n| from the one
    eigensolve that names the branch; at complex lambda it takes an SVD.
    """
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    f = bie._volume_samples(vol, f_samples)
    g = make_grid(curve, N)
    free = _free_resolvent_on_grid(sp, vol, f)
    if alpha == 0:
        return KreinResult(vol, free, np.zeros(g.N, complex), g, sp, alpha)

    op = bie.assemble_S(g, sp)
    # I - alpha lambda S in the orthonormal basis of S's entries, where a
    # nodal density x is d x, d = sqrt(jac): the gate reads its singular
    # values, and the solve for eta runs on it
    B = np.eye(g.N) - alpha * sp.lam * op.entries
    bs_vals = None
    if sp.lam.imag == 0:
        # B is real symmetric, so its singular values are |1 - alpha lambda mu_n|
        bs_vals = alpha * sp.lam * op.eigenvalues_desc()
        smin = float(np.abs(1.0 - bs_vals).min())
    else:
        smin = float(np.linalg.svd(B, compute_uv=False)[-1])
    if smin <= POLE_GATE:
        if bs_vals is None:
            bs_vals = alpha * sp.lam * op.eigenvalues_desc()
        n = int(np.argmin(np.abs(bs_vals - 1.0)))
        raise PoleProximityError(
            f"resolvent parameter lambda={sp.lam} too close to the point "
            f"spectrum: nearest eigenvalue on branch {n + 1}, "
            f"|1 - alpha lambda mu_{n + 1}| = {abs(1.0 - bs_vals[n]):.3g}, "
            f"smallest singular value of I - alpha lambda S {smin:.3g}"
        )
    rhs = bie.apply_Psi_star(g, sp.conjugate, f, vol)
    d = np.sqrt(g.jacobians)
    eta = np.linalg.solve(B, d * rhs) / d
    corr = bie.eval_Psi(g, eta, sp, vol.points)
    return KreinResult(vol, free + alpha * corr, eta, g, sp, alpha)


def _direct_volume_field(kernel, sp, vol: VolumeGrid, f: np.ndarray,
                         points: np.ndarray) -> np.ndarray:
    """Integral of kernel(x - y) f(y) dy at points, by the volume grid's
    trapezoid rule.  For kernel_U (read from this module when called, so a
    wrapper put in its place is recognised), the volume nodes at least 2R
    from the centroid of the points, R the points' largest distance from
    it, are summed by Graf's local expansion about that centroid
    (``bie._local_sum``) where ``bie._graf_order`` gives an order; every
    other node is summed directly."""
    f = np.asarray(f, dtype=complex).ravel()
    plan = bie._graf_plan(sp.kappa, points, vol.points) if kernel is kernel_U else None
    near = ~bie._far(plan, len(vol.points))
    field = bie._kernel_sum(kernel, sp, points, vol.points[near], f[near])
    if plan is not None:
        field += bie._local_sum(sp.kappa, plan, vol.points[plan.far], f[plan.far], points) \
            / (2 * np.pi)
    return vol.weight * field


#: largest |f| on the outermost ring of volume nodes, relative to max |f|,
#: that the residual's free part accepts: it integrates by parts over the box
#: and differentiates the samples spectrally, and both assume f vanishes at
#: the edge
EDGE_DECAY = 1e-6


def _dzbar_samples(vol: VolumeGrid, f: np.ndarray) -> np.ndarray:
    """dzbar f = (d_x + i d_y) f / 2 of grid samples, by FFT differentiation;
    raises ConfigurationError when f does not decay at the box edge."""
    fg = vol.reshape(bie._volume_samples(vol, f))
    ring = max(np.abs(fg[[0, -1], :]).max(), np.abs(fg[:, [0, -1]]).max())
    peak = np.abs(fg).max()
    if ring > EDGE_DECAY * peak:
        raise ConfigurationError(
            f"f_samples do not decay at the volume box edge: max |f| there is "
            f"{ring / peak:.3g} of max |f|, above {EDGE_DECAY:g}"
        )
    k = []
    for n in vol.shape:
        kn = 2 * np.pi * np.fft.fftfreq(n, vol.h)
        if n % 2 == 0:
            kn[n // 2] = 0.0  # the Nyquist mode has no derivative
        k.append(kn)
    symbol = 0.5j * (k[0][:, None] + 1j * k[1][None, :])
    return np.fft.ifft2(symbol * np.fft.fft2(fg)).ravel()


@bie._call()
def krein_transmission_residual(result: KreinResult, f_samples: np.ndarray) -> float:
    """Relative residual of the oblique transmission condition for g.

    The free part R_lambda f is continuous with its first derivatives across
    the curve, so it drops from the jump on the left and contributes twice
    its dzbar on the right.  That dzbar is taken in the log-kernel form
    integral of U(y - x) dzbar f(x) dx, summed once at the curve nodes on the
    volume grid with dzbar f from the samples (``_direct_volume_field``:
    directly over the volume nodes near the curve, by Graf's local expansion
    over the far ones): a quadrature independent of the FFT route of the
    adjoint map, so the residual still tests Psi* f.
    f must decay at the box edge (EDGE_DECAY), else ConfigurationError.  A
    zero f, where both sides vanish, raises ParameterError.
    """
    g, sp, alpha, vol = result.grid, result.sp, result.alpha, result.volume
    dzbar_f = _dzbar_samples(vol, f_samples)
    jump, dzbar_sum = bie.jump_traces(g, result.density, sp)
    dz_free = _direct_volume_field(kernel_U, sp, vol, dzbar_f, g.points)
    # lhs = nu (g_+ - g_-) = -i alpha jump ;  rhs = -alpha (dzbar g_+ + dzbar g_-)
    lhs = -1j * alpha * jump
    rhs = -alpha * (2 * dz_free + alpha * 1j * dzbar_sum)
    return _relative_residual(lhs, rhs)


# ---------------------------------------------------------------------------
# delta-interaction comparison


def delta_spectrum(curve: Curve, alpha: float, count: int, N: int = 256,
                   tol: float = 1e-9) -> SpectrumResult:
    """Eigenvalues of the delta interaction: roots of alpha mu_n(S(lambda)) = -1.

    Branches with no root are reported in ``empty_branches`` (the delta
    interaction has finitely many eigenvalues), not as errors.  As in
    enumerate_spectrum, the branches share one memo of S(lambda).
    """
    _check_count(alpha, count, N, tol)
    if alpha > 0:
        # alpha S(lambda) is positive, so -1 is never an eigenvalue
        return SpectrumResult(alpha, curve.name, N, tol, (), kind="delta",
                              empty_branches=tuple(range(1, count + 1)))

    entries = []
    empty = []
    with _branch(curve, count, N) as memo:
        for n in range(1, count + 1):

            def f(lam: float) -> float:
                # decreasing in lambda: mu_n increases, alpha < 0
                return alpha * memo.mu(lam, n) + 1.0

            root = _bracket_and_solve(f, list(memo.mus) or [-1.0], math.inf, tol,
                                      increasing=False)
            if root is None:
                empty.append(n)
                continue
            residual = abs(alpha * memo.mu(root, n) + 1.0)
            entries.append(EigenvalueEntry(n, float(root), float(residual)))
    entries.sort(key=lambda e: -e.lam)
    return SpectrumResult(alpha, curve.name, N, tol, tuple(entries),
                          kind="delta", empty_branches=tuple(empty))


# ---------------------------------------------------------------------------
# CSV emission


def dispersion_csv_rows(curve: Curve, branches, lambdas, N: int = 256) -> list[str]:
    """Rows 'lambda,n,value' for a sweep, header included.

    Every branch is checked before any assembly, and the rows are computed
    in full before they are returned, so a caller writing them to a file
    writes nothing when the sweep fails.  The branches share one memo of
    S(lambda): B branches over L values of lambda cost L assemblies.
    """
    branches = list(branches)
    for n in branches:
        _check_branch(n, N)
    rows = ["lambda,n,value"]
    with _branch(curve, max(branches, default=1), N):
        for n in branches:
            for lam in lambdas:
                s = dispersion(curve, n, lam, N)
                rows.append(f"{s.lam:.17g},{s.n},{s.value:.17g}")
    return rows

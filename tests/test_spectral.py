import dataclasses
import gc
import json
import math

import numpy as np
import pytest

from obliqueshell import bie, dirac, geometry, kernels, spectral
from obliqueshell.errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    NumericalInstabilityError,
    ParameterError,
    PoleProximityError,
    ResolutionError,
    SingularityError,
)
from obliqueshell.kernels import SpectralParameter, kernel_U


def test_dispersion_matches_circle_oracle(circle):
    # branch 1 on the unit circle is the rotation-invariant mode
    for lam in (-0.5, -2.0, -10.0):
        s = spectral.dispersion(circle, 1, lam, N=64)
        assert s.value == pytest.approx(
            lam * spectral.circle_oracle_mu(0, 1.0, lam), rel=1e-10)
    # branches 2 and 3 share the first angular mode
    s2 = spectral.dispersion(circle, 2, -2.0, N=64)
    s3 = spectral.dispersion(circle, 3, -2.0, N=64)
    ref = -2.0 * spectral.circle_oracle_mu(1, 1.0, -2.0)
    assert s2.value == pytest.approx(ref, rel=1e-10)
    assert s3.value == pytest.approx(ref, rel=1e-10)


def test_dispersion_monotone_increasing(circle, kite):
    for curve in (circle, kite):
        vals = [spectral.dispersion(curve, 1, lam, N=64).value
                for lam in (-100.0, -10.0, -1.0, -0.1, -1e-3)]
        assert np.all(np.diff(vals) > 0)
        # heads to -infinity like -sqrt(|lambda|)/2
        assert vals[0] < -4
        assert -1 < vals[-1] < 0  # approaches 0 from below


def test_dispersion_validation(circle):
    with pytest.raises(DomainError):
        spectral.dispersion(circle, 1, 0.5)
    with pytest.raises(ParameterError):
        spectral.dispersion(circle, 0, -1.0)
    with pytest.raises(ResolutionError):
        spectral.dispersion(circle, 20, -1.0, N=64)


def test_circle_oracle_mu_validation():
    with pytest.raises(DomainError):
        spectral.circle_oracle_mu(-1, 1.0, -1.0)
    with pytest.raises(DomainError):
        spectral.circle_oracle_mu(0, -1.0, -1.0)
    with pytest.raises(DomainError):
        spectral.circle_oracle_mu(0, 1.0, 1.0)


def test_find_eigenvalue_against_fixture(circle, circle_roots):
    roots = circle_roots["oblique_roots_per_fourier_order"]["-1.0"]
    lam1, res1, _ = spectral.find_eigenvalue(circle, -1.0, 1, N=128)
    assert lam1 == pytest.approx(roots[0], rel=1e-8)
    assert res1 <= 1e-8
    # branch 2 is the first degenerate angular mode
    lam2, _, _ = spectral.find_eigenvalue(circle, -1.0, 2, N=128)
    assert lam2 == pytest.approx(roots[1], rel=1e-8)


def test_find_eigenvalue_validation(circle):
    with pytest.raises(ParameterError):
        spectral.find_eigenvalue(circle, 1.0, 1)
    with pytest.raises(ParameterError):
        spectral.find_eigenvalue(circle, -1.0, 1, tol=0.0)
    with pytest.raises(ResolutionError):
        spectral.find_eigenvalue(circle, -1.0, 40, N=64)


def test_kite_roots_across_assembly_path_switch(kite):
    # alpha = -1: the root brackets straddle the switch between the MK and
    # graded-panel paths, Re kappa * diam = 10 for N >= 128 (lambda = -11.1
    # on the kite): branch 13's root lies on the MK side (kappa d = 9.83),
    # branch 14's on the panel side (10.25).  References are MK-path roots
    # at N=512 with the switch moved to kappa d = 11, where the MK path still
    # matches the circle's closed form to 7e-12.
    refs = {13: -10.741630167127695, 14: -11.664223832082476}
    for n, ref in refs.items():
        lam, res, _ = spectral.find_eigenvalue(kite, -1.0, n, N=128)
        assert lam == pytest.approx(ref, rel=1e-8), n
        assert res <= 1e-8
    # lambda_14 at N=512, seeded from its 128-node root on the same path; a
    # mismatched panel assembly makes mu_14 jump at the switch and the root
    # collapse onto it
    lam, res, _ = spectral.find_eigenvalue(kite, -1.0, 14, N=512)
    assert res <= 1e-8
    assert lam == pytest.approx(refs[14], rel=1e-9)


def test_graded_panel_ground_state_refines_on_non_circles(kite, ellipse):
    # alpha = -0.2 puts the ground state at kappa * diam = 29.6 on the kite
    # and 40.0 on the ellipse, far past log2 N: every assembly near the root
    # takes the graded-panel path, where the circle hides pairing errors.
    # Both roots are solved to 1e-12, the agreement asked of them; the N=256
    # call seeds from its own 128-node pass, whose estimate reads the same gap
    roots = {}
    for curve in (kite, ellipse):
        lam128, _, _ = spectral.find_eigenvalue(curve, -0.2, 1, tol=1e-12, N=128)
        lam256, res, estimate = spectral.find_eigenvalue(curve, -0.2, 1, tol=1e-12, N=256)
        assert lam256 == pytest.approx(lam128, rel=1e-12), curve.name
        assert estimate <= 1e-12 * abs(lam256), curve.name
        assert res <= 1e-8
        roots[curve.name] = lam256
    assert roots["kite"] == pytest.approx(-97.542068938, rel=1e-10)


def _record_assemblies(monkeypatch) -> list[tuple[int, complex]]:
    """Every (N, kappa) assembled from now on, by either quadrature path."""
    kappas = []
    for name in ("_single_layer_weights_mk", "_single_layer_weights_local"):
        def record(grid, kappa, assemble=getattr(bie, name)):
            kappas.append((grid.N, complex(kappa)))
            return assemble(grid, kappa)
        monkeypatch.setattr(bie, name, record)
    return kappas


def test_no_branch_assembles_a_kappa_twice(monkeypatch, circle, kite):
    # the branches of one public call share their assemblies: no kappa is
    # assembled twice within a whole enumerate_spectrum or delta_spectrum
    # call, and each assembly is one _mu_n evaluation
    kappas = _record_assemblies(monkeypatch)
    mu_n_calls = []
    mu_n = spectral._mu_n
    monkeypatch.setattr(spectral, "_mu_n",
                        lambda *args: mu_n_calls.append(1) or mu_n(*args))
    for run in (lambda: spectral.enumerate_spectrum(kite, -1.0, 6, N=64),
                lambda: spectral.delta_spectrum(circle, -0.1, 3, N=64),
                lambda: spectral.find_eigenvalue(kite, -1.0, 3, N=64),
                # a coarse pass at 128 nodes, whose Ritz bases come from the
                # eigenvectors of its own assemblies
                lambda: spectral.enumerate_spectrum(kite, -1.0, 4, N=256)):
        kappas.clear()
        mu_n_calls.clear()
        run()
        assert kappas and len(set(kappas)) == len(kappas)
        assert len(mu_n_calls) == len(kappas)
    assert {N for N, _ in kappas} == {128, 256}


def test_branches_bracket_from_the_shared_memo(monkeypatch, kite):
    # branch n starts from abscissae earlier branches evaluated, so the
    # whole spectrum costs fewer assemblies than its branches solved alone
    kappas = _record_assemblies(monkeypatch)
    spectral.enumerate_spectrum(kite, -1.0, 6, N=64)
    shared = len(kappas)
    kappas.clear()
    for n in range(1, 7):
        spectral.find_eigenvalue(kite, -1.0, n, N=64)
    assert shared < 0.8 * len(kappas)


def _cold(monkeypatch):
    """Run every root finder without the coarse pass, from cold brackets."""
    monkeypatch.setattr(spectral, "_coarse_nodes", lambda k, N: None)


def test_seeded_roots_match_the_cold_path(monkeypatch, circle, ellipse, kite):
    # N=256 seeds every root from a 128-node pass; the roots agree with
    # cold Brent brackets at N to the tolerance, with no (N, kappa) pair
    # assembled twice and at most two assemblies per eigenvalue at N
    kappas = _record_assemblies(monkeypatch)
    seeded = {}
    for curve in (circle, ellipse, kite):
        kappas.clear()
        res = spectral.enumerate_spectrum(curve, -1.0, 9, N=256, tol=1e-9)
        assert len(set(kappas)) == len(kappas), curve.name
        fine = [k for k in kappas if k[0] == 256]
        assert len(fine) <= 2 * 9 and {N for N, _ in kappas} == {128, 256}, curve.name
        assert all(e.error_estimate is not None for e in res.eigenvalues)
        seeded[curve.name] = res.lambdas()
    _cold(monkeypatch)
    for curve in (circle, ellipse, kite):
        kappas.clear()
        cold = spectral.enumerate_spectrum(curve, -1.0, 9, N=256, tol=1e-9)
        assert {N for N, _ in kappas} == {256}
        assert all(e.error_estimate is None for e in cold.eigenvalues)
        np.testing.assert_allclose(seeded[curve.name], cold.lambdas(), rtol=1e-9,
                                   err_msg=curve.name)


@pytest.mark.parametrize("name", ["kite", "ellipse", "circle", "mirror_free"])
def test_ritz_values_match_the_dense_eigensolve(request, name):
    # a basis from the top k + 4 eigenvectors at lambda on 128 nodes gives
    # the top k on 512 nodes at lambda (1 + 1e-8), about as far as a root at
    # N lies from the coarse one, as the dense eigensolve does: within
    # 64 eps |mu_1|, where two dense solvers (eigvalsh, subset eigh) differ
    # by up to 32 eps |mu_1| at kappa d = 10.
    # Up to kappa d = 8 the gate accepts them, also on the circle, whose top
    # k hold double eigenvalues; at kappa d = 10, the limit of the splitting
    # path, the kite's basis fails it and the dense eigensolve would run
    curve, k = request.getfixturevalue(name), 9
    eps = np.finfo(float).eps
    with bie._call():
        coarse, fine = spectral._grid(curve, 128), spectral._grid(curve, 512)
        for kd in (0.5, 2.0, 5.0, 8.0, 10.0):
            lam = -(kd / curve.diameter) ** 2
            _, V = bie.assemble_S(coarse, SpectralParameter.make(lam)).eigenvalues_desc(
                k, k + spectral._RITZ_EXTRA)
            Q = spectral._ritz_basis(V, coarse, fine)
            assert Q.shape == (512, k + spectral._RITZ_EXTRA)
            np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-14)
            S = bie.assemble_S(fine, SpectralParameter.make(lam * (1 + 1e-8))).entries
            theta = spectral._ritz_values(S, Q, k)
            assert theta is not None or kd == 10.0, (name, kd)
            if theta is not None:
                mu = np.linalg.eigvalsh(S)[::-1][:k]
                assert np.abs(theta - mu).max() <= 64 * eps * mu[0], (name, kd)


def test_ritz_gate_rejects_a_zero_gap_and_a_poor_basis():
    # theta_k = theta_(k+1) (a degenerate pair split at k) and a basis far
    # from the top eigenvectors both fail the gate, so the dense eigensolve
    # runs; an exact invariant subspace passes it
    S = np.diag([4.0, 3.0, 2.0, 2.0, 1.0, 0.5])
    exact = np.eye(6)[:, :5]
    assert spectral._ritz_values(S, exact, 2) == pytest.approx([4.0, 3.0], abs=0)
    assert spectral._ritz_values(S, exact, 3) is None
    poor = np.linalg.qr(exact + 1e-3 * np.random.default_rng(2).standard_normal((6, 5)))[0]
    assert spectral._ritz_values(S, poor, 2) is None


def test_fine_pass_takes_ritz_values_and_falls_back_to_the_same_roots(monkeypatch, kite):
    # every evaluation at N takes its Ritz values from the coarse root's
    # basis.  A perturbed basis fails the gate at every one of them, and the
    # dense eigensolve that then runs gives the roots of a run with no Ritz
    # step to the bit, and the Ritz roots to a few ulps
    outcomes = []  # every Ritz step's accepted values, or None
    values = spectral._ritz_values
    monkeypatch.setattr(spectral, "_ritz_values",
                        lambda *args: outcomes.append(values(*args)) or outcomes[-1])
    ritz = spectral.enumerate_spectrum(kite, -1.0, 4, N=256)
    assert outcomes and all(o is not None for o in outcomes)
    outcomes.clear()
    build = spectral._ritz_basis

    def perturbed(V, coarse, fine):
        Q = build(V, coarse, fine)
        noise = np.random.default_rng(1).standard_normal(Q.shape)
        return np.linalg.qr(Q + 1e-4 * noise)[0]

    monkeypatch.setattr(spectral, "_ritz_basis", perturbed)
    fallback = spectral.enumerate_spectrum(kite, -1.0, 4, N=256)
    assert len(outcomes) >= 4 and all(o is None for o in outcomes)
    monkeypatch.setattr(spectral, "_ritz_values", lambda *args: None)
    dense = spectral.enumerate_spectrum(kite, -1.0, 4, N=256)
    assert fallback.to_dict() == dense.to_dict()
    np.testing.assert_allclose(ritz.lambdas(), dense.lambdas(), rtol=1e-14, atol=0)


def test_ordered_branches_keep_the_vectors_of_their_coarse_roots(monkeypatch, circle,
                                                                 kite):
    # the coarse memo drops the vectors above each coarse root but the
    # nearest, yet every branch of an enumeration, the circle's double ones
    # included, builds its basis from the vectors at its own coarse root.
    # Out of order, a root whose vectors went takes the dense eigensolve
    bases = []
    build = spectral._ritz_basis
    monkeypatch.setattr(spectral, "_ritz_basis", lambda *args: bases.append(1) or build(*args))
    for curve in (circle, kite):
        bases.clear()
        spectral.enumerate_spectrum(curve, -1.0, 6, N=256)
        assert len(bases) == 6, curve.name
    with bie._call():
        res = spectral.enumerate_spectrum(kite, -1.0, 4, N=256)
        bases.clear()
        lam, _, _ = spectral.find_eigenvalue(kite, -1.0, 1, N=256)
    assert bases == [] and lam == pytest.approx(res.eigenvalues[0].lam, rel=1e-9)


def test_seeded_root_widens_from_a_poor_coarse_root(monkeypatch, kite):
    # a coarse root 1e-6 off, 2000 tolerances, is not bracketed by the first
    # step at N: the step widens 4-fold until the sign changes and Brent's
    # method finishes the bracket, still within the tolerance
    solve = spectral._solve_branch

    def perturbed(memo, *args, **kwargs):
        root, lam_hat = solve(memo, *args, **kwargs)
        return root, lam_hat * (1 + 1e-6) if memo.N == 128 else lam_hat

    kappas = _record_assemblies(monkeypatch)
    monkeypatch.setattr(spectral, "_solve_branch", perturbed)
    lam, res, estimate = spectral.find_eigenvalue(kite, -1.0, 3, N=256)
    assert len([k for k in kappas if k[0] == 256]) > 2
    assert estimate == pytest.approx(1e-6 * abs(lam), rel=1e-3)
    _cold(monkeypatch)
    cold, _, _ = spectral.find_eigenvalue(kite, -1.0, 3, N=256)
    assert lam == pytest.approx(cold, rel=1e-9)
    assert res <= 1e-8


def test_seeded_circle_spectrum_matches_the_frozen_roots(circle, circle_roots):
    # criterion 2's frozen roots, through the seeded path
    res = spectral.enumerate_spectrum(circle, -1.0, 10, N=256, tol=1e-10)
    roots = circle_roots["oblique_roots_per_fourier_order"]["-1.0"]
    expect = [roots[0]] + sum(([r, r] for r in roots[1:5]), []) + [roots[5]]
    np.testing.assert_allclose(res.lambdas(), expect, rtol=1e-10)
    assert all(e.residual <= 1e-8 and e.error_estimate <= 1e-10 * abs(e.lam)
               for e in res.eigenvalues)


def test_no_memo_outlives_a_call(monkeypatch, kite):
    # no call scope, with its memo, grids and blocks, outlives a public
    # call, also one that raises inside it, and the next call assembles as
    # often as a fresh one
    kappas = _record_assemblies(monkeypatch)
    touching = bie.make_volume_grid(1.5, 3)  # a node at the kite's (1, 0)
    failing = [
        (lambda: spectral.find_eigenvalue(kite, -1e-6, 1, N=32), DivergenceError),
        (lambda: dirac.nonrel_limit_study(kite, 1j, [8, 16], N=32, volume_box=touching),
         ConfigurationError),
    ]
    counts = []
    for run, error in [(None, None)] + failing:
        if run is not None:
            with pytest.raises(error):
                run()
            assert bie._SCOPE.get(None) is None
        kappas.clear()
        spectral.enumerate_spectrum(kite, -1.0, 3, N=64)
        counts.append(len(kappas))
        assert bie._SCOPE.get(None) is None
    assert counts[0] > 0 and counts == [counts[0]] * len(counts)


def test_no_grid_outlives_a_spectral_call(circle, kite):
    # brentq leaves a reference cycle around the function it solved; the
    # grid with its MK blocks must not wait for the cyclic collector
    def grids():
        return [o for o in gc.get_objects() if isinstance(o, geometry.QuadratureGrid)]

    gc.collect()
    gc.disable()
    try:
        before = len(grids())
        spectral.enumerate_spectrum(kite, -1.0, 3, N=64)
        spectral.find_eigenvalue(kite, -1.0, 2, N=64)
        spectral.delta_spectrum(circle, -0.1, 2, N=64)
        assert len(grids()) == before
    finally:
        gc.enable()


def test_results_keep_their_grid_without_mk_blocks(circle):
    # the grid a result keeps carries its fields only: the MK blocks of its
    # assembly went with the call
    vol = bie.make_volume_grid(2.0, 16)
    f = np.exp(-(vol.points ** 2).sum(-1))
    res = spectral.krein_apply(circle, -1.0, SpectralParameter.make(-2.0), f, vol, N=64)
    lam1, _, _ = spectral.find_eigenvalue(circle, -1.0, 1, N=64)
    ef = spectral.eigenfunction(circle, -1.0, lam1, 1, np.array([[0.0, 0.0]]), N=64)
    for g in (res.grid, ef.grid):
        assert set(vars(g)) == {field.name for field in dataclasses.fields(g)}
    assert bie._SCOPE.get(None) is None


def test_shared_memo_results_match_lone_branches(kite):
    # the roots of one call agree with each branch solved on its own
    # (own memo, own eigensolve subset) to the requested tolerance
    res = spectral.enumerate_spectrum(kite, -1.0, 6, N=64, tol=1e-11)
    for e in res.eigenvalues:
        lam, _, _ = spectral.find_eigenvalue(kite, -1.0, e.n, tol=1e-11, N=64)
        assert e.lam == pytest.approx(lam, rel=1e-10), e.n
        assert e.residual <= 1e-9


def test_bracket_and_solve_seed_independence():
    f = lambda lam: lam + 5.0  # increasing with root -5
    for seed in (0.5, 1000.0):
        root = spectral._bracket_and_solve(f, [-seed], math.inf, 1e-12, increasing=True)
        assert root == pytest.approx(-5.0, rel=1e-10)
    # decreasing function with no root on (-inf, 0)
    g = lambda lam: 1.0 + 1.0 / (1.0 - lam)
    assert spectral._bracket_and_solve(g, [-1.0], math.inf, 1e-12, increasing=False) is None


def test_bracket_from_known_abscissae():
    # the nearest known abscissa on each side of the root bounds the
    # bracket; no expansion step runs, and one known side suffices
    seen = []

    def f(lam):
        seen.append(lam)
        return lam + 5.0

    known = [-100.0, -7.0, -6.0, -2.0, -1.0]
    root = spectral._bracket_and_solve(f, known, math.inf, 1e-12, increasing=True)
    assert root == pytest.approx(-5.0, rel=1e-10)
    assert all(-6.0 <= lam <= -2.0 for lam in seen[len(known):])
    for one_side in ([-2.0, -1.0], [-7.0]):
        seen.clear()
        root = spectral._bracket_and_solve(f, one_side, math.inf, 1e-12, increasing=True)
        assert root == pytest.approx(-5.0, rel=1e-10)
        assert -1.0 not in seen[len(one_side):]  # no start besides the points
    assert spectral._bracket_and_solve(f, [-5.0], math.inf, 1e-12,
                                       increasing=True) == -5.0


def _evaluations(f):
    """f, and the list of the distinct abscissae it is evaluated at, in order."""
    seen = []

    def counted(lam):
        if lam not in seen:
            seen.append(lam)
        return f(lam)

    return counted, seen


def test_cold_march_visits_powers_of_eight():
    # from -s with an infinite step the one loop marches by factors of 8:
    # toward -infinity to a root at -1000 s, toward 0 to one at -s/1000
    s = 3.0
    far, seen = _evaluations(lambda lam: lam + 1000 * s)
    spectral._bracket_and_solve(far, [-s], math.inf, 1e-12, increasing=True)
    assert seen[:5] == [-s, -8 * s, -64 * s, -512 * s, -4096 * s]
    assert all(-4096 * s <= lam <= -512 * s for lam in seen[5:])
    near, seen = _evaluations(lambda lam: lam + s / 1000)
    spectral._bracket_and_solve(near, [-s], math.inf, 1e-12, increasing=True)
    assert seen[:5] == [-s, -s / 8, -s / 64, -s / 512, -s / 4096]
    assert all(-s / 512 <= lam <= -s / 4096 for lam in seen[5:])
    # a march that lands on the root returns it
    assert spectral._bracket_and_solve(lambda lam: lam + 64 * s, [-s], math.inf, 1e-12,
                                       increasing=True) == -64 * s


def test_seeded_start_that_crosses_costs_two_evaluations():
    # a start tol |lambda| / 4 from the root, on either side, and a step of
    # tol |lambda| / 2: the first step crosses the root, and the bracket is
    # already narrower than tol |lambda|, so Brent's method adds no abscissa
    tol = 1e-9
    for start in (-5.0 * (1 + tol / 4), -5.0 * (1 - tol / 4)):
        f, seen = _evaluations(lambda lam: lam + 5.0)
        root = spectral._bracket_and_solve(f, [start], tol * 5.0 / 2, tol,
                                           increasing=True)
        assert len(seen) == 2
        assert root == pytest.approx(-5.0, rel=tol)


def _synthetic_branch(monkeypatch, scale):
    """Replace every assembly by mu(lambda) = scale[N] / sqrt(-lambda), whose
    branch lambda mu(lambda) = 1/alpha has the root -(alpha scale[N])^-2 on
    an N-node grid, with the first unit vectors as the eigenvectors a coarse
    memo keeps; returns the (N, lambda) of every evaluation."""
    evaluated = []

    def mu(g, lam, k, basis=None, vectors=0):
        evaluated.append((g.N, lam))
        return np.full(k, scale[g.N] / math.sqrt(-lam)), \
            np.eye(g.N, vectors) if vectors else None

    monkeypatch.setattr(spectral, "_mu_n", mu)
    return evaluated


def test_seeded_march_never_steps_by_more_than_eight(monkeypatch, kite):
    # the coarse root is -1 and the root at N = 256 is -1e6.  At tol = 20
    # an uncapped first step, tol |lambda_hat| / 2 = 10, would reach -11; the
    # march toward -infinity steps by at most a factor of 8, as the cold one
    # does
    evaluated = _synthetic_branch(monkeypatch, {128: 1.0, 256: 1e-3})
    lam, _, _ = spectral.find_eigenvalue(kite, -1.0, 1, tol=20.0, N=256)
    fine = [x for N, x in evaluated if N == 256]
    assert fine[0] == -1.0 and -8e6 <= lam <= -1e6 / 8
    march = fine[:next(i for i, x in enumerate(fine) if x < -1e6) + 1]
    assert len(march) > 5
    assert all(1 < b / a <= 8 for a, b in zip(march, march[1:]))


def test_seeded_march_at_the_smallest_tolerance_returns(monkeypatch, kite):
    # tol |lambda_hat| / 2 underflows to 0 at tol = 5e-324: a first step
    # floored at brentq's rtol floor still moves, and the root comes back
    # within a bounded number of assemblies.  Every dispersion read counts,
    # memoized or not, so a loop that re-reads one abscissa fails here
    # instead of running forever
    reads, assemblies = [], _record_assemblies(monkeypatch)
    read = spectral._Memo.mu

    def counted(memo, lam, n, basis=None):
        reads.append(lam)
        assert len(reads) <= 300 and len(assemblies) <= 60, "no bracket found"
        return read(memo, lam, n, basis)

    monkeypatch.setattr(spectral._Memo, "mu", counted)
    lam, res, estimate = spectral.find_eigenvalue(kite, -10.0, 1, tol=5e-324, N=256)
    monkeypatch.undo()
    assert lam == pytest.approx(spectral.find_eigenvalue(kite, -10.0, 1, N=256)[0],
                                rel=1e-9)
    assert res <= 1e-12 and estimate <= 1e-12 * abs(lam)


def test_enumerate_spectrum_circle(circle, circle_roots):
    res = spectral.enumerate_spectrum(circle, -1.0, 5, N=128, tol=1e-10)
    lams = res.lambdas()
    assert np.all(np.diff(lams) <= 0)
    roots = circle_roots["oblique_roots_per_fourier_order"]["-1.0"]
    # fourier orders 0,1,1,2,2 -> first five branch roots
    expect = [roots[0], roots[1], roots[1], roots[2], roots[2]]
    assert np.allclose(lams, expect, rtol=1e-8)
    mults = [e.multiplicity for e in res.eigenvalues]
    assert mults == [1, 2, 2, 2, 2]


def test_enumerate_spectrum_validation(circle):
    with pytest.raises(ParameterError):
        spectral.enumerate_spectrum(circle, 0.0, 3)
    with pytest.raises(ParameterError):
        spectral.enumerate_spectrum(circle, -1.0, 0)
    with pytest.raises(ResolutionError):
        spectral.enumerate_spectrum(circle, -1.0, 10, N=64)


def test_positive_coupling_has_no_spectrum(circle):
    res = spectral.enumerate_spectrum(circle, 2.0, 3, N=64)
    assert res.eigenvalues == ()
    assert res.lambdas().size == 0


def test_spectrum_result_json(circle):
    res = spectral.enumerate_spectrum(circle, -1.0, 2, N=64, tol=1e-8)
    d = json.loads(res.to_json())
    assert d["alpha"] == -1.0
    assert d["kind"] == "oblique"
    assert len(d["eigenvalues"]) == 2
    e = d["eigenvalues"][0]
    assert set(e) == {"n", "lambda", "residual", "multiplicity", "error_estimate"}
    assert e["error_estimate"] is None  # N=64 runs no coarse pass


def test_eigenfunction_field_and_symmetry(circle):
    lam1, _, _ = spectral.find_eigenvalue(circle, -1.0, 1, N=128)
    theta = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    ring = 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    ef = spectral.eigenfunction(circle, -1.0, lam1, 1, ring, N=128)
    mags = np.abs(ef.values)
    # rotation-invariant branch: |field| constant on concentric rings
    assert mags.std() <= 1e-8 * mags.mean()
    # density is L2-normalized on the curve
    g = ef.grid
    nrm = g.weight * np.sum(np.abs(ef.density) ** 2 * g.jacobians)
    assert nrm == pytest.approx(1.0, rel=1e-12)


def test_eigenfunction_rejects_inconsistent_lambda(circle):
    with pytest.raises(NumericalInstabilityError):
        spectral.eigenfunction(circle, -1.0, -50.0, 1,
                               np.array([[0.0, 0.0]]), N=64)
    with pytest.raises(DomainError):
        spectral.eigenfunction(circle, -1.0, 2.0, 1, np.array([[0.0, 0.0]]))


@pytest.mark.parametrize("alpha, tol, name", [
    (np.nan, 1e-6, "alpha"), (np.inf, 1e-6, "alpha"), (0.0, 1e-6, "alpha"),
    (-1.0, np.nan, "tol"), (-1.0, 0.0, "tol"),
])
def test_eigenfunction_checks_alpha_and_tol_before_assembly(kite, monkeypatch,
                                                            alpha, tol, name):
    # a NaN alpha or tol used to return a field: NaN comparisons are false,
    # so the consistency gate never fired
    monkeypatch.setattr(bie, "assemble_S", lambda *a: pytest.fail("assembled"))
    with pytest.raises(ParameterError, match=rf"^{name}\b"):
        spectral.eigenfunction(kite, alpha, -3.2, 1, [[0.1, 0.2]], N=64, tol=tol)


def test_oblique_residual_at_eigenvalue(circle):
    lam1, _, _ = spectral.find_eigenvalue(circle, -1.0, 1, N=256)
    g = geometry.grid(circle, 256)
    sp = SpectralParameter.make(lam1)
    op = bie.assemble_S(g, sp)
    w, V = np.linalg.eigh(op.entries)
    idx = int(np.argmin(np.abs(-1.0 * lam1 * w - 1.0)))
    phi = V[:, idx] / np.sqrt(g.jacobians)
    assert spectral.oblique_residual(g, phi, sp, -1.0) <= 1e-3


def test_krein_zero_coupling_is_free_resolvent(circle):
    vol = bie.make_volume_grid(2.0, 24)
    r2 = (vol.points ** 2).sum(-1)
    f = np.exp(-r2)
    sp = SpectralParameter.make(-2.0)
    res = spectral.krein_apply(circle, 0.0, sp, f, vol, N=64)
    assert np.array_equal(res.values, spectral._free_resolvent_on_grid(sp, vol, f))
    assert np.all(res.density == 0)


@pytest.mark.parametrize("alpha, nan_at, name", [
    (np.nan, None, "alpha"), (-np.inf, None, "alpha"), (-1.0, 7, "f_samples"),
])
def test_krein_rejects_non_finite_alpha_and_samples(circle, monkeypatch,
                                                    alpha, nan_at, name):
    # a non-finite alpha used to end in numpy's LinAlgError from the SVD, and
    # one NaN sample silently turned every value into NaN
    monkeypatch.setattr(bie, "assemble_S", lambda *a: pytest.fail("assembled"))
    vol = bie.make_volume_grid(2.0, 16)
    f = np.exp(-(vol.points ** 2).sum(-1))
    if nan_at is not None:
        f[nan_at] = np.nan
    with pytest.raises(ParameterError, match=rf"^{name}\b"):
        spectral.krein_apply(circle, alpha, SpectralParameter.make(-2.0), f, vol, N=64)


def test_krein_free_resolvent_pde(circle):
    # check (-Delta - lambda) applied to the free part reproduces f
    vol = bie.make_volume_grid(6.0, 192)
    r2 = (vol.points ** 2).sum(-1)
    f = np.exp(-r2 / (2 * 0.4 ** 2))
    sp = SpectralParameter.make(-1.5)
    u = spectral._free_resolvent_on_grid(sp, vol, f).reshape(vol.shape)
    h = vol.h
    lap = (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
           - 4 * u[1:-1, 1:-1]) / h ** 2
    resid = -lap - sp.lam * u[1:-1, 1:-1] - f.reshape(vol.shape)[1:-1, 1:-1]
    rel = np.linalg.norm(resid) / np.linalg.norm(f)
    assert rel <= 2e-2  # limited by the finite-difference Laplacian


def test_krein_pole_proximity(circle, circle_roots, monkeypatch):
    # the error names the branch from the spectrum of the one assembly the
    # call makes; no second root-find runs to format it
    assemblies = []
    for name in ("_single_layer_weights_mk", "_single_layer_weights_local"):
        original = getattr(bie, name)
        monkeypatch.setattr(bie, name, lambda *a, _f=original: assemblies.append(1) or _f(*a))
    lam1 = circle_roots["oblique_roots_per_fourier_order"]["-1.0"][0]
    vol = bie.make_volume_grid(2.0, 16)
    f = np.ones(len(vol.points))
    sp = SpectralParameter.make(lam1)
    with pytest.raises(PoleProximityError, match=r"eigenvalue on branch 1,"):
        spectral.krein_apply(circle, -1.0, sp, f, vol, N=128)
    assert len(assemblies) == 1


def test_krein_correction_nontrivial(circle):
    vol = bie.make_volume_grid(2.0, 24)
    r2 = ((vol.points - [0.3, 0.0]) ** 2).sum(-1)
    f = np.exp(-r2 / 0.1)
    sp = SpectralParameter.make(-2.0)
    res = spectral.krein_apply(circle, -1.0, sp, f, vol, N=64)
    free = spectral.krein_apply(circle, 0.0, sp, f, vol, N=64).values
    assert np.all(np.isfinite(res.values))
    assert np.linalg.norm(res.values - free) > 1e-6 * np.linalg.norm(free)


def test_krein_volume_node_on_the_curve_is_a_singularity():
    # a circle through a volume node: the correction's layer-potential sum
    # at that node would be singular.  The adjoint map evaluates no kernel
    # between a node and the curve, so eval_Psi's off-curve check raises.
    vol = bie.make_volume_grid(2.0, 24)
    node = vol.points[np.argmin(np.abs(vol.points - [11 / 12, 1 / 12]).sum(-1))]
    curve = geometry.make_curve("circle", R=float(np.hypot(*node)))
    f = np.exp(-(vol.points ** 2).sum(-1) / 0.1)
    with pytest.raises(SingularityError):
        spectral.krein_apply(curve, -1.0, SpectralParameter.make(-2.0), f, vol, N=64)


@pytest.mark.parametrize("k", range(5))
def test_krein_transmission_residual_off_centre(kite, k):
    # criterion 7's Gaussian moved 0.25 from the origin at k * 45 degrees, on
    # the benchmark's kite resolvent inputs: the 1e-3 bound holds off centre
    vol = bie.make_volume_grid(6.0, 128)
    angle = k * np.pi / 4
    centre = 0.25 * np.array([np.cos(angle), np.sin(angle)])
    f = np.exp(-((vol.points - centre) ** 2).sum(-1) / (2 * 0.25 ** 2))
    res = spectral.krein_apply(kite, -1.0, SpectralParameter.make(-3.0), f, vol, N=256)
    assert spectral.krein_transmission_residual(res, f) <= 1e-3


def test_krein_transmission_residual_needs_decaying_samples(circle):
    # the residual's free part integrates by parts over the box; samples that
    # do not vanish at its edge are a typed error, not a wrong number
    vol = bie.make_volume_grid(2.0, 24)
    f = np.exp(-(vol.points ** 2).sum(-1) / 8)
    res = spectral.krein_apply(circle, -1.0, SpectralParameter.make(-2.0), f, vol, N=64)
    with pytest.raises(ConfigurationError, match="do not decay at the volume box edge"):
        spectral.krein_transmission_residual(res, f)


def test_f_samples_of_the_wrong_size_are_a_typed_error(kite):
    # both used to end in numpy's reshape ValueError: krein_apply's free part
    # reshaped f before the adjoint map's own size check ran
    vol = bie.make_volume_grid(6.0, 32)
    sp = SpectralParameter.make(-3.0)
    f = np.exp(-(vol.points ** 2).sum(-1) / (2 * 0.25 ** 2))
    with pytest.raises(ConfigurationError, match=r"\b1023 values for 1024 volume nodes"):
        spectral.krein_apply(kite, -1.0, sp, f[:-1], vol, N=64)
    res = spectral.krein_apply(kite, -1.0, sp, f, vol, N=64)
    with pytest.raises(ConfigurationError, match=r"\b1023 values for 1024 volume nodes"):
        spectral.krein_transmission_residual(res, f[:-1])


def test_residuals_of_a_zero_input_are_a_typed_error(kite):
    # both sides of the transmission condition vanish, so the relative
    # residual is 0/0: it used to return nan with a RuntimeWarning
    g = geometry.grid(kite, 64)
    sp = SpectralParameter.make(-3.0)
    with pytest.raises(ParameterError, match="both sides vanish"):
        spectral.oblique_residual(g, np.zeros(64), sp, -1.0)
    vol = bie.make_volume_grid(6.0, 32)
    f = np.zeros(len(vol.points))
    res = spectral.krein_apply(kite, -1.0, sp, f, vol, N=64)
    with pytest.raises(ParameterError, match="both sides vanish"):
        spectral.krein_transmission_residual(res, f)


def test_non_finite_eigenfunction_point_and_residual_density(circle):
    # scipy's cKDTree used to reject the point with a ValueError, and the
    # trace ratio test the density with a NumericalInstabilityError
    lam1, _, _ = spectral.find_eigenvalue(circle, -1.0, 1, N=64)
    with pytest.raises(ParameterError, match="points must be finite"):
        spectral.eigenfunction(circle, -1.0, lam1, 1, [[np.nan, 0.0]], N=64)
    g = geometry.grid(circle, 64)
    density = np.ones(g.N)
    density[5] = np.nan
    with pytest.raises(ParameterError, match="density must be finite"):
        spectral.oblique_residual(g, density, SpectralParameter.make(lam1), -1.0)


def test_resolvent_volume_sums(kite, monkeypatch):
    # the adjoint map makes no direct kernel sum: it evaluates dzbar U once,
    # on the (2n - 1)^2 offset lattice less its centre, and never the oblique
    # kernel; the residual's free part is one sum of U over the N curve
    # nodes x the volume nodes nearer than 2R to the nodes' centroid c, R
    # their largest distance from c; the nodes from 2R on take Graf's local
    # expansion about c
    calls, phase = [], ["apply"]
    kernel_sum, psi_star = bie._kernel_sum, bie.apply_Psi_star
    kernel_L, dzbar_U = bie.kernel_L, kernels.kernel_dzbar_U

    def counted_sum(kernel, sp, targets, sources, values):
        calls.append((phase[0], kernel, len(targets), sources))
        return kernel_sum(kernel, sp, targets, sources, values)

    def counted(kernel):
        def wrapper(sp, x):
            calls.append((phase[0], kernel, np.size(x) // 2))
            return kernel(sp, x)
        return wrapper

    def marked_psi_star(*args):
        phase[0] = "adjoint"
        try:
            return psi_star(*args)
        finally:
            phase[0] = "apply"

    monkeypatch.setattr(bie, "_kernel_sum", counted_sum)
    monkeypatch.setattr(bie, "kernel_L", counted(kernel_L))
    monkeypatch.setattr(kernels, "kernel_dzbar_U", counted(dzbar_U))
    monkeypatch.setattr(bie, "apply_Psi_star", marked_psi_star)
    vol = bie.make_volume_grid(6.0, 32)
    f = np.exp(-(vol.points ** 2).sum(-1) / (2 * 0.25 ** 2))
    res = spectral.krein_apply(kite, -1.0, SpectralParameter.make(-3.0), f, vol, N=64)
    assert [c for c in calls if c[0] == "adjoint"] == [("adjoint", dzbar_U, 63 ** 2 - 1)]
    calls.clear()
    spectral.krein_transmission_residual(res, f)
    centre = res.grid.points.mean(axis=0)
    R = np.hypot(*(res.grid.points - centre).T).max()
    near = vol.points[np.hypot(*(vol.points - centre).T) < 2 * R]
    assert 0 < len(near) < 32 * 32
    volume = [c[:3] + (len(c[3]),) for c in calls
              if len(c) == 4 and np.array_equal(c[3], near)]
    assert volume == [("apply", kernel_U, 64, len(near))]


def test_delta_spectrum_against_fixture(circle, circle_roots):
    res = spectral.delta_spectrum(circle, -0.1, 2, N=64, tol=1e-12)
    assert res.kind == "delta"
    assert len(res.eigenvalues) == 1
    e1 = res.eigenvalues[0]
    assert e1.lam == pytest.approx(circle_roots["delta_alpha_-0.1_branch1"],
                                   rel=1e-6)
    assert 2 in res.empty_branches


def test_delta_spectrum_positive_coupling(circle):
    res = spectral.delta_spectrum(circle, 0.5, 3, N=64)
    assert res.eigenvalues == ()
    assert res.empty_branches == (1, 2, 3)
    with pytest.raises(ParameterError):
        spectral.delta_spectrum(circle, 0.0, 3)


def test_dispersion_csv_rows(monkeypatch, circle):
    # three branches over four lambdas: one assembly per lambda, shared
    mu_n_calls = []
    mu_n = spectral._mu_n
    monkeypatch.setattr(spectral, "_mu_n",
                        lambda *args: mu_n_calls.append(args[1]) or mu_n(*args))
    rows = list(spectral.dispersion_csv_rows(
        circle, [1, 2, 3], np.linspace(-5, -1, 4), N=32))
    assert rows[0] == "lambda,n,value"
    assert len(rows) == 1 + 3 * 4
    lam, n, val = rows[1].split(",")
    assert float(lam) == -5.0 and int(n) == 1 and float(val) < 0
    assert sorted(mu_n_calls) == list(np.linspace(-5, -1, 4))
    # every row matches the branch sampled on its own
    for row in rows[1:]:
        lam, n, val = row.split(",")
        assert float(val) == spectral.dispersion(circle, int(n), float(lam), N=32).value


def test_dispersion_csv_rows_checks_every_branch_first(monkeypatch, circle):
    monkeypatch.setattr(spectral, "_mu_n", lambda *args: pytest.fail("assembled"))
    with pytest.raises(ResolutionError):
        spectral.dispersion_csv_rows(circle, [1, 9], [-1.0], N=32)
    with pytest.raises(ParameterError):
        spectral.dispersion_csv_rows(circle, [2, 0], [-1.0], N=32)

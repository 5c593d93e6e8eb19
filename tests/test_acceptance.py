"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line for its criterion, bypassing
output capture so the verdicts are always visible in the pytest run.
"""

import contextlib
import sys
import time

import numpy as np
import pytest

from obliqueshell import bie, dirac, geometry, spectral
from obliqueshell.kernels import SpectralParameter
from obliqueshell.specfun import EULER_GAMMA, bessel_ik_int, bessel_k_array


from acceptance_verdicts import ACCEPTANCE_VERDICTS


@contextlib.contextmanager
def _report(num: int, desc: str):
    try:
        yield
    except BaseException:
        line = f"[FAIL] criterion {num:2d}: {desc}"
        ACCEPTANCE_VERDICTS.append(line)
        print(line, file=sys.__stdout__, flush=True)
        raise
    line = f"[PASS] criterion {num:2d}: {desc}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_circle_eigenvalue_oracle(circle):
    desc = "circle single-layer eigenvalues match closed form to 1e-8"
    with _report(1, desc):
        t0 = time.time()
        g = geometry.grid(circle, 128)
        for lam in (-0.5, -1.0, -5.0, -20.0):
            op = bie.assemble_S(g, SpectralParameter.make(lam))
            got = np.sort(op.eigenvalues_desc().real)[::-1][:10]
            oracle = []
            m = 0
            while len(oracle) < 10:
                mu = spectral.circle_oracle_mu(m, 1.0, lam)
                oracle.extend([mu] * (1 if m == 0 else 2))
                m += 1
            oracle = np.sort(oracle)[::-1][:10]
            rel = np.max(np.abs(got - oracle) / np.abs(oracle))
            assert rel <= 1e-8, (lam, rel)
        assert time.time() - t0 <= 10.0


def test_criterion_02_circle_spectrum_enumeration(circle, circle_roots):
    desc = "first 10 circle eigenvalues, non-increasing, vs frozen roots"
    with _report(2, desc):
        t0 = time.time()
        res = spectral.enumerate_spectrum(circle, -1.0, 10, N=128, tol=1e-10)
        lams = res.lambdas()
        assert len(lams) == 10
        assert np.all(np.diff(lams) <= 1e-12)
        roots = circle_roots["oblique_roots_per_fourier_order"]["-1.0"]
        expect = [roots[0]] + sum(([r, r] for r in roots[1:5]), []) + [roots[5]]
        assert np.allclose(lams, expect[:10], rtol=1e-6)
        assert all(e.residual <= 1e-8 for e in res.eigenvalues)
        assert time.time() - t0 <= 60.0


def test_criterion_03_positive_coupling_empty(circle, kite):
    desc = "repulsive coupling: unit level never crossed, spectrum empty"
    with _report(3, desc):
        for curve in (circle, kite):
            g = geometry.grid(curve, 64)
            for alpha in (0.1, 1.0, 10.0):
                for lam in -np.geomspace(1e-2, 100.0, 20):
                    op = bie.assemble_S(g, SpectralParameter.make(lam))
                    top = float(np.max(alpha * lam * op.eigenvalues_desc().real))
                    assert top < 1.0, (curve.name, alpha, lam, top)
                res = spectral.enumerate_spectrum(curve, alpha, 3, N=64)
                assert res.eigenvalues == ()


def test_criterion_04_strong_coupling_asymptotics(circle, ellipse):
    desc = "lambda_1 = -4/alpha^2 + O(1) as alpha -> 0-"
    with _report(4, desc):
        alphas = [-0.2, -0.1, -0.05, -0.025]
        for curve in (circle, ellipse):
            offsets = []
            ratios = []
            for a in alphas:
                lam1, _ = spectral.find_eigenvalue(curve, a, 1, tol=1e-10, N=256)
                offsets.append(lam1 + 4.0 / a ** 2)
                ratios.append(lam1 / (-4.0 / a ** 2))
            # the O(1) remainder stays bounded ...
            assert all(abs(o) < 5.0 for o in offsets), (curve.name, offsets)
            # ... so its share of the leading term shrinks with alpha
            shares = [a ** 2 * abs(o) for a, o in zip(alphas, offsets)]
            assert np.all(np.diff(shares) < 0), (curve.name, shares)
            assert 0.95 <= ratios[-1] <= 1.05, (curve.name, ratios)


def test_criterion_05_dispersion_monotone(circle, ellipse, kite):
    desc = "dispersion branches strictly increasing from -inf toward 0"
    with _report(5, desc):
        lams = -np.geomspace(200.0, 1e-3, 30)
        for curve in (circle, ellipse, kite):
            g = geometry.grid(curve, 128)
            table = np.empty((len(lams), 5))
            for i, lam in enumerate(lams):
                op = bie.assemble_S(g, SpectralParameter.make(lam))
                table[i] = lam * op.eigenvalues_desc(5).real
            # lams runs from -200 up toward 0-: every branch must increase
            assert np.all(np.diff(table, axis=0) > 0), curve.name
            assert np.all(table[0] < -1.0), curve.name   # heading to -infinity
            assert np.all((table[-1] > -1.0) & (table[-1] < 0.0)), curve.name


def test_criterion_06_jump_identities(circle):
    desc = "oblique-potential jump identities to 1e-4 for three densities"
    with _report(6, desc):
        g = geometry.grid(circle, 256)
        sp = SpectralParameter.make(-2.0)
        S = bie.assemble_S(g, sp)
        t = 2 * np.pi * np.arange(g.N) / g.N
        for dens in (np.ones(g.N, complex), np.exp(1j * t), np.exp(3j * t)):
            jump, dzbar_sum = bie.jump_traces(g, dens, sp)
            r1 = np.linalg.norm(jump - dens) / np.linalg.norm(dens)
            ref = sp.lam * (S.entries @ dens)
            r2 = np.linalg.norm(dzbar_sum - ref) / np.linalg.norm(ref)
            assert r1 <= 1e-4, r1
            assert r2 <= 1e-4, r2


def test_criterion_07_resolvent_formula(circle):
    desc = "resolvent solves the PDE (1e-2) and transmission condition (1e-3)"
    with _report(7, desc):
        alpha, lam = -1.0, -3.0
        sp = SpectralParameter.make(lam)
        vol = bie.make_volume_grid(6.0, 256)
        r2 = (vol.points ** 2).sum(-1)
        f = np.exp(-r2 / (2 * 0.25 ** 2))
        res = spectral.krein_apply(circle, alpha, sp, f, vol, N=256)
        # transmission condition across the curve
        trans = spectral.krein_transmission_residual(res, f)
        assert trans <= 1e-3, trans
        # PDE residual away from the curve, five-point Laplacian
        u = res.values.reshape(vol.shape)
        h = vol.h
        lap = (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
               - 4 * u[1:-1, 1:-1]) / h ** 2
        resid = -lap - lam * u[1:-1, 1:-1] - f.reshape(vol.shape)[1:-1, 1:-1]
        radius = np.sqrt(r2).reshape(vol.shape)[1:-1, 1:-1]
        mask = np.abs(radius - 1.0) > 0.15
        rel = np.linalg.norm(resid[mask]) / np.linalg.norm(f)
        assert rel <= 1e-2, rel


def test_criterion_08_nonrelativistic_limit(circle):
    desc = "relativistic gaps decay at the expected rates in c"
    with _report(8, desc):
        t0 = time.time()
        study = dirac.nonrel_limit_study(circle, 1j, [8, 16, 32, 64, 128],
                                         N=128, check_box=True)
        for name, seq in study.gaps().items():
            assert np.all(np.diff(seq) < 0), (name, seq)
        for name in ("a0", "phi", "phistar"):
            assert -1.3 <= study.slopes[name] <= -0.8, (name, study.slopes)
        # boundary-boundary gap: kernel bound is 1/c^2, so demand at least the
        # 1/c rate plus an 8x drop over the 16x span in c
        assert study.slopes["c"] <= -0.8, study.slopes
        assert study.gap_c[-1] / study.gap_c[0] <= 1.0 / 8.0
        norms, slope = dirac.correction_convergence(circle, -1.0, 1j,
                                                    [16.0, 64.0, 256.0], N=128)
        assert np.all(np.diff(norms) < 0)
        assert slope <= -0.8, slope
        assert time.time() - t0 <= 300.0


def test_criterion_09_delta_comparison(circle):
    desc = "delta ground state -alpha^2/4 vs oblique -4/alpha^2 regimes"
    with _report(9, desc):
        res = spectral.delta_spectrum(circle, -50.0, 1, N=128, tol=1e-10)
        assert len(res.eigenvalues) == 1
        E1 = res.eigenvalues[0].lam
        assert 0.9 <= E1 / (-(-50.0) ** 2 / 4) <= 1.1, E1
        lam1, _ = spectral.find_eigenvalue(circle, -0.05, 1, tol=1e-10, N=256)
        assert 0.9 <= lam1 * (-0.05) ** 2 / -4.0 <= 1.1, lam1


def test_criterion_10_special_function_invariants():
    desc = "modified Bessel invariants (symmetry, Wronskian, decay, limits)"
    with _report(10, desc):
        t0 = time.time()
        rng = np.random.default_rng(2)
        z = np.array([10 ** rng.uniform(-2, 2) * np.exp(1j * rng.uniform(-1.2, 1.2))
                      for _ in range(50)])
        for order in (0, 1):
            a = bessel_k_array(order, np.conj(z))
            b = np.conj(bessel_k_array(order, z))
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1e-300))
        for x in (0.5, 1.0, 10.0):
            for n in range(21):
                i0, k0 = bessel_ik_int(n, x)
                i1, k1 = bessel_ik_int(n + 1, x)
                assert abs(i0 * k1 + i1 * k0 - 1.0 / x) <= 1e-10 / x
        r = np.array([1.0, 10.0, 100.0])
        assert np.all(np.abs(bessel_k_array(0, r)) <= 5.0 * np.exp(-r / 2))
        assert bessel_k_array(0, np.array([1e-8]))[0] + np.log(0.5e-8) == \
            pytest.approx(-EULER_GAMMA, abs=1e-10)
        assert time.time() - t0 <= 5.0

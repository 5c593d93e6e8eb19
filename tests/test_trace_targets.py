"""The benchmark's tracer (bench/tracer.py) wraps library functions by name;
a refactor that renames or deletes one of them silently drops a layer metric.
"""

import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_trace_target_exists_and_is_restored():
    tracer_module = _load_bench("tracer")
    with tracer_module.instrument(tracer_module.Tracer()) as tracer:
        assert tracer.missing == []
        patches = list(tracer._patches)
        assert patches
        assert all(_current(owner, attr) is not original
                   for owner, attr, original in patches)
    assert all(_current(owner, attr) is original for owner, attr, original in patches)


def test_traced_spectrum_reaches_every_branch_and_assembles_once_per_root_eval(tmp_path):
    # the benchmark's spectrum workload reads the find_eigenvalue span and
    # requires one assembly per _mu_n evaluation; a shared memo that
    # bypassed either would silently empty those metrics
    from obliqueshell import cli

    tracer_module = _load_bench("tracer")
    out = tmp_path / "spectrum.json"
    with tracer_module.instrument(tracer_module.Tracer()) as tracer:
        code = cli.main(["spectrum", "--curve", "kite", "--alpha", "-1", "--N", "64",
                         "--count", "3", "--out", str(out)])
    assert code == 0
    m = tracer.summary()
    assert m["spectral.find_eigenvalue.calls"] == 3
    assert m["spectral.eigenvalues"] == 3
    assert m["bie.assemble.mk.calls"] + m.get("bie.assemble.panel.calls", 0) \
        == m["spectral.root_evals"] > 0
    assert m["geometry.grid.calls"] == 1


def test_traced_correction_keeps_one_span_and_one_assembly_per_speed():
    # the benchmark's nonrel workload reads the dirac.correction span and
    # the M3 C M3 assemblies; a per-study correction path that bypassed
    # dirac_correction would silently empty them
    from obliqueshell import dirac, geometry

    tracer_module = _load_bench("tracer")
    kite = geometry.make_curve("kite")
    with tracer_module.instrument(tracer_module.Tracer()) as tracer:
        dirac.correction_convergence(kite, -1.0, 1j, [16, 64], N=32, probe_n=8)
    m = tracer.summary()
    assert m["dirac.correction.calls"] == 2
    assert m["bie.assemble_M3CM3.calls"] == 2
    # the grid and its probe-box check are built once for the c-list
    assert m["bie.proximity.calls"] == 1
    assert m["geometry.grid.calls"] == 1


def test_traced_layer_evaluations_follow_the_window_plan(tmp_path, monkeypatch):
    # every _eval_layer call evaluates N kernels per target at refinement 1
    # nearer than 2R to the centroid c of the curve nodes, R their largest
    # distance from c, and none per target from 2R on, which takes Graf's
    # expansion; at F > 1 N + 2 H F + 1 per target that bie._window_plan
    # gives a window of half-width H, N F per other target.  The residual's
    # free part evaluates U at N x the volume nodes nearer than 2R to c.
    # Together these are all kernel_L and kernel_U evaluations.  The
    # tracer's bie.layer_eval.pairs counts T F N per call, the pairs of a
    # full sum, and spectral.direct_volume.pairs N x all volume nodes.
    # Proximity is checked twice: once for the correction's targets, the
    # volume nodes, and once for all trace offsets.  The adjoint map
    # evaluates no kernel between a volume node and the curve and checks none.
    from obliqueshell import bie

    calls = []
    original = bie._eval_layer

    def recording(grid, density, sp, points, kernel, upsample):
        calls.append((grid, points, upsample))
        return original(grid, density, sp, points, kernel, upsample)

    monkeypatch.setattr(bie, "_eval_layer", recording)
    tracer_module = _load_bench("tracer")
    workload = _load_bench("workloads").WORKLOADS["resolvent"](0, "tiny", tmp_path)
    with tracer_module.instrument(tracer_module.Tracer()) as tracer:
        workload.call()
    assert tracer.count_errors == []
    m = tracer.summary()
    grid = calls[0][0]
    centre = grid.points.mean(axis=0)
    R = np.hypot(*(grid.points - centre).T).max()

    def near(points):
        return np.hypot(*(points - centre).T) < 2 * R

    expected = windowed = far = 0
    for call_grid, points, F in calls:
        assert call_grid is grid
        if F <= 1:
            far += (~near(points)).sum()
            expected += near(points).sum() * grid.N
            continue
        half = bie._window_plan(grid, points, F)[1]
        windowed += (half > 0).sum()
        expected += np.where(half > 0, grid.N + 2 * half * F + 1, grid.N * F).sum()
    assert windowed > 0 and far > 0
    direct = grid.N * near(workload.vol.points).sum()
    assert direct < m["spectral.direct_volume.pairs"]
    assert expected + direct == m["kernels.L.evals"] + m["kernels.U.evals"]
    assert m["bie.proximity.calls"] == 2


class _CountingPool(ThreadPoolExecutor):
    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def test_traced_bessel_spans_do_not_depend_on_the_pool(monkeypatch):
    # Bessel arrays longer than one chunk run their chunks on the pool, but
    # the tracer's spans (which it does not guard across threads) stay on the
    # calling thread: a 4-worker pool records what a 1-worker pool records.
    # With 48^2 probes, the K_0/K_1 arrays on 2304 x 32 pairs span 2 chunks.
    from obliqueshell import dirac, geometry, specfun

    tracer_module = _load_bench("tracer")
    kite = geometry.make_curve("kite")
    readings = []
    for workers in (1, 4):
        with _CountingPool(max_workers=workers) as pool:
            monkeypatch.setattr(specfun, "_pool", lambda: pool)
            with tracer_module.instrument(tracer_module.Tracer()) as tracer:
                dirac.correction_convergence(kite, -1.0, 1j, [16, 64], N=32, probe_n=48)
        assert pool.submitted > 0
        m = tracer.summary()
        readings.append((m["specfun.bessel_k.calls"], m["specfun.bessel_k.evals"],
                         len(tracer.spans)))
    assert readings[0] == readings[1]

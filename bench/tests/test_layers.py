"""Layer reach and exact counts of the benchmark's trace, on tiny workloads.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
from pathlib import Path

import pytest

from child import _layer_metrics
from tracer import Tracer, instrument
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: per-layer metrics each workload must move
REACH = {
    "spectrum": [
        "geometry.grid.calls", "geometry.grid.s", "geometry.diameter.calls",
        "geometry.diameter.s", "spectral.eigenvalues", "spectral.root_evals",
        "spectral.assemblies_per_eigenvalue", "spectral.find_eigenvalue.s",
        "bie.assemble.mk.calls", "bie.assemble.mk.s", "bie.assemble.panel.calls",
        "bie.assemble.panel.s", "bie.eigensolve.calls", "bie.eigensolve.s",
        "specfun.bessel_k.evals", "specfun.bessel_k.s", "specfun.bessel_i.evals",
        "specfun.bessel_i.s", "cli.self_s", "cli.bytes_written",
    ],
    "resolvent": [
        "bie.proximity.calls", "bie.proximity.pairs", "bie.proximity.s",
        "bie.layer_eval.calls", "bie.layer_eval.pairs", "bie.layer_eval.s",
        "bie.adjoint.pairs", "bie.adjoint.s", "bie.traces.s",
        "spectral.krein_apply.self_s", "spectral.free_resolvent.s",
        "spectral.direct_volume.pairs", "spectral.direct_volume.s",
        "spectral.transmission_residual.s", "kernels.U.evals", "kernels.L.evals",
        "kernels.dzbar_U.evals", "kernels.s", "specfun.bessel_k.evals",
        "specfun.bessel_k.s",
    ],
    "nonrel": [
        "dirac.gap_a0.s", "dirac.gap_phi.s", "dirac.gap_phistar.s", "dirac.gap_c.s",
        "dirac.correction.s", "bie.assemble_M3CM3.calls", "bie.assemble_M3CM3.s",
        "bie.proximity.calls", "bie.proximity.s", "kernels.G.evals", "kernels.s",
        "specfun.bessel_k.evals", "specfun.bessel_k.s",
    ],
}
#: measured by the child process around the traced call, not by the tracer
PROCESS_METRICS = {"process.cpu_s", "trace.overhead_s"}
COUNT_SUFFIXES = (".calls", ".evals", ".pairs")


def _traced(name, tmp_path):
    workload = WORKLOADS[name](0, "tiny", tmp_path)
    plain = workload.digest(workload.call())
    with instrument(Tracer()) as tracer:
        traced = workload.digest(workload.call())
    return tracer, plain, traced


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return request.param, _traced(request.param, tmp), _traced(request.param, tmp)


def test_every_benchmark_layer_metric_is_reached_by_a_workload():
    listed = {m["name"] for m in BENCHMARK["per_layer"]}
    reached = set().union(*REACH.values()) | PROCESS_METRICS
    assert listed == reached


def test_layers_reached(traced_twice):
    name, (tracer, _, _), _ = traced_twice
    assert tracer.missing == [] and tracer.count_errors == []
    metrics = _layer_metrics(tracer.summary())
    assert [m for m in REACH[name] if not metrics.get(m)] == []


def test_counts_repeat_exactly_and_outputs_match_untraced(traced_twice):
    _, (first, plain1, traced1), (second, plain2, traced2) = traced_twice
    counts = [{k: v for k, v in t.summary().items() if k.endswith(COUNT_SUFFIXES)}
              for t in (first, second)]
    assert counts[0] == counts[1] and counts[0]
    assert plain1 == traced1 == plain2 == traced2


def test_assemblies_match_root_evaluations_on_spectrum(traced_twice):
    name, (tracer, _, _), _ = traced_twice
    if name != "spectrum":
        pytest.skip("spectrum only")
    m = tracer.summary()
    assert m["bie.assemble.mk.calls"] + m["bie.assemble.panel.calls"] \
        == m["spectral.root_evals"]


def test_restore_puts_the_originals_back():
    from obliqueshell import bie, geometry, spectral
    before = (spectral._mu_n, bie.kernel_L, vars(geometry.Curve)["diameter"])
    with instrument(Tracer()):
        assert spectral._mu_n is not before[0]
    assert (spectral._mu_n, bie.kernel_L, vars(geometry.Curve)["diameter"]) == before


def test_missing_target_records_nothing():
    import types
    tracer = Tracer()
    owner = types.SimpleNamespace()
    tracer.wrap(owner, "gone", "x.gone")
    tracer.restore()
    assert len(tracer.missing) == 1 and vars(owner) == {}

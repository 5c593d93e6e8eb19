"""obliqueshell benchmark: end-to-end metrics, output gates, per-layer trace.

Usage, from the repository root:

    python3 bench/run.py                                   # all workloads
    python3 bench/run.py --workload spectrum --seed 3 --trace 0
    python3 bench/run.py --trace 1                         # per-layer metrics

Every workload runs in fresh child processes (``child.py``) whose BLAS and
OpenMP thread counts are pinned to the number of usable cores.  Set-up is
measured in several children and reported as the median; the measuring child
calls the workload in a closed loop for ``--seconds`` and reports the median
call time.  Metric names and units come from ``BENCHMARK.json``.  Results,
with the run environment, go to ``bench/results/``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("spectrum", "resolvent", "nonrel")

#: set-up samples per run: one from the measuring child, the rest from
#: children that stop once the workload is ready
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(_nproc()) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_child(workload: str, args, extra: list[str]) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(RESULTS / "tmp"), *extra]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], env=_child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload: str, args, spec: dict) -> dict:
    """Run one workload in fresh children; return metrics, gates and records."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_run_child(workload, args, ["--setup-only"])["setup_s"])
    child = _run_child(workload, args, [])
    setups.append(child["setup_s"])

    gates = [g for check in child["checks"] for g in check["gates"]]
    if args.trace:
        same = child["checks"][0]["digest"] == child["checks"][1]["digest"]
        gates.append({"name": "traced_output_identical", "ok": same,
                      "value": None, "bound": None})
        # a layer the workload does not reach reads 0
        values = {m["name"]: child["layers"].get(m["name"], 0) for m in spec["per_layer"]}
    else:
        values = {"wall_s": statistics.median(child["walls"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": child["peak_rss_mb"]}
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    return {
        "workload": workload,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "attempted": len(gates),
        "failed": sum(not g["ok"] for g in gates),
        "gates": gates,
        "walls": child["walls"],
        "setups": setups,
        "checks": child["checks"],
        "env": {**child["env"], "nproc": _nproc(), "cpu_model": _cpu_model(),
                "git_commit": _git_commit(), "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace},
        "missing_wrappers": child.get("missing", []),
        "count_errors": child.get("count_errors", []),
        "spans": child.get("spans", []),
    }


def _report(res: dict) -> None:
    """Human-readable lines for one workload."""
    env = res["env"]
    print(f"== {res['workload']}  seed={env['seed']} trace={env['trace']} "
          f"calls={len(res['walls'])} nproc={env['nproc']} "
          f"threads={env['threads']['OPENBLAS_NUM_THREADS']} commit={env['git_commit'][:12]}\n"
          f"   python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"{env['blas']} on {env['cpu_model']}")
    for name, m in res["metrics"].items():
        print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}")
    failed = {(g["name"], g["value"], g["bound"]) for g in res["gates"] if not g["ok"]}
    print(f"   gates: {res['failed']}/{res['attempted']} failed"
          + "".join(f"\n     FAIL {name} value={value} bound={bound}"
                    for name, value, bound in sorted(failed, key=str)))
    for check in res["checks"][:1]:
        if check["notes"]:
            print(f"   recorded: {json.dumps(check['notes'])}")
    if res["missing_wrappers"] or res["count_errors"]:
        print(f"   trace: missing {res['missing_wrappers']} errors {res['count_errors']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring window (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "obliqueshell" / "__init__.py").is_file():
        print(f"no obliqueshell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args, spec)
        results.append(res)
        _report(res)
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=1) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

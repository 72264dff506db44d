"""Every per-layer metric that `BENCHMARK.json` lists, computed from one
traced seed-7 pass of each workload, as a `--trace 1` run computes them.

A traced run is the only place `perfbench/layers.py` runs, so a change
that stops calling a traced function (say, `step_world` once per tick)
would otherwise show only as a crash or a NaN in the next traced
benchmark. The CLI operations run in this process through `cli.main`.
The test only reads `perfbench/`.
"""

import json
import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
# `layers.probes()` and `run.traced_run` add these outside the traced passes
NOT_FROM_SPANS = {
    "cli.interpreter_ms",
    "cli.import_ms",
    "copier.fixed_overhead_us",
    "cli.contract_violations",
    "trace.overhead_ratio",
}


def test_one_traced_pass_yields_every_listed_layer(monkeypatch):
    monkeypatch.chdir(workloads.ROOT)  # the CLI operations name fixtures from the repo root
    mixes = [
        workloads.cli_ops(7, invoke=workloads.run_inprocess)
        if workload == "cli_mix"
        else workloads.WORKLOAD_OPS[workload](7)
        for workload in run.WORKLOADS
    ]
    stats, tracer = run.Stats(), Tracer()
    tracer.install()
    try:
        for ops in mixes:
            run.run_pass(ops, stats)
    finally:
        tracer.uninstall()
    assert (stats.failed, stats.problems) == (0, [])
    metrics = layers.layer_metrics(tracer.spans, 1)
    listed = {layer["name"] for layer in BENCHMARK["per_layer"]} - NOT_FROM_SPANS
    assert sorted(listed - set(metrics)) == []
    assert {name: value for name, (value, _) in metrics.items() if not math.isfinite(value)} == {}

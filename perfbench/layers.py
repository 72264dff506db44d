"""Per-layer metrics, derived from traced spans and a few direct probes.

Totals (``*_ms``, counts) are per traced round, where one round is one
traced pass of every workload; per-unit costs divide busy time by the
work counts the spans carry. Layer names are chainfold's modules.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

from tracing import self_times
from workloads import SELF_COPY_P, python_ms, run_python

STEP_SCENARIOS = [
    f"{name}.len{n}" for name in ("walker", "shuttle", "retainer") for n in (8, 32, 128)
]
CLI_COMMANDS = ("fold", "corpus_verify", "corpus_stats", "copy", "evolve", "scenario")
RENDERERS = ("folding.to_json_dict", "folding.render_ascii", "folding.export_obj")


def layer_metrics(spans, rounds: int) -> dict:
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def group(name):
        return by_name.get(name, [])

    def busy(idx, self_only=False):
        return sum(own[i] if self_only else spans[i].duration for i in idx)

    def units(idx, key):
        return sum(spans[i].attrs[key] for i in idx)

    def per_unit(idx, key, scale, self_only=False):
        return busy(idx, self_only) / units(idx, key) * scale

    m: dict[str, tuple[float, str]] = {}

    parse = group("mdl.parse_mdl")
    m["mdl.parse_us_per_token"] = (per_unit(parse, "tokens", 1e6), "us")
    fold = group("folding.fold")
    m["folding.fold_us_per_token"] = (per_unit(fold, "tokens", 1e6, self_only=True), "us")
    render = [i for name in RENDERERS for i in group(name)]
    m["folding.render_us_per_token"] = (per_unit(render, "tokens", 1e6), "us")

    verify = group("corpus.verify_corpus")
    m["corpus.verify_ms"] = (busy(verify) / len(verify) * 1e3, "ms")
    m["corpus.fixtures_passed"] = (min(spans[i].attrs["passed"] for i in verify), "count")

    neg = group("encoding.negative_copy")
    m["encoding.negative_copy_us_per_slot"] = (per_unit(neg, "slots", 1e6), "us")

    copies = group("copier.run_copy")
    drawn = [i for i in copies if not spans[i].attrs["feed"]]
    fed = [i for i in copies if spans[i].attrs["feed"]]
    short = [i for i in drawn if spans[i].attrs["slots"] == 8]
    m["copier.short_call_us"] = (busy(short) / len(short) * 1e6, "us")
    m["copier.self_ms"] = (busy(copies, self_only=True) / rounds * 1e3, "ms")
    m["copier.feed_us_per_cycle"] = (per_unit(fed, "cycles", 1e6), "us")
    m["copier.accept_ratio"] = (units(drawn, "slots") / units(drawn, "cycles"), "ratio")
    mean = var = 0.0
    for i in drawn:
        a, b = spans[i].attrs["expected"]
        mean, var = mean + a, var + b
    # every round repeats the same seeded copies, so score one round's worth
    z = (units(drawn, "cycles") - mean) / rounds / math.sqrt(var / rounds)
    m["copier.cycles_vs_expected"] = (z, "sigma")
    for k in range(3):
        drawn_k = sum(spans[i].attrs["stickout"][k] for i in copies)
        m[f"copier.stickout.{k}"] = (drawn_k / rounds, "count")
    m["copier.mutations"] = (units(copies, "mutations") / rounds, "count")

    chunks = group("kernels.copier_chunk")
    m["kernels.copier_chunk_ns_per_draw"] = (per_unit(chunks, "draws", 1e9), "ns")
    m["kernels.copier_chunk_calls"] = (len(chunks) / rounds, "count")
    matches = group("kernels.count_matches")
    m["kernels.count_matches_ns_per_row"] = (per_unit(matches, "rows", 1e9), "ns")

    evolve = group("protoevolution.mhbbg_probability")
    m["protoevolution.draw_ns_per_row"] = (per_unit(evolve, "trials", 1e9, self_only=True), "ns")
    trials, hits = units(evolve, "trials") / rounds, units(evolve, "hits") / rounds
    p = float(SELF_COPY_P)
    m["protoevolution.z_score"] = ((hits - p * trials) / math.sqrt(p * (1 - p) * trials), "sigma")

    steps = group("kinematics.step_world")
    for scenario in STEP_SCENARIOS:
        idx = [
            i for i in steps
            if spans[spans[i].parent].name == "kinematics.run_scenario"
            and spans[spans[i].parent].attrs.get("scenario") == scenario
        ]
        m[f"kinematics.step_us.{scenario}"] = (busy(idx) / len(idx) * 1e6, "us")
    inworld = [i for i in steps if spans[spans[i].parent].name == "kinematics.run_world"]
    m["kinematics.inworld_step_us"] = (busy(inworld) / len(inworld) * 1e6, "us")
    scenario_self = busy(group("kinematics.run_scenario"), self_only=True)
    m["kinematics.scenario_self_ms"] = (scenario_self / rounds * 1e3, "ms")
    trace_json = busy(group("kinematics.trace_to_json_dict"))
    m["kinematics.trace_json_ms"] = (trace_json / rounds * 1e3, "ms")
    for event in ("folds_fired", "folds_retried", "dissolves", "bonds_formed"):
        m[f"kinematics.{event}"] = (units(steps, event) / rounds, "count")

    mains = group("cli.main")
    for command in CLI_COMMANDS:
        idx = [i for i in mains if spans[i].attrs.get("command") == command]
        m[f"cli.command_ms.{command}"] = (busy(idx) / len(idx) * 1e3, "ms")
    return m


def _import_ms() -> float:
    """`import chainfold.cli` timed inside a fresh interpreter, in ms."""
    code = (
        "import time; t = time.perf_counter(); import chainfold.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = run_python(["-c", code])
    proc.check_returncode()
    return float(proc.stdout) * 1e3


def _median_us(fn, n: int) -> float:
    times = []
    for _ in range(n):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def probes(samples: int = 7) -> dict:
    """Costs no workload pass isolates: start-up, imports, a copy of nothing."""
    from chainfold.copier import run_copy

    return {
        "cli.interpreter_ms": (statistics.median(python_ms("pass") for _ in range(samples)), "ms"),
        "cli.import_ms": (statistics.median(_import_ms() for _ in range(samples)), "ms"),
        "copier.fixed_overhead_us": (_median_us(lambda: run_copy(()), 21), "us"),
    }

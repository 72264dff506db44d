"""chainfold benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload replicate --seed 7 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps chainfold's public functions in spans and reports the
per-layer metrics from traced passes of every workload (so every layer
is measured where it works), plus the named workload's tracing overhead:
each operation runs untraced, then traced. Human-readable lines come
first; the last line of stdout is the JSON result. Run records
(environment, metrics, spans) go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 7
WORKLOADS = ("replicate", "simulate", "cli_mix")
SETUP_SAMPLES = 9
# enough timed operations that the 90th percentile has ten samples above it
MIN_OPS = 100

SETUP_CODE = {
    "replicate": "import chainfold.cli, chainfold.corpus as c; c.load_manifest()",
    "simulate": "import chainfold.cli, chainfold.corpus as c; c.load_manifest()",
    "cli_mix": "import chainfold.cli",
}


@dataclass
class Stats:
    """Outcomes of every operation run, and the first output of each."""

    attempted: int = 0
    errors: int = 0  # raised, or broke the CLI contract
    wrong: int = 0  # returned a wrong or non-repeatable output
    by_label: dict = field(default_factory=dict)  # label -> latencies of its successes
    busy: float = 0.0
    by_kind: dict = field(default_factory=dict)  # kind -> [units, seconds, calls]
    digests: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    @property
    def latencies(self) -> list[float]:
        return [t for times in self.by_label.values() for t in times]


def run_pass(ops, stats: Stats, recorded: dict | None = None) -> int:
    """Run each operation once, timed; check it untimed. Returns errors seen."""
    errors_before = stats.errors
    for op in ops:
        stats.attempted += 1
        out = None  # free the previous output outside the timed region
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a wrong answer for the benchmark, not a crash of it
            stats.busy += perf_counter() - t0
            stats.wrong += 1
            stats.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        dt = perf_counter() - t0
        stats.busy += dt
        checked = op.check(out)
        problems = list(checked.problems)
        digest = hashlib.sha256(checked.blob).hexdigest()
        if stats.digests.setdefault(op.label, digest) != digest:
            problems.append("output differs from its first run")
        if recorded is not None and recorded.get(op.label, digest) != digest:
            problems.append("output differs from the digest recorded for this seed")
        if problems:
            stats.wrong += 1
            stats.problems.append(f"{op.label}: {'; '.join(problems)}")
        elif checked.violation:
            stats.errors += 1
            stats.problems.append(f"{op.label}: {checked.violation}")
        else:
            stats.by_label.setdefault(op.label, []).append(dt)
            units = stats.by_kind.setdefault(op.kind, [0.0, 0.0, 0])
            units[0] += checked.units
            units[1] += dt
            units[2] += 1
    return stats.errors - errors_before


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Stats, dict, dict]:
    import workloads

    ops = workloads.WORKLOAD_OPS[workload](seed)
    recorded = None
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if table.get("seed") == seed:
        recorded = table.get(workload)
    stats = Stats()
    setup_code = SETUP_CODE[workload]
    workloads.python_ms(setup_code)  # writes bytecode caches; not timed
    setups = []
    t0 = perf_counter()
    passes = 0
    while True:
        # set-up samples are spread over the run, so they see its whole range of host speeds
        if perf_counter() - t0 >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(workloads.python_ms(setup_code) / 1e3)
        run_pass(ops, stats, recorded)
        passes += 1
        elapsed = perf_counter() - t0
        if len(stats.latencies) >= MIN_OPS and elapsed * (passes + 1) / passes > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(workloads.python_ms(setup_code) / 1e3)
    # best of N: each operation's fastest run, which host slowdowns disturb least
    best_ms = [min(times) * 1e3 for times in stats.by_label.values()]
    lat_ms = [t * 1e3 for t in stats.latencies]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MiB"),
        "best_ops_per_s": (len(best_ms) * 1e3 / sum(best_ms), "1/s"),
        "best_op_p50_ms": (percentile(best_ms, 0.5), "ms"),
        "best_op_p90_ms": (percentile(best_ms, 0.9), "ms"),
    }
    detail = {
        "passes": (passes, "count"),
        "ops_per_s": (len(lat_ms) / stats.busy, "1/s"),
        "op_p50_ms": (percentile(lat_ms, 0.5), "ms"),
        "op_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "latency_samples": (len(lat_ms), "count"),
        "ops_failed_ratio": (stats.failed / stats.attempted, "ratio"),
    }
    for kind, (units, secs, calls) in sorted(stats.by_kind.items()):
        if kind in workloads.KIND_METRICS:
            name, unit, value = workloads.KIND_METRICS[kind]
            detail[name] = (value(units, secs, calls), unit)
    if workload == "cli_mix":
        detail["cli_latency_p50_ms"] = detail["op_p50_ms"]
        detail["cli_latency_p90_ms"] = detail["op_p90_ms"]
    return stats, metrics, detail


def traced_run(workload: str, seed: int, seconds: float) -> tuple[Stats, dict, dict, list]:
    import layers
    import workloads
    from tracing import Tracer

    order = [workload] + [w for w in WORKLOADS if w != workload]
    mixes = {
        w: workloads.cli_ops(seed, invoke=workloads.run_inprocess)
        if w == "cli_mix"
        else workloads.WORKLOAD_OPS[w](seed)
        for w in order
    }
    stats = Stats()
    tracer = Tracer()
    busy = {w: [0.0, 0.0] for w in order}  # untraced, traced
    violations = 0
    rounds = 0
    run_pass(mixes[workload], stats)  # warm-up, so no timed run pays first-call costs
    t0 = perf_counter()
    while True:
        for w in order:
            # each operation untraced then traced, so both see the same host speed
            for op in mixes[w]:
                before = stats.busy
                run_pass([op], stats)
                middle = stats.busy
                tracer.install()
                try:
                    errors = run_pass([op], stats)
                finally:
                    tracer.uninstall()
                busy[w][0] += middle - before
                busy[w][1] += stats.busy - middle
                if w == "cli_mix":
                    violations += errors
        rounds += 1
        elapsed = perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    metrics = layers.layer_metrics(tracer.spans, rounds)
    metrics.update(layers.probes())
    metrics["cli.contract_violations"] = (violations / rounds, "count")
    metrics["trace.overhead_ratio"] = (busy[workload][1] / busy[workload][0], "ratio")
    detail = {"rounds": (rounds, "count"), "spans": (len(tracer.spans), "count")}
    return stats, metrics, detail, tracer.to_json()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def host_state() -> dict:
    """Load and speed of the host right now, to show drift between runs."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        sum(i * i for i in range(200_000))
        best = min(best, perf_counter() - t0)
    state = {"loadavg": os.getloadavg(), "calibration_ms": best * 1e3}
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
        state["cpu_steal_ticks"] = int(fields[7])
    except (OSError, IndexError, ValueError):
        pass
    return state


def environment() -> dict:
    import numpy

    from chainfold import kernels

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.active_backend(),
        "commit": git_commit(),
    }


def record_digests(workload: str, seed: int) -> None:
    """Store the digest of each of the workload's outputs for this seed."""
    import workloads

    stats = Stats()
    run_pass(workloads.WORKLOAD_OPS[workload](seed), stats)
    if stats.wrong:
        sys.exit(f"not recording wrong outputs: {stats.problems}")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if table.get("seed") != seed:
        table = {"seed": seed}
    table[workload] = stats.digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true", help="store this workload's output digests"
    )
    args = parser.parse_args()

    if not (SRC / "chainfold" / "__init__.py").is_file():
        print(f"run.py: no chainfold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.record_digests:
        record_digests(args.workload, args.seed)
        return 0

    env = environment()
    env["host_start"] = host_state()
    spans = None
    if args.trace:
        stats, metrics, detail, spans = traced_run(args.workload, args.seed, args.seconds)
    else:
        stats, metrics, detail = timed_run(args.workload, args.seed, args.seconds)
    env["host_end"] = host_state()

    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{stats.attempted} ops, {stats.failed} failed ({stats.wrong} wrong outputs)"
    )
    for problem, count in Counter(stats.problems).most_common(10):
        print(f"  problem ({count}x): {problem}")
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"  {name} = {value:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "problems": stats.problems,
        "latencies": stats.by_label,
        "spans": spans,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, sort_keys=True) + "\n")

    result = {
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

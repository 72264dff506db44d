"""The three seeded workloads: inputs, operations and output checks.

A workload is a fixed list of operations (one pass) generated from the
seed; the runner repeats whole passes. Each operation is one call into
chainfold's public API, or one ``python -m chainfold.cli`` subprocess.
Its check returns what was wrong with the output, the canonical output
bytes (hashed for the determinism and digest checks) and the work done.

- replicate: copier, kernels and protoevolution do the work.
- simulate: kinematics, folding, mdl and corpus do the work.
- cli_mix: interpreter start-up and imports set the latency.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from chainfold import cli, copier, corpus, encoding, folding, kinematics, mdl, protoevolution
from chainfold.copier import PresentationCase, Sparing, SubunitProfile
from chainfold.encoding import default_registry, reverse, tape_from_kinds

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = "src/chainfold/fixtures"

SHORT_SLOTS = 8
LONG_SLOTS = 4096
FEED_SLOTS = 64
EVOLVE_TRIALS = 10_000_000
SCENARIO_LENGTHS = (8, 32, 128)
INWORLD_FIXTURES = ("fig19", "fig20", "fig21", "fig22a", "fig22c")
INWORLD_TICKS = 150
# repeats of fig7a's first six tokens; the helix never collides with itself
HELIX_REPEATS = tuple(range(40, 401, 40))
CLI_EVOLVE_TRIALS = 100_000
SELF_COPY_P = Fraction(1, 7776)


@dataclass
class Checked:
    """What an operation's output check found."""

    blob: bytes
    units: float = 1.0
    problems: list[str] = field(default_factory=list)
    violation: str | None = None  # a broken CLI contract: a failed op, not a wrong answer


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]


# Named rates printed for each workload: op kind -> (name, unit, value(units, seconds, calls)).
KIND_METRICS = {
    "copy_short": ("copy_short_per_s", "1/s", lambda u, s, n: u / s),
    "copy_long": ("copy_cycles_per_s", "1/s", lambda u, s, n: u / s),
    "feed": ("feed_cycles_per_s", "1/s", lambda u, s, n: u / s),
    "evolve": ("evolve_trials_per_s", "1/s", lambda u, s, n: u / s),
    "scenario": ("scenario_ticks_per_s", "1/s", lambda u, s, n: u / s),
    "inworld": ("inworld_ticks_per_s", "1/s", lambda u, s, n: u / s),
    "fold": ("fold_tokens_per_s", "1/s", lambda u, s, n: u / s),
    "corpus_verify": ("corpus_verify_ms", "ms", lambda u, s, n: s / n * 1e3),
}


def _within_sigma(hits: int, trials: int, k: float = 5.0) -> bool:
    p = float(SELF_COPY_P)
    return abs(hits - p * trials) <= k * math.sqrt(p * (1 - p) * trials)


# --- replicate ------------------------------------------------------------


def check_copy(tape, run, profile: SubunitProfile) -> list[str]:
    """Invariants of any copy of any tape, whatever the seed."""
    reg = default_registry()
    problems = []
    log = run.stickout_log
    if run.cycles != len(log):
        problems.append(f"{run.cycles} cycles but {len(log)} stick-out entries")
    if int((log == 0).sum()) != len(tape):
        problems.append(f"{int((log == 0).sum())} glued draws for {len(tape)} slots")
    want = encoding.negative_copy(tape)
    if len(run.output) != len(tape):
        problems.append(f"{len(run.output)} output entries for {len(tape)} slots")
    mutated = set(run.mutations)
    if profile.sparing is Sparing.ONE_SIDE and mutated:
        problems.append(f"{len(mutated)} mutations with one side spared")
    for i, (slot, got, exact) in enumerate(zip(tape, run.output, want)):
        if i in mutated:
            ok = got.flipped != slot.flipped and reg.pattern(got.kind) == reverse(
                reg.pattern(exact.kind)
            )
        else:
            ok = got == exact
        if not ok:
            problems.append(f"slot {i}: got {got}, want {exact}")
            break
    return problems


def _copy_blob(run) -> bytes:
    head = [[e.kind, e.flipped] for e in run.output], run.cycles, list(run.mutations)
    return json.dumps(head).encode() + run.stickout_log.tobytes()


def _copy_op(kind: str, label: str, tape, profile: SubunitProfile, seed=None, feed_seed=None) -> Op:
    def run():
        feed = None if feed_seed is None else _feed(feed_seed)
        return copier.run_copy(tape, profile=profile, seed=seed, feed=feed)

    def check(out) -> Checked:
        units = 1.0 if kind == "copy_short" else float(out.cycles)
        return Checked(_copy_blob(out), units, check_copy(tape, out, profile))

    return Op(kind, label, run, check)


def _feed(seed: int):
    """Forced candidate stream: uniform kinds and presentation cases."""
    rng = random.Random(seed)
    kinds = default_registry().kinds
    cases = list(PresentationCase)
    while True:
        yield rng.choice(kinds), rng.choice(cases)


def _copy_twice_op(label: str, tape, seed: int) -> Op:
    def check(out) -> Checked:
        problems = [] if out == tape else ["copy of the copy differs from the tape"]
        return Checked(json.dumps([[e.kind, e.flipped] for e in out]).encode(), 2.0, problems)

    return Op("copy_short", label, lambda: copier.copy_twice(tape, seed=seed), check)


def _evolve_op(label: str, seed: int) -> Op:
    exp = protoevolution.StreamExperiment(trials=EVOLVE_TRIALS, seed=seed)

    def check(rep) -> Checked:
        problems = []
        if rep.trials != EVOLVE_TRIALS or rep.analytic != SELF_COPY_P:
            problems.append(f"report for {rep.trials} trials at {rep.analytic}")
        if not _within_sigma(rep.hits, rep.trials):
            problems.append(f"{rep.hits} hits in {rep.trials} trials is beyond 5 sigma")
        return Checked(json.dumps([rep.hits, rep.trials]).encode(), float(rep.trials), problems)

    return Op("evolve", label, lambda: protoevolution.mhbbg_probability(exp), check)


def replicate_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    kinds = default_registry().kinds
    one, both = SubunitProfile(), SubunitProfile(sparing=Sparing.BOTH_SIDES)

    def tape(n):
        return tape_from_kinds(
            [rng.choice(kinds) for _ in range(n)], [rng.random() < 0.5 for _ in range(n)]
        )

    def draw_seed():
        return rng.randrange(2**32)

    # 29 operations, ranked by latency: 20 short (p50 among them), 4 feeds,
    # 4 long copies (p90 among them), 1 evolve
    ops = [
        _copy_op("copy_short", f"copy_short.{i}", tape(SHORT_SLOTS), profile, draw_seed())
        for i, profile in enumerate([one, both] * 8)
    ]
    ops += [_copy_twice_op(f"copy_twice.{i}", tape(SHORT_SLOTS), draw_seed()) for i in range(4)]
    ops += [
        _copy_op("copy_long", f"copy_long.{i}", tape(LONG_SLOTS), profile, draw_seed())
        for i, profile in enumerate([one, both] * 2)
    ]
    ops += [
        _copy_op("feed", f"feed.{i}", tape(FEED_SLOTS), one, feed_seed=draw_seed())
        for i in range(4)
    ]
    ops.append(_evolve_op("evolve.0", draw_seed()))
    return ops


# --- simulate -------------------------------------------------------------


def check_scenario(trace) -> list[str]:
    """The properties acceptance test 12 asserts, at any track length."""
    r = trace.result
    problems = []
    if len(trace.frames) != trace.ticks + 1:
        problems.append(f"{len(trace.frames)} frames for {trace.ticks} ticks")
    if trace.name == "walker" and not (r["reached_end"] and r["stopped"]):
        problems.append(f"walker stopped at {r['final_position']}, track end {r['track_end']}")
    if trace.name == "shuttle" and not (
        trace.period is not None and r["touched_left"] and r["touched_right"]
    ):
        problems.append("shuttle did not settle into a period between both ends")
    if trace.name == "retainer":
        early = any(dz for dz, x in zip(r["rises"], r["positions"]) if x < r["track_end"])
        if early or r["x_at_first_lift"] != r["track_end"] or r["final_rise"] <= 0:
            problems.append(f"retainer lifted at x={r['x_at_first_lift']}")
    return problems


def _scenario_op(name: str, length: int, seed: int) -> Op:
    def run():
        trace = kinematics.run_scenario(name, length=length, seed=seed)
        return trace, json.dumps(kinematics.trace_to_json_dict(trace), sort_keys=True)

    def check(out) -> Checked:
        trace, text = out
        return Checked(text.encode(), float(trace.ticks), check_scenario(trace))

    return Op("scenario", f"scenario.{name}.len{length}", run, check)


def _inworld_op(fixture, seed: int) -> Op:
    chain = fixture.chain

    def run():
        world = kinematics.world_from_chain(fixture.mdl, seed=seed)
        return kinematics.run_world(world, INWORLD_TICKS)

    def check(world) -> Checked:
        problems = []
        if world.time != INWORLD_TICKS or world.pending_folds:
            problems.append(f"tick {world.time} with {len(world.pending_folds)} folds pending")
        missing = set(range(len(chain))) - set(world.blocks)
        if set(world.blocks) - set(range(len(chain))) or any(chain[i].kind != "d" for i in missing):
            problems.append(f"blocks {sorted(missing)} vanished without dissolving")
        blob = json.dumps(
            [
                sorted((i, b.cell, b.orientation) for i, b in world.blocks.items()),
                sorted(sorted(p) for p in world.bonds),
            ]
        )
        return Checked(blob.encode(), float(INWORLD_TICKS), problems)

    return Op("inworld", f"inworld.{fixture.id}", run, check)


def check_cells(cells: list, n_tokens: int, collisions: int = 0) -> list[str]:
    """A folded chain: every token placed, cells unique, chain neighbours adjacent."""
    problems = []
    if len(cells) != n_tokens or collisions:
        problems.append(f"{len(cells)} blocks and {collisions} collisions for {n_tokens} tokens")
    if len(set(cells)) != len(cells):
        problems.append("two blocks share a cell")
    for j, (a, b) in enumerate(zip(cells, cells[1:])):
        if sum(abs(p - q) for p, q in zip(a, b)) != 1:
            problems.append(f"chain neighbours {j} and {j + 1} are not adjacent")
            break
    return problems


def _fold_op(label: str, text: str) -> Op:
    def run():
        structure = folding.fold(mdl.parse_mdl(text))
        return structure, json.dumps(folding.to_json_dict(structure), sort_keys=True)

    def check(out) -> Checked:
        structure, rendered = out
        cells = [b.cell for b in structure.blocks]
        problems = check_cells(cells, len(text) // 3, len(structure.collisions))
        return Checked(rendered.encode(), float(len(cells)), problems)

    return Op("fold", label, run, check)


def _verify_op(n_fixtures: int) -> Op:
    def check(reports) -> Checked:
        bad = sorted(fid for fid, r in reports.items() if not r.ok)
        problems = []
        if len(reports) != n_fixtures or bad:
            problems.append(f"{len(reports)} fixtures verified, failing: {bad}")
        blob = json.dumps(
            {fid: [[c.name, c.ok, c.detail] for c in r.checks] for fid, r in reports.items()},
            sort_keys=True,
        )
        return Checked(blob.encode(), 1.0, problems)

    return Op("corpus_verify", "corpus_verify", corpus.verify_corpus, check)


def simulate_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    manifest = corpus.load_manifest()
    # 25 operations: the 90th percentile falls on the third-slowest, the
    # walker at length 128, whatever the number of passes
    ops = [
        _scenario_op(name, length, rng.randrange(2**16))
        for length in SCENARIO_LENGTHS
        for name in kinematics.SCENARIO_NAMES
    ]
    ops += [_inworld_op(manifest[fid], rng.randrange(2**16)) for fid in INWORLD_FIXTURES]
    unit = mdl.write_canonical(manifest["fig7a"].chain)[:18]
    for repeats in HELIX_REPEATS:
        text = unit * repeats
        if rng.random() < 0.5:  # the mirror-image helix
            text = mdl.write_canonical(folding.swap_lr(text))
        ops.append(_fold_op(f"fold.helix{repeats}", text))
    ops.append(_verify_op(len(manifest)))
    return ops


# --- cli_mix --------------------------------------------------------------


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter importing chainfold from the checkout's sources.

    Bytecode caching is on whatever the caller set, as for an installed
    package, so start-up times do not include compiling chainfold. Output
    goes through pipes: with a timeout and no pipes, `subprocess` polls
    for the exit every 50 ms, which would quantize the times.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


def python_ms(code: str) -> float:
    """Wall time of a fresh interpreter running `code`, in ms."""
    t0 = perf_counter()
    run_python(["-c", code]).check_returncode()
    return (perf_counter() - t0) * 1e3


def run_subprocess(argv: list[str]) -> tuple[int, bytes, bytes]:
    proc = run_python(["-m", "chainfold.cli", *argv])
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(argv: list[str]) -> tuple[int, bytes, bytes]:
    """`cli.main` in this process, looked up at call time so a tracer sees it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            err.write(traceback.format_exc())
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def _cli_check(expect: Callable[[bytes], list[str]] | None):
    """Contract: exit 0/1/2 and no traceback; valid argvs also exit 0 with good output."""

    def check(result) -> Checked:
        code, out, err = result
        # a probe's exit code and message may change, as long as the contract holds
        blob = b"" if expect is None else json.dumps([code, out.decode(errors="replace")]).encode()
        if code not in (0, 1, 2) or b"Traceback" in err:
            last = err.decode(errors="replace").strip().splitlines()[-1:]
            return Checked(blob, violation=f"exit {code}, {' '.join(last)}")
        if expect is None:
            return Checked(blob)
        if code != 0:
            return Checked(blob, problems=[f"exit {code}: {err.decode(errors='replace').strip()}"])
        return Checked(blob, problems=expect(out))

    return check


def _expect_json(test: Callable[[dict], bool], what: str):
    def expect(out: bytes) -> list[str]:
        try:
            ok = test(json.loads(out))
        except (ValueError, KeyError, TypeError):
            ok = False
        return [] if ok else [what]

    return expect


def _expect_prefix(prefix: bytes):
    return lambda out: [] if out.startswith(prefix) else [f"output does not start with {prefix!r}"]


def _fold_json_ok(d: dict) -> bool:
    blocks = sorted(d["blocks"], key=lambda b: b["chain_index"])
    return not check_cells([tuple(b["cell"]) for b in blocks], len(blocks), len(d["collisions"]))


def _scenario_json_ok(d: dict) -> bool:
    r = d["result"]
    if d["name"] == "walker":
        return r["reached_end"] and r["stopped"]
    if d["name"] == "shuttle":
        return d["period"] is not None and r["touched_left"] and r["touched_right"]
    return r["x_at_first_lift"] == r["track_end"] and r["final_rise"] > 0


# Invalid argvs whose only requirement is the exit-code contract.
CLI_PROBES = (
    ["frobnicate"],
    ["fold", "no-such-chain.mdl"],
    ["copy", "--tape", "no-such-tape.json"],
    ["evolve", "--trials", "0"],
    ["scenario", "--name", "nosuch"],
    ["scenario", "--name", "walker", "--ticks", "-3"],
)


def cli_ops(seed: int, invoke=run_subprocess) -> list[Op]:
    rng = random.Random(seed)
    fixture_ids = sorted(corpus.load_manifest())
    n_fixtures = len(fixture_ids)

    def s() -> str:
        return str(rng.randrange(2**16))

    tape = f"{FIXTURES}/tape8.json"
    ascii_fx, json_fx, obj_fx = (rng.choice(fixture_ids) for _ in range(3))
    summary = f"{n_fixtures}/{n_fixtures} fixtures pass\n".encode()
    valid = [
        (["fold", f"{FIXTURES}/{ascii_fx}.mdl"], _expect_prefix(b"z=")),
        (
            ["fold", f"{FIXTURES}/{json_fx}.mdl", "--format", "json"],
            _expect_json(_fold_json_ok, "bad fold json"),
        ),
        (["fold", f"{FIXTURES}/{obj_fx}.mdl", "--format", "obj"], _expect_prefix(b"v ")),
        (["corpus", "verify"], lambda o: [] if o.endswith(summary) else ["corpus verify failed"]),
        (
            ["corpus", "stats"],
            _expect_json(lambda d: d["fixture_count"] == n_fixtures, "bad corpus stats"),
        ),
        (
            ["copy", "--tape", tape, "--seed", s()],
            _expect_json(lambda d: d["faithful"] and d["mutation_count"] == 0, "unfaithful copy"),
        ),
        (
            ["copy", "--tape", tape, "--sparing", "both_sides", "--seed", s()],
            _expect_json(lambda d: len(d["output"]["entries"]) == 8, "bad copy"),
        ),
        (
            ["evolve", "--trials", str(CLI_EVOLVE_TRIALS), "--seed", s()],
            _expect_json(lambda d: _within_sigma(d["hits"], d["trials"]), "evolve beyond 5 sigma"),
        ),
    ]
    valid += [
        (
            ["scenario", "--name", name, "--length", "8", "--seed", s()],
            _expect_json(_scenario_json_ok, f"{name} misbehaved"),
        )
        for name in kinematics.SCENARIO_NAMES
    ]
    valid += [(argv, None) for argv in CLI_PROBES]
    return [
        Op("cli", " ".join(argv), lambda a=argv: invoke(a), _cli_check(expect))
        for argv, expect in valid
    ]


WORKLOAD_OPS = {"replicate": replicate_ops, "simulate": simulate_ops, "cli_mix": cli_ops}

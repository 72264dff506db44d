"""In-memory spans around chainfold's public functions.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded chainfold module that holds a reference to it, so calls made
between modules (``copy_twice`` -> ``run_copy`` -> ``kernels.copier_chunk``,
``run_scenario`` -> ``step_world``) become child spans. Nothing is wrapped
unless a tracer is installed; ``uninstall()`` puts the originals back.

A span is ``Span(name, start, end, parent, attrs)``. ``attrs`` holds the
work counts an annotator read off the call's arguments and result, so
per-unit costs are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from chainfold.copier import Sparing, SubunitProfile, analytic_cycle_stats


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _kinematics_diff(args, result) -> dict:
    """Events of one tick, read by comparing the world before and after."""
    before = args["world"]
    now = before.time
    pending_after = {e.chain_index: e.due_tick for e in result.pending_folds}
    fired = retried = 0
    for ev in before.pending_folds:
        if ev.due_tick > now or ev.chain_index not in before.blocks:
            continue
        if ev.chain_index not in pending_after:
            fired += 1
        elif pending_after[ev.chain_index] == now + 1:
            retried += 1
    # blocks only ever vanish, by dissolving, and take their bonds with them
    dissolves = len(before.blocks) - len(result.blocks)
    lost = 0
    if dissolves:
        gone = set(before.blocks) - set(result.blocks)
        lost = sum(1 for pair in before.bonds if pair & gone)
    return {
        "folds_fired": fired,
        "folds_retried": retried,
        "dissolves": dissolves,
        "bonds_formed": len(result.bonds) - len(before.bonds) + lost,
    }


@functools.cache
def _slot_moments(sparing: str, entry) -> tuple[float, float]:
    stats = analytic_cycle_stats((entry,), SubunitProfile(sparing=Sparing(sparing)))
    return float(stats["expected_cycles"]), float(stats["variance"])


def expected_cycles(tape, sparing: str) -> tuple[float, float]:
    """Analytic mean and variance of the cycles a random-feed copy takes."""
    moments = [_slot_moments(sparing, entry) for entry in tape]
    return sum(m for m, _ in moments), sum(v for _, v in moments)


def _copy_attrs(args, result) -> dict:
    attrs = {
        "slots": len(args["tape"]),
        "cycles": result.cycles,
        "feed": args["feed"] is not None,
        "sparing": result.sparing.value,
        "mutations": len(result.mutations),
        "stickout": np.bincount(result.stickout_log, minlength=3).tolist(),
    }
    if args["feed"] is None:
        attrs["expected"] = expected_cycles(args["tape"], result.sparing.value)
    return attrs


# (module, function, annotator(bound arguments, result) -> attrs)
TRACED = (
    ("mdl", "parse_mdl", lambda a, r: {"tokens": len(r)}),
    ("folding", "fold", lambda a, r: {"tokens": len(r)}),
    ("folding", "to_json_dict", lambda a, r: {"tokens": len(a["structure"].blocks)}),
    ("folding", "render_ascii", lambda a, r: {"tokens": len(a["structure"].blocks)}),
    ("folding", "export_obj", lambda a, r: {"tokens": len(a["structure"].blocks)}),
    ("corpus", "verify_corpus", lambda a, r: {"passed": sum(x.ok for x in r.values())}),
    ("encoding", "negative_copy", lambda a, r: {"slots": len(a["tape"])}),
    ("copier", "run_copy", _copy_attrs),
    ("copier", "copy_twice", None),
    ("kernels", "copier_chunk", lambda a, r: {"draws": int(r[1])}),
    ("kernels", "count_matches", lambda a, r: {"rows": int(a["draws"].shape[0])}),
    ("protoevolution", "mhbbg_probability", lambda a, r: {"trials": r.trials, "hits": r.hits}),
    ("kinematics", "world_from_chain", None),
    ("kinematics", "run_world", None),
    ("kinematics", "run_scenario", lambda a, r: {"scenario": f"{r.name}.len{r.length}"}),
    ("kinematics", "step_world", _kinematics_diff),
    ("kinematics", "trace_to_json_dict", None),
    # only successful commands count towards cli.command_ms.<subcommand>
    ("cli", "main", lambda a, r: {"command": _subcommand(a["argv"]) if r == 0 else None}),
)


def _subcommand(argv) -> str:
    argv = list(argv or [])
    if argv[:1] == ["corpus"] and len(argv) > 1:
        return "corpus_" + argv[1]
    return argv[0] if argv else ""


class Tracer:
    """Collects spans while installed; one tracer at a time per process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, annotate=None):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if annotate is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = annotate(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("chainfold.") and m]
        for mod_name, fn_name, annotate in TRACED:
            original = getattr(sys.modules[f"chainfold.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, annotate)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "attrs": s.attrs}
            for s in self.spans
        ]

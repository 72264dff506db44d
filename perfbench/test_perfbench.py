"""Tests of the benchmark itself: span arithmetic and failure counting.

    python3 -m pytest perfbench
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from run import Stats, run_pass  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

from chainfold import copier, kernels  # noqa: E402
from chainfold.encoding import TapeEntry  # noqa: E402


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] is covered once
        Span("c", 8.0, 12.0, parent=0),  # runs past its parent: only [8, 10] counts
        Span("grandchild", 3.5, 4.5, parent=2),  # counts against b, not root
    ]
    assert self_times(spans) == [4.0, 2.0, 2.0, 4.0, 1.0]


def test_leaf_and_back_to_back_children():
    spans = [Span("p", 0.0, 6.0), Span("x", 0.0, 2.0, parent=0), Span("y", 2.0, 6.0, parent=0)]
    assert self_times(spans) == [0.0, 2.0, 4.0]


def _corrupted(op, mutate):
    return workloads.Op(op.kind, op.label, lambda: mutate(op.run()), op.check)


def _flip_first_entry(run):
    first = run.output[0]
    output = (TapeEntry(first.kind, not first.flipped),) + run.output[1:]
    return dataclasses.replace(run, output=output)


def _move_one_cell(out):
    structure, rendered = out
    blocks = list(structure.blocks)
    x, y, z = blocks[3].cell
    blocks[3] = dataclasses.replace(blocks[3], cell=(x + 5, y, z))
    return dataclasses.replace(structure, blocks=tuple(blocks)), rendered


def test_a_flipped_tape_entry_counts_as_a_failed_operation():
    op = workloads.replicate_ops(1)[0]
    stats = Stats()
    run_pass([op, _corrupted(op, _flip_first_entry)], stats)
    assert (stats.attempted, stats.failed, stats.wrong) == (2, 1, 1)
    assert "slot 0" in stats.problems[0]


def test_a_wrong_fold_cell_counts_as_a_failed_operation():
    op = next(o for o in workloads.simulate_ops(1) if o.kind == "fold")
    stats = Stats()
    run_pass([_corrupted(op, _move_one_cell)], stats)
    assert (stats.failed, stats.wrong) == (1, 1)
    assert "not adjacent" in stats.problems[0]


def test_a_changed_output_fails_against_the_recorded_digest():
    op = workloads.replicate_ops(1)[0]
    stats = Stats()
    run_pass([op], stats, recorded={op.label: "0" * 64})
    assert stats.wrong == 1


def test_a_traceback_breaks_the_cli_contract_but_is_not_a_wrong_answer():
    probe = workloads._cli_check(None)
    crash = workloads.Op("cli", "crash", lambda: (1, b"", b"Traceback (most recent call last):\n"), probe)
    clean = workloads.Op("cli", "clean", lambda: (2, b"", b"chainfold: unknown\n"), probe)
    stats = Stats()
    run_pass([crash, clean], stats)
    assert (stats.failed, stats.errors, stats.wrong) == (1, 1, 0)
    assert len(stats.latencies) == 1


def test_tracer_nests_calls_between_modules_and_restores_them():
    original = copier.run_copy
    tracer = Tracer()
    tracer.install()
    try:
        copier.copy_twice(workloads.tape_from_kinds(["b__"] * 8), seed=3)
    finally:
        tracer.uninstall()
    assert copier.run_copy is original and kernels.copier_chunk.__name__ == "copier_chunk"
    names = [s.name for s in tracer.spans]
    assert names[0] == "copier.copy_twice" and names.count("copier.run_copy") == 2
    caller = {"copier.run_copy": "copier.copy_twice", "kernels.copier_chunk": "copier.run_copy"}
    for s in tracer.spans[1:]:
        assert tracer.spans[s.parent].name == caller[s.name]
    assert all(s.attrs["cycles"] > 0 for s in tracer.spans if s.name == "copier.run_copy")

"""How often a seeded run calls each costly layer, pinned exactly.

The work a seeded run does is a pure function of its inputs, so these
counts hold on any host, where a timing on a shared host is noisier than
most changes it would judge. Each count is taken with a spy on the layer's
module or class attribute, which is what its callers look up. A change
that moves a count on purpose edits its row and says which count moved
and why.
"""

import numpy as np
import pytest

from chainfold import kernels, kinematics, protoevolution
from chainfold.copier import FEED_CHUNK, run_copy, seeded_copy
from chainfold.encoding import default_registry, tape_from_kinds
from chainfold.pcg64 import _PIECE
from conftest import CountedDraws

KINDS = default_registry().kinds


def _spy(monkeypatch, owner, name):
    """The arguments of every later call to `owner.name`."""
    calls = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _default_ticks(name, length):
    return kinematics.build_scenario(name, length)[1]["default_ticks"]


def _scenario(monkeypatch, name, length, past_default):
    """One `run_scenario`: its trace, `step_world` calls and `World`s checked."""
    ticks = _default_ticks(name, length) + past_default if past_default else None
    steps = _spy(monkeypatch, kinematics, "step_world")
    worlds = _spy(monkeypatch, kinematics, "check_world")
    trace = kinematics.run_scenario(name, length, ticks=ticks)
    return trace, len(steps), len(worlds)


def _cell_maps(trace):
    """Distinct cell maps of a trace, and frames that share an earlier frame's."""
    distinct = len({id(f) for f in trace.frames})
    return distinct, len(trace.frames) - distinct


def _steps(monkeypatch, name, length, past_default):
    """`step_world` calls of one `run_scenario`."""
    return _scenario(monkeypatch, name, length, past_default)[1]


def _worlds(monkeypatch, name, length, past_default):
    """`World`s checked by one `run_scenario`, and frames sharing cells."""
    trace, _, worlds = _scenario(monkeypatch, name, length, past_default)
    return worlds, _cell_maps(trace)[1]


def _chunks(monkeypatch, n, copy=run_copy):
    """`copier_chunk` calls and cycles of a seed-7 copy of an n-slot tape."""
    chunks = _spy(monkeypatch, kernels, "copier_chunk")
    run = copy(tape_from_kinds([KINDS[i % 6] for i in range(n)]), seed=7)
    return len(chunks), run.cycles


def _seeded_chunks(monkeypatch, n):
    """The same for the numpy-free `seeded_copy`, which draws the same stream."""
    return _chunks(monkeypatch, n, seeded_copy)


def _draws(monkeypatch, n, copy=run_copy):
    """Flat draws combined and handed to `copier_chunk` in the same copy."""
    chunks = _spy(monkeypatch, kernels, "copier_chunk")
    copy(tape_from_kinds([KINDS[i % 6] for i in range(n)]), seed=7)
    return sum(len(flat) for _, _, _, flat, _, _ in chunks)


def _seeded_draws(monkeypatch, n):
    return _draws(monkeypatch, n, seeded_copy)


def _finds(monkeypatch, n, copy=run_copy):
    """Class-map translations and `find` calls that `copier_chunk` makes
    in the same copy, read off each chunk it is given."""
    log, walk = [], kernels.copier_chunk

    def logged(classes, keys, head, flat, cycles, glued):
        return walk(classes, keys, head, CountedDraws(flat, log), cycles, glued)

    monkeypatch.setattr(kernels, "copier_chunk", logged)
    copy(tape_from_kinds([KINDS[i % 6] for i in range(n)]), seed=7)
    return log.count(None), len(log) - log.count(None)


def _seeded_finds(monkeypatch, n):
    return _finds(monkeypatch, n, seeded_copy)


def _matched_rows(monkeypatch, trials):
    """`count_matches` calls of a seed-7 evolve, and the most rows one gets."""
    calls = _spy(monkeypatch, kernels, "count_matches")
    protoevolution.mhbbg_probability(protoevolution.StreamExperiment(trials=trials, seed=7))
    return len(calls), max(len(draws) for draws, _ in calls)


WORK_COUNTS = [
    # a scenario at its default ticks and at 500 past them
    (_steps, ("walker", 8, 0), 56),
    (_steps, ("walker", 8, 500), 56),
    (_steps, ("walker", 32, 0), 296),
    (_steps, ("walker", 32, 500), 296),
    (_steps, ("shuttle", 8, 0), 10),
    (_steps, ("shuttle", 8, 500), 10),
    (_steps, ("shuttle", 32, 0), 10),
    (_steps, ("shuttle", 32, 500), 10),
    (_steps, ("retainer", 8, 0), 120),
    (_steps, ("retainer", 8, 500), 620),
    (_steps, ("retainer", 32, 0), 360),
    (_steps, ("retainer", 32, 500), 860),
    # the same runs: `World`s checked, and frames that reuse an earlier frame's cells
    (_worlds, ("walker", 8, 0), (1, 64)),
    (_worlds, ("walker", 8, 500), (1, 564)),
    (_worlds, ("walker", 32, 0), (1, 64)),
    (_worlds, ("walker", 32, 500), (1, 564)),
    (_worlds, ("shuttle", 8, 0), (1, 130)),
    (_worlds, ("shuttle", 8, 500), (1, 630)),
    (_worlds, ("shuttle", 32, 0), (1, 370)),
    (_worlds, ("shuttle", 32, 500), (1, 870)),
    (_worlds, ("retainer", 8, 0), (1, 0)),
    (_worlds, ("retainer", 8, 500), (1, 0)),
    (_worlds, ("retainer", 32, 0), (1, 0)),
    (_worlds, ("retainer", 32, 500), (1, 0)),
    # a copy of the six kinds in turn
    (_chunks, (8,), (1, 138)),
    (_chunks, (4096,), (21, 82_271)),
    (_seeded_chunks, (8,), (1, 138)),
    (_seeded_chunks, (4096,), (21, 82_271)),
    # the same copies: flat draws handed to the kernel, whole chunks but the
    # last, which ends in its first piece of 48 draws per open slot (8, and 15)
    (_draws, (8,), 384),
    (_draws, (4096,), 20 * 4096 + 720),
    (_seeded_draws, (8,), 384),
    (_seeded_draws, (4096,), 20 * 4096 + 720),
    # the same copies: one class map per kernel call, and one find per glue
    # plus one per call that ends before the tape is done
    (_finds, (8,), (1, 8)),
    (_finds, (4096,), (21, 4_116)),
    (_seeded_finds, (8,), (1, 8)),
    (_seeded_finds, (4096,), (21, 4_116)),
    # an evolve of the default experiment: a call per piece of draws, and
    # a few short ones at a chunk's end, where rejected bytes are redrawn
    (_matched_rows, (1_000_000,), (41, 25_825)),
    (_matched_rows, (2_500_000,), (105, 25_825)),
]


@pytest.mark.parametrize(
    "count,args,want",
    WORK_COUNTS,
    ids=[f"{c.__name__[1:]}-{'-'.join(map(str, a))}" for c, a, _ in WORK_COUNTS],
)
def test_work_count(monkeypatch, count, args, want):
    assert count(monkeypatch, *args) == want


def test_how_scenario_steps_scale():
    steps = {args: want for count, args, want in WORK_COUNTS if count is _steps}
    lengths, extras = (8, 32), (0, 500)
    # a shuttle repeats within its first round trip at any length
    assert {steps["shuttle", n, extra] for n in lengths for extra in extras} == {10}
    # a walker stops stepping at its period, however many ticks follow
    assert all(steps["walker", n, 500] == steps["walker", n, 0] for n in lengths)
    # a retainer's payload keeps rising, so it steps every tick
    for n in lengths:
        for extra in extras:
            assert steps["retainer", n, extra] == _default_ticks("retainer", n) + extra


def test_how_copier_finds_scale():
    calls = {
        (count is _seeded_chunks, args): want[0]
        for count, args, want in WORK_COUNTS
        if count in (_chunks, _seeded_chunks)
    }
    for count, args, want in WORK_COUNTS:
        if count in (_finds, _seeded_finds):
            chunks = calls[count is _seeded_finds, args]
            # every call but the last ends before the tape is done
            assert want == (chunks, args[0] + chunks - 1)


def test_how_copier_draws_scale():
    chunks = {
        (count is _seeded_chunks, args): want
        for count, args, want in WORK_COUNTS
        if count in (_chunks, _seeded_chunks)
    }
    for count, args, want in WORK_COUNTS:
        if count in (_draws, _seeded_draws):
            calls, cycles = chunks[count is _seeded_draws, args]
            # the walk reads every draw but the last chunk's unread tail,
            # and the kernel never gets that chunk whole
            assert cycles <= want < calls * FEED_CHUNK


def test_how_evolve_calls_scale():
    rows = {args[0]: want for count, args, want in WORK_COUNTS if count is _matched_rows}
    for trials, (calls, most) in rows.items():
        # no call gets more rows than one piece of draws fills, with the row
        # carried over from the piece before
        assert most <= -(-4 * _PIECE // 5)
        # calls per chunk do not grow with the trials
        assert calls <= -(-trials // protoevolution._CHUNK_TRIALS) * rows[1_000_000][0]


def _evolve(size, separator, trials):
    return protoevolution.StreamExperiment(
        alphabet=protoevolution.build_alphabet(size, include_separator=separator),
        require_separator=separator,
        trials=trials,
        seed=7,
    )


# the alphabet's edges with and without a separator, one trial, and a last
# chunk of one and of three trials
_EVOLVES = {
    "default": protoevolution.StreamExperiment(trials=2_500_000, seed=7),
    "separator-47": _evolve(47, True, 2_500_000),
    "separator-7": _evolve(7, True, 2_500_000),
    "fillers-46": _evolve(46, False, 2_500_000),
    "one-trial": _evolve(6, False, 1),
    "chunk-edge": _evolve(6, False, protoevolution._CHUNK_TRIALS + 1),
    "separator-chunk-edge": _evolve(7, True, 2 * protoevolution._CHUNK_TRIALS + 3),
}


@pytest.mark.parametrize("name", _EVOLVES)
def test_evolve_hands_count_matches_the_one_shape_it_serves(monkeypatch, name):
    # `count_matches` checks none of this itself: its one caller keeps it so
    calls = _spy(monkeypatch, kernels, "count_matches")
    protoevolution.mhbbg_probability(_EVOLVES[name])
    assert calls
    for draws, target in calls:
        assert draws.dtype == target.dtype == np.uint8
        assert draws.flags.c_contiguous and target.flags.c_contiguous
        assert draws.ndim == 2 and draws.shape[1] == len(target) in (5, 6)
        assert len(draws) <= -(-4 * _PIECE // 5)
    assert len(calls[0][1]) == 5 + _EVOLVES[name].require_separator
    # every trial is counted once
    assert sum(len(draws) for draws, _ in calls) == _EVOLVES[name].trials


def test_how_scenario_worlds_relate(monkeypatch):
    for count, args, _ in WORK_COUNTS:
        if count is not _worlds:
            continue
        with monkeypatch.context() as spies:
            trace, steps, worlds = _scenario(spies, *args)
        # the scenario's starting world is checked; the worlds its ticks return are not
        assert worlds == 1 and steps > 0
        # every frame of the trace has its own cell map or shares one
        distinct, shared = _cell_maps(trace)
        assert distinct + shared == trace.ticks + 1

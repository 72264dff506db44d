"""How often a seeded run calls each costly layer, pinned exactly.

The work a seeded run does is a pure function of its inputs, so these
counts hold on any host, where a timing on a shared host is noisier than
most changes it would judge. Each count is taken with a spy on the layer's
module attribute, which is what its callers look up. A change that moves a
count on purpose edits its row and says which count moved and why.
"""

import pytest

from chainfold import kernels, kinematics, protoevolution
from chainfold.copier import run_copy
from chainfold.encoding import default_registry, tape_from_kinds

KINDS = default_registry().kinds


def _spy(monkeypatch, module, name):
    """The arguments of every later call to `module.name`."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _default_ticks(name, length):
    return kinematics.build_scenario(name, length)[1]["default_ticks"]


def _steps(monkeypatch, name, length, past_default):
    """`step_world` calls of one `run_scenario`."""
    steps = _spy(monkeypatch, kinematics, "step_world")
    ticks = _default_ticks(name, length) + past_default if past_default else None
    kinematics.run_scenario(name, length, ticks=ticks)
    return len(steps)


def _chunks(monkeypatch, n):
    """`copier_chunk` calls and cycles of a seed-7 copy of an n-slot tape."""
    chunks = _spy(monkeypatch, kernels, "copier_chunk")
    run = run_copy(tape_from_kinds([KINDS[i % 6] for i in range(n)]), seed=7)
    return len(chunks), run.cycles


def _matched_rows(monkeypatch, trials):
    """The rows of draws that each `count_matches` call of a seed-7 evolve gets."""
    calls = _spy(monkeypatch, kernels, "count_matches")
    protoevolution.mhbbg_probability(protoevolution.StreamExperiment(trials=trials, seed=7))
    return [len(draws) for draws, _ in calls]


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
    # a copy of the six kinds in turn
    (_chunks, (8,), (1, 138)),
    (_chunks, (4096,), (21, 82_271)),
    # an evolve of the default experiment
    (_matched_rows, (1_000_000,), [1_000_000]),
    (_matched_rows, (2_500_000,), [1_000_000, 1_000_000, 500_000]),
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

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfold.copier import (
    FEED_CHUNK,
    CopierState,
    CycleLimitExceededError,
    PresentationCase,
    Sparing,
    SubunitProfile,
    TapeExhaustedError,
    analytic_cycle_stats,
    copy_twice,
    run_copy,
    seeded_copy,
    step,
    stickout,
)
from chainfold.encoding import (
    TapeEntry,
    UnknownTapeKindError,
    default_registry,
    flip_end_over_end,
    negative_copy,
    reverse,
    tape_from_kinds,
)

REG = default_registry()
KINDS = REG.kinds
ONE = SubunitProfile(sparing=Sparing.ONE_SIDE)
BOTH = SubunitProfile(sparing=Sparing.BOTH_SIDES)
U, F, S, O = PresentationCase  # noqa: E741 - readable case shorthand
_entries = st.builds(TapeEntry, st.sampled_from(KINDS), st.booleans())

# Hand-enumerated acceptance sets per unflipped slot, frozen from working
# the pattern table by hand: a,b,e,f slots admit exactly their partner
# upright; the palindromic pair c,d also admits the partner flipped.
ACCEPT_ONE_SIDE = {
    "G0_": {("b__", U)},
    "H__": {("M1x", U)},
    "L__": {("R__", U), ("R__", F)},
    "R__": {("L__", U), ("L__", F)},
    "M1x": {("H__", U)},
    "b__": {("G0_", U)},
}
# both-sides sparing also lets the slot's own kind in flipped (mutation)
ACCEPT_BOTH_SIDES = {
    k: v | ({(k, F)} if k not in ("L__", "R__") else set())
    for k, v in ACCEPT_ONE_SIDE.items()
}


@pytest.mark.parametrize(
    "profile,table", [(ONE, ACCEPT_ONE_SIDE), (BOTH, ACCEPT_BOTH_SIDES)]
)
def test_stickout_acceptance_matches_frozen_table(profile, table):
    for slot_kind, expected in table.items():
        got = {
            (cand, case)
            for cand in KINDS
            for case in PresentationCase
            if stickout(cand, case, TapeEntry(slot_kind), profile) == 0
        }
        assert got == expected, slot_kind


def test_stickout_worked_cases():
    slot = TapeEntry("G0_")
    assert stickout("b__", U, slot, ONE) == 0
    assert stickout("b__", S, slot, ONE) == 1
    assert stickout("b__", O, slot, ONE) == 2
    assert stickout("H__", U, slot, ONE) == 2  # wrong type, upright
    assert stickout("G0_", F, slot, ONE) == 1  # reversed, rejected
    assert stickout("G0_", F, slot, BOTH) == 0  # reversed, admitted


def test_step_glues_and_advances():
    state = CopierState(tape=tape_from_kinds(["G0_", "H__"]), profile=ONE, registry=REG)
    out = step(state, "b__", U)
    assert out.accepted and not out.mutation and state.head == 1
    out = step(state, "H__", U)
    assert not out.accepted and state.head == 1
    out = step(state, "M1x", U)
    assert out.accepted and state.done
    assert [e.kind for e in state.output] == ["b__", "M1x"]
    with pytest.raises(TapeExhaustedError):
        step(state, "b__", U)


def test_step_reversed_acceptance_flags_mutation():
    state = CopierState(tape=tape_from_kinds(["G0_"]), profile=BOTH, registry=REG)
    out = step(state, "G0_", F)
    assert out.accepted and out.mutation
    assert state.output == [TapeEntry("G0_", True)]


def test_forced_feed_produces_negative_copy():
    tape = tape_from_kinds(["G0_", "H__", "L__"])
    feed = [("b__", U), ("M1x", U), ("R__", U)]
    run = run_copy(tape, ONE, feed=feed)
    assert run.output == negative_copy(tape)
    assert run.cycles == 3
    assert run.mutations == ()


def test_forced_feed_stops_at_cycle_budget():
    tape = tape_from_kinds(["G0_"])
    feed = [("H__", U)] * 3 + [("b__", U)]
    with pytest.raises(CycleLimitExceededError) as err:
        run_copy(tape, ONE, feed=feed, max_cycles=3)
    assert (err.value.cycles, err.value.head) == (3, 0)
    run = run_copy(tape, ONE, feed=feed, max_cycles=4)
    assert run.output == negative_copy(tape) and run.cycles == 4


def test_forced_feed_rejects_unknown_kinds():
    tape = tape_from_kinds(["G0_"])
    with pytest.raises(UnknownTapeKindError):
        run_copy(tape, ONE, feed=[("Q__", U)])
    with pytest.raises(UnknownTapeKindError):
        run_copy(tape_from_kinds(["Q__"]), ONE, feed=[("b__", U)])


@pytest.mark.parametrize("case", [4, -1, "1"])
def test_forced_feed_rejects_values_that_are_not_cases(case):
    with pytest.raises(ValueError):
        run_copy(tape_from_kinds(["G0_"]), ONE, feed=[("b__", case)])


def test_forced_feed_takes_cases_as_members_or_ints():
    tape = tape_from_kinds(["G0_", "H__"])
    run = run_copy(tape, ONE, feed=[("b__", U), ("H__", 3), ("M1x", 0)])
    assert run.output == negative_copy(tape)
    assert run.stickout_log.tolist() == [0, 2, 0]


def test_forced_feed_reads_no_further_than_the_copy():
    read = []

    def endless():
        while True:
            for draw in (("b__", U), ("M1x", U)):
                read.append(draw)
                yield draw

    run = run_copy(tape_from_kinds(["G0_", "H__"]), ONE, feed=endless())
    assert run.cycles == len(read) == 2


def test_seeded_one_side_copy_is_faithful():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(1, 20))
        kinds = [KINDS[i] for i in rng.integers(0, 6, n)]
        flips = [bool(b) for b in rng.integers(0, 2, n)]
        tape = tape_from_kinds(kinds, flips)
        run = run_copy(tape, ONE, seed=int(rng.integers(0, 2**31)))
        assert run.output == negative_copy(tape)
        assert run.mutations == ()


def test_copy_twice_round_trips_with_flips():
    tape = tape_from_kinds(
        ["L__", "R__", "G0_", "b__", "H__", "M1x", "L__"],
        [True, False, True, False, True, False, True],
    )
    assert copy_twice(tape, seed=5) == tape
    assert copy_twice((), seed=5) == ()


@settings(max_examples=200, deadline=None)
@given(
    tape=st.lists(
        st.builds(TapeEntry, st.sampled_from(KINDS), st.booleans()), max_size=60
    ).map(tuple),
    seed=st.integers(0, 2**63 - 1),
)
def test_copy_twice_is_identity_for_any_tape_and_seed(tape, seed):
    assert copy_twice(tape, seed=seed) == tape


def test_tape_fed_backwards_still_copies():
    tape = tape_from_kinds(["G0_", "H__", "L__", "b__"], [False, True, False, False])
    wrong_way = flip_end_over_end(tape)
    run = run_copy(wrong_way, ONE, seed=3)
    assert run.output == negative_copy(wrong_way)
    assert run.mutations == ()


def test_analytic_cycle_stats_frozen_values():
    tape = tape_from_kinds(["G0_", "H__", "L__", "R__", "M1x", "b__"])
    one = analytic_cycle_stats(tape, ONE)["per_slot"]
    assert one == [
        Fraction(1, 24),
        Fraction(1, 24),
        Fraction(1, 12),
        Fraction(1, 12),
        Fraction(1, 24),
        Fraction(1, 24),
    ]
    both = analytic_cycle_stats(tape, BOTH)["per_slot"]
    assert both == [Fraction(1, 12)] * 6
    # flipped slots accept at the same rates
    flipped = tuple(TapeEntry(e.kind, True) for e in tape)
    assert analytic_cycle_stats(flipped, ONE)["per_slot"] == one


@pytest.mark.parametrize("profile", [ONE, BOTH])
def test_analytic_odds_count_every_draw_of_any_registry(profile):
    tape = tuple(TapeEntry(k, f) for k in KINDS for f in (False, True))
    expected = [
        Fraction(
            sum(
                stickout(cand, case, slot, profile) == 0
                for cand in KINDS
                for case in PresentationCase
            ),
            4 * len(KINDS),
        )
        for slot in tape
    ]
    assert analytic_cycle_stats(tape, profile)["per_slot"] == expected


def _mutations_confined(tape, profile, seed) -> bool:
    """Checks one copy: its mutations are exactly the slots whose kind
    differs from the negative copy, each the reversed partner of the exact
    kind, roles (a,f) or (b,e); returns whether it mutated."""
    run = run_copy(tape, profile, seed=seed)
    exact = negative_copy(tape)
    differs = [i for i, (got, want) in enumerate(zip(run.output, exact)) if got.kind != want.kind]
    assert list(run.mutations) == differs
    if profile is ONE:
        assert run.mutations == ()
        assert copy_twice(tape, seed=seed) == tape
    seeded = seeded_copy(tape, profile, seed)
    assert seeded == (run.output, run.cycles, run.mutations)
    for i in run.mutations:
        assert REG.pattern(run.output[i].kind) == reverse(REG.pattern(exact[i].kind))
        roles = {REG.role(run.output[i].kind), REG.role(exact[i].kind)}
        assert roles in ({"a", "f"}, {"b", "e"})
    return bool(run.mutations)


@settings(max_examples=40, deadline=None)
@given(
    tape=st.lists(_entries, min_size=1, max_size=12).map(tuple),
    profile=st.sampled_from([ONE, BOTH]),
    seed=st.integers(0, 2**32 - 1),
)
@example(tape=tape_from_kinds(KINDS), profile=BOTH, seed=5)
def _mutations_confined_for_any_tape(tape, profile, seed):
    _mutations_confined(tape, profile, seed)


def test_mutations_confined_to_reversed_partners():
    rng = np.random.default_rng(23)
    mutated_runs = 0
    for _ in range(40):
        n = int(rng.integers(4, 24))
        tape = tape_from_kinds(
            [KINDS[i] for i in rng.integers(0, 6, n)],
            [bool(b) for b in rng.integers(0, 2, n)],
        )
        mutated_runs += _mutations_confined(tape, BOTH, int(rng.integers(0, 2**31)))
    assert mutated_runs > 5  # both-sides sparing does mutate in practice
    _mutations_confined_for_any_tape()


def test_cycle_counts_within_three_sigma():
    tape = tape_from_kinds([KINDS[i % 6] for i in range(24)])
    stats = analytic_cycle_stats(tape, ONE)
    runs = 60
    total = sum(
        run_copy(tape, ONE, seed=1000 + i).cycles for i in range(runs)
    )
    mean = float(stats["expected_cycles"]) * runs
    sigma = (float(stats["variance"]) * runs) ** 0.5
    assert abs(total - mean) <= 3 * sigma


def _step_copy(tape, profile, feed, max_cycles):
    """The copy as an explicit CopierState/step() loop over `feed`."""
    state = CopierState(tape=tape, profile=profile, registry=REG)
    for kind, case in feed:
        if state.done or len(state.cycle_log) == max_cycles:
            break
        step(state, kind, case)
    accepted = [o for o in state.cycle_log if o.accepted]
    return (
        state,
        tuple(i for i, o in enumerate(accepted) if o.mutation),
        [o.stickout for o in state.cycle_log],
    )


def _assert_matches_step_loop(run, state, mutations, sticks):
    assert run.output == tuple(state.output)
    assert run.cycles == len(state.cycle_log)
    assert run.mutations == mutations
    assert run.stickout_log.tolist() == sticks


# an int seed, and a `SeedSequence` child as `copy_twice` passes
@pytest.mark.parametrize(
    "seed", [77, np.random.SeedSequence(77).spawn(2)[1]], ids=["int", "seed_sequence_child"]
)
def test_kernel_path_matches_step_semantics(seed):
    tape = tape_from_kinds(["G0_", "L__", "H__", "b__"], [False, True, False, True])
    kernel_run = run_copy(tape, BOTH, seed=seed)
    assert kernel_run.cycles < FEED_CHUNK  # single chunk, replayable below
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 6, size=FEED_CHUNK, dtype=np.uint8)
    cases = rng.integers(0, 4, size=FEED_CHUNK, dtype=np.uint8)
    feed = [(KINDS[k], PresentationCase(int(c))) for k, c in zip(kinds, cases)]
    state, mutations, sticks = _step_copy(tape, BOTH, feed, FEED_CHUNK)
    assert state.done
    _assert_matches_step_loop(kernel_run, state, mutations, sticks)


# flush-able presentations weighted up so that most tapes finish
_draws = st.tuples(st.sampled_from(KINDS), st.sampled_from([U, U, F, F, S, O]))


@settings(max_examples=150, deadline=None)
@given(
    tape=st.lists(_entries, max_size=4).map(tuple),
    profile=st.sampled_from([ONE, BOTH]),
    feed=st.lists(_draws, min_size=20, max_size=200),
    max_cycles=st.none() | st.integers(0, 200),
)
def test_forced_feed_matches_step_loop(tape, profile, feed, max_cycles):
    state, mutations, sticks = _step_copy(tape, profile, feed, max_cycles)
    if state.done:
        run = run_copy(tape, profile, feed=feed, max_cycles=max_cycles)
        _assert_matches_step_loop(run, state, mutations, sticks)
    else:
        with pytest.raises(CycleLimitExceededError) as err:
            run_copy(tape, profile, feed=feed, max_cycles=max_cycles)
        assert (err.value.cycles, err.value.head) == (len(sticks), state.head)


def test_cycle_limit():
    # an impossible feed never completes
    tape = tape_from_kinds(["G0_"])
    with pytest.raises(CycleLimitExceededError):
        run_copy(tape, ONE, feed=[("H__", U)] * 50, max_cycles=10)
    with pytest.raises(CycleLimitExceededError):
        run_copy(tape, ONE, feed=iter([]))


def test_negative_cycle_budget_is_refused():
    tape = tape_from_kinds(["G0_"])
    for feed in (None, [("b__", U)]):
        with pytest.raises(ValueError, match="max_cycles must not be negative, got -5"):
            run_copy(tape, ONE, feed=feed, max_cycles=-5)
    with pytest.raises(ValueError, match="max_cycles must not be negative, got -5"):
        seeded_copy(tape, ONE, max_cycles=-5)
    with pytest.raises(ValueError):
        run_copy((), ONE, max_cycles=-1)
    # a zero budget stays legal: it finishes an empty tape and nothing else
    assert run_copy((), ONE, max_cycles=0).cycles == 0
    with pytest.raises(CycleLimitExceededError):
        run_copy(tape, ONE, max_cycles=0)


def test_empty_tape():
    run = run_copy((), ONE, seed=1)
    assert run.output == () and run.cycles == 0


@pytest.mark.parametrize("flip", [2, None, "yes", 1, np.True_], ids=repr)
def test_a_flip_that_is_not_a_bool_is_refused(flip):
    """A flip of 2 once made slot code 2 * 0 + 2, `H__`'s, so `G0_` copied
    as `M1x`; now no entry can carry one, so no copier path sees it."""
    refused = pytest.raises(ValueError, match=f"flip must be True or False, got {flip!r}")
    with refused:
        run_copy((TapeEntry("G0_", flip),))
    with refused:
        step(CopierState(tape=(TapeEntry("H__", flip),), profile=ONE, registry=REG), "H__", U)
    with refused:
        negative_copy((TapeEntry("H__", flip),))


def _copy_outcome(copy, tape, profile, seed, max_cycles):
    """A copy's output, cycles and mutations, or where it ran out of cycles."""
    try:
        run = copy(tape, profile, seed=seed, max_cycles=max_cycles)
    except CycleLimitExceededError as exc:
        return exc.cycles, exc.head, str(exc)
    return run.output, run.cycles, run.mutations


@settings(max_examples=100, deadline=None)
@given(
    tape=st.lists(_entries, max_size=40).map(tuple),
    profile=st.sampled_from([ONE, BOTH]),
    seed=st.integers(0, 2**32 - 1) | st.integers(0, 2**256),
    max_cycles=st.none() | st.integers(0, 1000),
)
# several chunks, and a budget that ends in the second one
@example(tape=tape_from_kinds(KINDS * 40), profile=ONE, seed=7, max_cycles=None)
@example(tape=tape_from_kinds(KINDS * 40), profile=BOTH, seed=2**70, max_cycles=6000)
@example(tape=(), profile=ONE, seed=0, max_cycles=0)
def test_seeded_copy_matches_run_copy(tape, profile, seed, max_cycles):
    numpy_run = _copy_outcome(run_copy, tape, profile, seed, max_cycles)
    assert _copy_outcome(seeded_copy, tape, profile, seed, max_cycles) == numpy_run


def test_seeded_copy_refuses_what_run_copy_refuses():
    with pytest.raises(UnknownTapeKindError, match="'Q__'"):
        seeded_copy(tape_from_kinds(["G0_", "Q__"]), ONE, seed=1)
    with pytest.raises(ValueError, match="seed must not be negative, got -1"):
        seeded_copy(tape_from_kinds(["G0_"]), ONE, seed=-1)

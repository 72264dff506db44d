"""Parity of the numpy kernels with plain-Python loop oracles.

Every kernel takes pre-drawn inputs, so each must agree with its loop
version element for element, not just statistically. The copier kernel
only walks, so the copy gathered from its walk (kinds, flips, mutation
flags, stick-out log) is checked at `run_copy` and `seeded_copy` level
against the `step()` loop.
"""

import functools
import itertools
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfold import kernels
from chainfold.copier import (
    _PIECE_PER_SLOT,
    FEED_CHUNK,
    _KIND_INDEX,
    CopierState,
    PresentationCase,
    Sparing,
    SubunitProfile,
    _glue_classes,
    _table,
    analytic_cycle_stats,
    copy_twice,
    run_copy,
    seeded_copy,
    step,
    stickout,
)
from chainfold.encoding import (
    MarkingPattern,
    TapeEntry,
    TypeRegistry,
    complement,
    default_registry,
    negative_copy,
    reverse,
)
from chainfold.errors import CycleLimitExceededError, TapeExhaustedError
from chainfold.pcg64 import _PIECE
from conftest import CountedDraws


def _count_matches_py(draws, target):
    hits = 0
    m, k = draws.shape
    for i in range(m):
        ok = True
        for j in range(k):
            if draws[i, j] != target[j]:
                ok = False
                break
        if ok:
            hits += 1
    return hits


def _flat(kinds, cases):
    return kinds * len(PresentationCase) + cases


def _walk_py(stick_tab, slot_codes, head, kinds, cases, cycles=0):
    """The copier walk read straight off the stick table: (head, used,
    glued), where `glued` holds the run-wide cycle of each glue and the
    run had taken `cycles` draws before these."""
    n = len(slot_codes)
    flat = _flat(kinds, cases)
    glued = []
    pos = 0
    while pos < len(flat) and head < n:
        if stick_tab[slot_codes[head], flat[pos]] == 0:
            glued.append(cycles + pos)
            head += 1
        pos += 1
    return head, pos, glued


def _random_draws(seed, m=2_000, k=5, high=6):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=(m, k), dtype=np.uint8)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_count_matches_agrees_with_the_loop_on_seeded_draws(seed):
    draws = _random_draws(seed, high=3)
    target = draws[1234].copy()
    plain = _count_matches_py(draws, target)
    assert kernels.count_matches(draws, target) == plain
    assert plain >= 1


def test_count_matches_exact_on_small_input():
    draws = np.array(
        [[1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [2, 1, 3, 4, 5], [1, 2, 3, 4, 6]], dtype=np.uint8
    )
    target = np.array([1, 2, 3, 4, 5], dtype=np.uint8)
    assert _count_matches_py(draws, target) == 2
    assert kernels.count_matches(draws, target) == 2


def test_count_matches_separator_target():
    # five target kinds plus the trailing separator, over the 7-entry alphabet
    draws = _random_draws(4, m=20_000, k=6, high=7)
    target = np.array([3, 1, 5, 5, 0, 6], dtype=np.uint8)
    draws[[10, 500, 19_999]] = target
    assert kernels.count_matches(draws, target) == _count_matches_py(draws, target) >= 3


def test_count_matches_zero_hits_and_zero_rows():
    draws = _random_draws(2, m=500, k=5, high=6)
    absent = np.array([9, 9, 9, 9, 9], dtype=np.uint8)
    assert kernels.count_matches(draws, absent) == 0
    empty = np.zeros((0, 5), dtype=np.uint8)
    assert kernels.count_matches(empty, absent) == 0


@pytest.mark.parametrize("k", [5, 6])
def test_count_matches_full_alphabet(k):
    # the largest alphabet has 47 entries, so draws take values 0..46
    draws = _random_draws(8, m=5_000, k=k, high=47)
    assert draws.max() == 46
    draws[[3, 4_999]] = draws[0]
    for target in (draws[0], np.full(k, 46, dtype=np.uint8)):
        assert kernels.count_matches(draws, target) == _count_matches_py(draws, target)
    assert kernels.count_matches(draws, draws[0]) >= 3


@pytest.mark.parametrize("m", [1, 2, 4 * _PIECE // 5, -(-4 * _PIECE // 5)])
def test_count_matches_hits_on_the_first_and_last_row(m):
    # row counts from one row to the most that one evolve call gets
    draws = _random_draws(m, m=m, k=5, high=3)
    target = np.array([2, 0, 1, 2, 0], dtype=np.uint8)
    draws[[0, m - 1]] = target
    assert kernels.count_matches(draws, target) == _count_matches_py(draws, target)
    draws[m - 1, 4] = 1  # the last row now misses in its last column only
    assert kernels.count_matches(draws, target) == _count_matches_py(draws, target)


def _planted(seed, m, k, high):
    """Draws over `high` values with a target planted on every 7th row."""
    draws = _random_draws(seed, m=m, k=k, high=high)
    target = draws[0].copy()
    draws[::7] = target
    return draws, target


@pytest.mark.parametrize("k", range(4, 9))
def test_count_matches_every_target_length(k):
    # k = 4..8 compares one 4-byte word, then 0 to 4 tail columns
    draws, target = _planted(k, m=3_000, k=k, high=2)
    assert kernels.count_matches(draws, target) == _count_matches_py(draws, target)


@pytest.mark.parametrize("k", range(4, 9))
def test_count_matches_rejects_every_near_miss(k):
    # one row per column that differs from the target there and nowhere else
    target = np.arange(1, k + 1, dtype=np.uint8)
    misses = np.tile(target, (k, 1))
    misses[np.arange(k), np.arange(k)] += 1
    draws = np.concatenate([misses, target[None], misses, target[None]])
    assert _count_matches_py(draws, target) == 2
    assert kernels.count_matches(draws, target) == 2


def test_count_matches_all_hits():
    target = np.array([3, 1, 5, 5, 0], dtype=np.uint8)
    draws = np.tile(target, (2**16 + 3, 1))
    assert kernels.count_matches(draws, target) == len(draws)


def _wide_slice(draws):
    """`draws` as a column slice of a wider array, starting off a word edge."""
    wide = np.zeros((len(draws), draws.shape[1] + 4), dtype=np.uint8)
    wide[:, 1 : 1 + draws.shape[1]] = draws
    return wide[:, 1 : 1 + draws.shape[1]]


@pytest.mark.parametrize(
    "layout",
    [lambda d: d[::3], _wide_slice],
    ids=["row_strided", "column_slice"],
)
@pytest.mark.parametrize("k", [5, 6])
def test_count_matches_any_memory_layout(layout, k):
    draws, _ = _planted(k + 20, m=4_000, k=k, high=3)
    view = layout(draws)
    target = view[0]  # the planted row, read through the view's own strides
    want = _count_matches_py(view, target)
    assert kernels.count_matches(view, target) == want >= len(view) // 7


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(0, 400),
    k=st.sampled_from([5, 6]),
    high=st.integers(1, 47),
    planted=st.lists(st.integers(0, 399), max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_matches_matches_loop_oracle(m, k, high, planted, seed):
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, high, size=(m, k), dtype=np.uint8)
    target = rng.integers(0, high, size=k, dtype=np.uint8)
    draws[[r for r in planted if r < m]] = target
    assert kernels.count_matches(draws, target) == _count_matches_py(draws, target)


def test_count_matches_copies_nothing_on_a_contiguous_chunk():
    # one evolve piece of 4 * _PIECE draws holds 26,214 whole rows of 5; a
    # copy or astype of them on the hot path would cost their size again
    draws = _random_draws(5, m=4 * _PIECE // 5, k=5, high=6)
    target = np.array([3, 1, 5, 5, 0], dtype=np.uint8)
    kernels.count_matches(draws[:10], target)  # warm up outside the trace
    tracemalloc.start()
    try:
        kernels.count_matches(draws, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < draws.nbytes


# the registry the copier reads
REGISTRIES = [default_registry()]


def _kinds_id(reg):
    return f"{len(reg.kinds)}kinds"


def _chunk_inputs(seed, n_slots=40, m=1200, n_kinds=len(default_registry().kinds)):
    rng = np.random.default_rng(seed)
    slot_codes = rng.integers(0, 2 * n_kinds, size=n_slots).tolist()
    kinds = rng.integers(0, n_kinds, size=m, dtype=np.uint8)
    cases = rng.integers(0, 4, size=m, dtype=np.uint8)
    return slot_codes, kinds, cases


def _kernel_walk(classes, key, slot_codes, head, kinds, cases, cycles=0, log=None):
    """The kernel's (head, used, glued) under the class map `classes` and
    `key`, `glued` read back from the array it appends to after a glue
    recorded before this chunk; with a `log`, the chunk is `CountedDraws`."""
    glued = array("q", [-1])
    flat = _flat(kinds, cases).tobytes()
    if log is not None:
        flat = CountedDraws(flat, log)
    keys = bytes(slot_codes).translate(key)
    new_head, used = kernels.copier_chunk(classes, keys, head, flat, cycles, glued)
    assert glued[0] == -1  # the earlier glue stays
    return new_head, used, glued[1:].tolist()


def _grids(sparing):
    """`_table(sparing)`, and its stick-out and mutation flags as arrays
    indexed (slot code, flat draw), as the loop oracles read them: `stick`
    a read-only view, and `mut` read at glue * 12 + slot code for the
    draws that glue, 0 for the rest."""
    table = _table(sparing)
    shape = (len(table.entries), table.width)
    stick = np.frombuffer(table.stick, dtype=np.uint8).reshape(shape)
    glue = np.frombuffer(table.glue, dtype=np.uint8)[: table.width]
    at = glue[None, :] + np.arange(shape[0])[:, None]
    mut = np.frombuffer(table.mut, dtype=np.uint8)[at] * (stick == 0)
    return table, stick, mut


def _both_walks(sparing, slot_codes, head, kinds, cases, cycles=0):
    """The loop oracle's and the kernel's (head, used, glued)."""
    table, stick, _ = _grids(sparing)
    got = _kernel_walk(table.classes, table.key, slot_codes, head, kinds, cases, cycles)
    return _walk_py(stick, slot_codes, head, kinds, cases, cycles), got


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_copier_chunk_agrees_with_the_loop_on_seeded_inputs(seed):
    slot_codes, kinds, cases = _chunk_inputs(seed)
    want, got = _both_walks(Sparing.BOTH_SIDES, slot_codes, 0, kinds, cases)
    assert got == want
    # slots glued, some of them as mutations wherever the registry has any
    head, _, glued = got
    _, _, mut = _grids(Sparing.BOTH_SIDES)
    flat = _flat(kinds, cases)
    assert head > 0
    assert any(mut[slot_codes[i], flat[p]] for i, p in enumerate(glued)) == mut.any()


def test_copier_chunk_resumes_mid_tape():
    slot_codes, kinds, cases = _chunk_inputs(5, n_slots=8, m=600)
    n = len(slot_codes)
    whole, _ = _both_walks(Sparing.BOTH_SIDES, slot_codes, 0, kinds, cases)
    # split the draw stream in two; the head carries across the boundary
    cut = 40
    table = _table(Sparing.BOTH_SIDES)
    keys, flat = bytes(slot_codes).translate(table.key), _flat(kinds, cases).tobytes()
    glued = array("q")  # one array across both calls, as `run_copy` keeps it
    head, used = kernels.copier_chunk(table.classes, keys, 0, flat[:cut], 0, glued)
    assert 0 < head < n and used == cut
    head, rest = kernels.copier_chunk(table.classes, keys, head, flat[cut:], cut, glued)
    assert (head, cut + rest, glued.tolist()) == whole


ZERO_LED_8 = [  # 35 patterns; each complement leads with a 1, so no two collide
    "".join(b) for b in itertools.product("01", repeat=8) if b.count("1") == 4 and b[0] == "0"
]


def _random_registry(seed, pairs):
    """`pairs` zero-led patterns and their complements, in a shuffled kind order."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(ZERO_LED_8, size=pairs, replace=False).tolist()
    bits = picks + ["".join("10"[int(c)] for c in p) for p in picks]
    rng.shuffle(bits)
    return TypeRegistry({b: (b, MarkingPattern.from_string(b)) for b in bits})


# `step`, `stickout` and the kernel walk stay generic over a registry: the
# default and random registries of 2 to 64 kinds; with 64 kinds the flat
# draws fill every byte value, up to 0xFF
ANY_REGISTRIES = [default_registry()] + [
    _random_registry(seed, pairs) for seed, pairs in enumerate([1, 2, 3, 6, 12, 20, 31, 32, 32])
]


@functools.cache
def _rule_grid(sparing, reg):
    """The stick-out of every flat draw at every slot code under `reg`, read
    from `stickout`, and the class map `copier_chunk` takes, built as
    `_table` builds it."""
    profile = SubunitProfile(sparing)
    slots = [TapeEntry(k, f) for k in reg.kinds for f in (False, True)]
    stick = np.array(
        [
            [stickout(k, case, slot, profile, reg) for k in reg.kinds for case in PresentationCase]
            for slot in slots
        ],
        dtype=np.uint8,
    )
    stick.flags.writeable = False
    return stick, *_glue_classes(stick.tobytes(), stick.shape[1])


@pytest.mark.parametrize("reg", ANY_REGISTRIES, ids=_kinds_id)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_copier_chunk_walks_the_rule_grid_of_any_registry(seed, reg):
    stick, classes, key = _rule_grid(Sparing.BOTH_SIDES, reg)
    slot_codes, kinds, cases = _chunk_inputs(seed, n_kinds=len(reg.kinds))
    got = _kernel_walk(classes, key, slot_codes, 0, kinds, cases)
    assert got == _walk_py(stick, slot_codes, 0, kinds, cases)
    assert got[0] > 0
    if len(reg.kinds) == 64:  # the draws reach 0xFF, which glues nowhere
        assert _flat(kinds, cases).max() == 0xFF and classes[0xFF] == 255


def _paper_rule(kind, case, slot, sparing, reg):
    """(stick-out, mutation) as the module docstring states the rule: the
    presented pattern against the complement of the slot's."""
    if case is PresentationCase.ON_SIDE:
        return 1, False
    if case is PresentationCase.OPPOSITE:
        return 2, False
    turned = (case is PresentationCase.FLIPPED) != slot.flipped
    pattern = reg.pattern(kind)
    if (reverse(pattern) if turned else pattern) != complement(reg.pattern(slot.kind)):
        return 2, False
    if not turned or pattern.palindromic:
        return 0, False
    return (0, True) if sparing is Sparing.BOTH_SIDES else (1, False)


@pytest.mark.parametrize("sparing", list(Sparing), ids=lambda s: s.value)
@pytest.mark.parametrize("reg", ANY_REGISTRIES, ids=_kinds_id)
def test_step_follows_the_paper_rule_on_any_registry(reg, sparing):
    """Every draw at every slot, fed to `step` on a one-slot tape: the
    stick-out, the mutation flag and the glued entry the rule gives."""
    profile = SubunitProfile(sparing)
    mutations = 0
    for slot in (TapeEntry(k, f) for k in reg.kinds for f in (False, True)):
        glues = 0
        for kind, case in itertools.product(reg.kinds, PresentationCase):
            state = CopierState(tape=(slot,), profile=profile, registry=reg)
            outcome = step(state, kind, case)
            s, mutation = _paper_rule(kind, case, slot, sparing, reg)
            assert (outcome.stickout, outcome.mutation) == (s, mutation)
            assert stickout(kind, case, slot, profile, reg) == s
            assert outcome.accepted == state.done == (s == 0)
            assert state.output == ([TapeEntry(kind, slot.flipped != mutation)] if s == 0 else [])
            assert state.cycle_log == [outcome]
            glues += s == 0
            mutations += mutation
        assert glues >= 1  # the partner in the slot's frame always glues
    assert sparing is Sparing.BOTH_SIDES or mutations == 0


@pytest.mark.parametrize("sparing", list(Sparing), ids=lambda s: s.value)
@pytest.mark.parametrize("reg", ANY_REGISTRIES, ids=_kinds_id)
def test_step_loop_copies_a_tape_of_any_registry(reg, sparing):
    """A tape of every entry, each slot fed two rejects and then its
    partner in the slot's frame, copies to the negative under `reg`."""
    rng = np.random.default_rng(len(reg.kinds))
    tape = [TapeEntry(k, f) for k in reg.kinds for f in (False, True)]
    rng.shuffle(tape)
    state = CopierState(tape=tuple(tape), profile=SubunitProfile(sparing), registry=reg)
    for slot in tape:
        partner = reg.partner(slot.kind)
        for case in (PresentationCase.ON_SIDE, PresentationCase.OPPOSITE):
            assert not step(state, partner, case).accepted
        case = PresentationCase.FLIPPED if slot.flipped else PresentationCase.UPRIGHT
        outcome = step(state, partner, case)
        assert outcome.accepted and not outcome.mutation
    assert state.done and len(state.cycle_log) == 3 * len(tape)
    assert state.output == [TapeEntry(reg.partner(e.kind), e.flipped) for e in tape]
    with pytest.raises(TapeExhaustedError):
        step(state, reg.kinds[0], PresentationCase.UPRIGHT)


def _seeded_chunks(seed):
    """The draws `run_copy` takes from `seed`, (kinds, cases) per chunk, without end."""
    rng = np.random.default_rng(seed)
    while True:
        yield (
            rng.integers(0, 6, size=FEED_CHUNK, dtype=np.uint8),
            rng.integers(0, 4, size=FEED_CHUNK, dtype=np.uint8),
        )


def _seeded_stream(seed, chunks):
    """The kinds and the cases of the first `chunks` chunks from `seed`."""
    parts = list(itertools.islice(_seeded_chunks(seed), chunks))
    return np.concatenate([k for k, _ in parts]), np.concatenate([c for _, c in parts])


# (sparing, source, slots): `run_copy` seeded or fed, or `seeded_copy`, on a
# 600-slot tape over several chunks, and on tapes of 0 to 2 slots
STEP_LOOP_CASES = [
    pytest.param(
        sparing, source, n, id=f"{sparing.value}-{source}" + (f"-{n}slots" if n < 600 else "")
    )
    for n in (600, 0, 1, 2)
    for sparing in Sparing
    for source in ("seeded", "forced", "pure")
]


@pytest.mark.parametrize("sparing,source,n", STEP_LOOP_CASES)
def test_run_copy_matches_the_step_loop(sparing, source, n):
    """`run_copy`, and `seeded_copy`, which shares its gather but not its
    bit source, against the step() loop."""
    reg = default_registry()
    rng = np.random.default_rng(21)
    slot_codes = rng.integers(0, 12, size=600).tolist()[:n]
    tape = tuple(_table(sparing).entries[c] for c in slot_codes)
    kinds, cases = _seeded_stream(4, chunks=6)
    feed = [(reg.kinds[k], PresentationCase(int(c))) for k, c in zip(kinds, cases)]
    profile = SubunitProfile(sparing)
    if source == "forced":
        run = run_copy(tape, profile, feed=feed)
    elif source == "seeded":
        run = run_copy(tape, profile, seed=4)
    else:
        run = seeded_copy(tape, profile, seed=4)
    if n == 600:
        assert run.cycles > FEED_CHUNK  # more than one seeded chunk
        assert run.mutations or sparing is Sparing.ONE_SIDE
    state = CopierState(tape=tape, profile=profile, registry=reg)
    for kind, case in feed[: run.cycles]:
        step(state, kind, case)
    accepted = [o for o in state.cycle_log if o.accepted]
    # the replayed stream finishes the copy
    assert state.done and run.output == tuple(state.output)
    assert run.mutations == tuple(i for i, o in enumerate(accepted) if o.mutation)
    if source != "pure":
        assert run.stickout_log.dtype == np.uint8
        assert run.stickout_log.tolist() == [o.stickout for o in state.cycle_log]


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(0, 3), st.integers(4, 300)),
    sparing=st.sampled_from(list(Sparing)),
    seed=st.integers(0, 2**32 - 1),
    limit=st.sampled_from(["first_piece", "piece_end", "chunk_rest", "past_chunk", None]),
    at=st.floats(0, 1, exclude_max=True),
)
# these seeds' walks outrun the first piece: 1 slot glued at cycle 60 (one
# side) or 49 (both sides), 3 slots at 185, and 200 slots at 4157, when the
# second chunk's first piece is 48 draws for the one open slot
@example(n=1, sparing=Sparing.ONE_SIDE, seed=2, limit="first_piece", at=0.5)
@example(n=1, sparing=Sparing.ONE_SIDE, seed=2, limit="piece_end", at=0.0)
@example(n=1, sparing=Sparing.ONE_SIDE, seed=2, limit="chunk_rest", at=0.0)
@example(n=1, sparing=Sparing.BOTH_SIDES, seed=2, limit="chunk_rest", at=0.5)
@example(n=3, sparing=Sparing.ONE_SIDE, seed=2, limit=None, at=0.0)
@example(n=200, sparing=Sparing.ONE_SIDE, seed=6, limit="past_chunk", at=0.0)
@example(n=200, sparing=Sparing.ONE_SIDE, seed=6, limit=None, at=0.0)
def test_a_seeded_copy_under_any_budget_matches_the_step_loop(n, sparing, seed, limit, at):
    """A seeded chunk is drawn whole but combined piece by piece: its first
    `_PIECE_PER_SLOT` draws per open slot, then the rest. Under a budget
    that ends inside the first piece, at its end, in the rest of the chunk
    or past it, both entry points match the step() loop over numpy's
    stream, or stop where it stops."""
    tape = tuple(_table(sparing).entries[c] for c in np.random.default_rng(seed).integers(0, 12, n))
    piece = min(FEED_CHUNK, _PIECE_PER_SLOT * n)
    max_cycles = {
        "first_piece": int(at * piece),
        "piece_end": piece,
        "chunk_rest": piece + 1 + int(at * (FEED_CHUNK - piece)),
        "past_chunk": FEED_CHUNK + 1 + int(at * 2 * FEED_CHUNK),
        None: None,
    }[limit]
    reg, profile = default_registry(), SubunitProfile(sparing)
    state = CopierState(tape=tape, profile=profile, registry=reg)
    budget = max(10_000, 2_000 * n) if max_cycles is None else max_cycles
    draws = (zip(k.tolist(), c.tolist()) for k, c in _seeded_chunks(seed))
    for k, c in itertools.islice(itertools.chain.from_iterable(draws), budget):
        if state.done:
            break
        step(state, reg.kinds[k], PresentationCase(c))
    args = tape, profile, seed, max_cycles
    if not state.done:
        for copy in (run_copy, seeded_copy):
            with pytest.raises(CycleLimitExceededError) as err:
                copy(*args)
            assert (err.value.cycles, err.value.head) == (len(state.cycle_log), state.head)
            assert str(err.value).endswith(f"(head {state.head}/{n})")
        return
    accepted = [o for o in state.cycle_log if o.accepted]
    mutations = tuple(i for i, o in enumerate(accepted) if o.mutation)
    want = tuple(state.output), len(state.cycle_log), mutations
    run = run_copy(*args)
    assert (run.output, run.cycles, run.mutations) == want
    assert run.stickout_log.tolist() == [o.stickout for o in state.cycle_log]
    assert seeded_copy(*args) == want


@pytest.mark.parametrize("forced", [False, True], ids=["seeded", "forced"])
@pytest.mark.parametrize("sparing", list(Sparing), ids=lambda s: s.value)
def test_kernel_calls_account_for_every_cycle_of_a_copy(monkeypatch, sparing, forced):
    """What a tracer reads off the kernel: the second items of its returns
    sum to the copy's cycles, and each glue cycle it records is a draw
    with stick-out 0."""
    reg = default_registry()
    slot_codes = np.random.default_rng(8).integers(0, 12, size=600).tolist()
    tape = tuple(_table(sparing).entries[c] for c in slot_codes)
    calls = []
    walk = kernels.copier_chunk

    def recorded(classes, keys, head, flat, cycles, glued):
        calls.append((cycles, walk(classes, keys, head, flat, cycles, glued), glued))
        return calls[-1][1]

    monkeypatch.setattr(kernels, "copier_chunk", recorded)
    if forced:
        kinds, cases = _seeded_stream(4, chunks=6)
        feed = [(reg.kinds[k], PresentationCase(int(c))) for k, c in zip(kinds, cases)]
        run = run_copy(tape, SubunitProfile(sparing), feed=feed)
    else:
        run = run_copy(tape, SubunitProfile(sparing), seed=4)
    used = [r[1] for _, r, _ in calls]
    assert len(calls) > 1 and sum(used) == run.cycles
    # each call starts its cycles where the calls before it ended
    assert [c for c, _, _ in calls] == list(itertools.accumulate(used[:-1], initial=0))
    glued = calls[-1][2]  # one array, shared by every call
    assert all(g is glued for _, _, g in calls)
    ends = np.array(glued.tolist()[1:])
    assert len(ends) == len(tape) and ends[-1] == run.cycles - 1
    assert np.all(np.diff(ends) > 0) and not run.stickout_log[ends].any()


def test_long_copy_peak_memory():
    """A 4096-slot copy's scratch stays small next to its draws: the flat
    uint16 stick-out index and the bytes of slot codes and glue cycles
    keep the tracemalloc peak well under the 663 KiB of a 2-D gather."""
    rng = np.random.default_rng(17)
    reg = default_registry()
    entries = _table(Sparing.ONE_SIDE).entries
    tape = tuple(entries[c] for c in rng.integers(0, 12, size=4096))
    run_copy(tape[:8], seed=1)  # rule tables and lazy numpy state, outside the peak
    tracemalloc.start()
    try:
        run = run_copy(tape, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.cycles > 16 * FEED_CHUNK  # about 80k draws
    assert peak < 560 * 1024


def test_tables_built_once_and_read_only(monkeypatch):
    _table.cache_clear()
    reg = default_registry()
    n_codes, width = 2 * len(reg.kinds), 4 * len(reg.kinds)
    frombuffer = np.frombuffer
    for sparing in Sparing:
        table, stick, mut = _grids(sparing)
        assert _table(sparing) is table
        # `stick` holds one byte per (slot code, flat draw), one row of
        # `width` per slot code; the rest are translate tables
        assert (len(table.entries), table.width) == (n_codes, width)
        tables = (table.stick, table.glue, table.out, table.mut, table.classes, table.key)
        assert all(type(tab) is bytes for tab in tables)
        assert len(table.stick) == n_codes * width
        assert all(len(tab) == 256 for tab in tables[1:])
        # a glue, kind * 2 + case, is one of n_codes, so glue * n_codes +
        # slot code stays below n_codes ** 2 = 144
        assert max(table.glue) + n_codes <= n_codes**2
        assert max(table.out) < n_codes  # a glue leaves an entry of the table
        # a mutation is always a glue, and only both-sides sparing has any
        assert not np.any(mut.astype(bool) & (stick != 0))
        assert mut.any() == any(table.mut) == (sparing is Sparing.BOTH_SIDES)
        # every slot code's key is a class below 255, and some draw names it
        classes = set(table.key[:n_codes])
        assert max(classes) < 255 and set(table.classes) == classes | {255}
        assert [table.entries[2 * _KIND_INDEX[k]] for k in reg.kinds] == [
            TapeEntry(k) for k in reg.kinds
        ]
        # `run_copy` reads only the stick-out table through a numpy view,
        # which it cannot write
        views = []

        def recorded(buffer, *args, **kwargs):
            views.append((buffer, frombuffer(buffer, *args, **kwargs)))
            return views[-1][1]

        monkeypatch.setattr(np, "frombuffer", recorded)
        run_copy(tuple(table.entries), SubunitProfile(sparing), seed=5)
        monkeypatch.undo()
        read = [(b, v) for b, v in views if any(b is tab for tab in tables)]
        assert len(read) == 1 and read[0][0] is table.stick
        view = read[0][1]
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 1
    # every entry point reads the same two tables, one per sparing
    tape = tuple(table.entries)
    for sparing in Sparing:
        profile = SubunitProfile(sparing)
        run_copy(tape, profile, seed=2)
        seeded_copy(tape, profile, seed=2)
        analytic_cycle_stats(tape, profile)
    copy_twice(tape, seed=2)
    assert _table.cache_info().currsize == 2


@pytest.mark.parametrize("sparing", list(Sparing), ids=lambda s: s.value)
@pytest.mark.parametrize("reg", REGISTRIES, ids=_kinds_id)
def test_table_glue_rule_matches_step(reg, sparing):
    """Every glue in the table leaves the entry, and the mutation flag,
    that `step` gives on a one-slot tape fed that draw, read as `_gather`
    reads them: at glue * 12 + slot code, the glue kind * 2 + case."""
    table = _table(sparing)
    profile = SubunitProfile(sparing)
    n_codes = len(table.entries)
    glues = 0
    for code, slot in enumerate(table.entries):
        for draw in range(table.width):
            if table.stick[code * table.width + draw]:
                continue
            state = CopierState(tape=(slot,), profile=profile, registry=reg)
            kind, case = divmod(draw, len(PresentationCase))
            outcome = step(state, reg.kinds[kind], PresentationCase(case))
            assert case in (PresentationCase.UPRIGHT, PresentationCase.FLIPPED)
            assert table.glue[draw] == (2 * kind + case) * n_codes
            i = table.glue[draw] + code
            assert outcome.accepted and state.output == [table.entries[table.out[i]]]
            assert outcome.mutation == table.mut[i]
            glues += 1
    assert glues >= n_codes  # every slot code has a glue
    assert sparing is Sparing.BOTH_SIDES or not any(table.mut)


@pytest.mark.parametrize("sparing", list(Sparing), ids=lambda s: s.value)
@pytest.mark.parametrize("reg", REGISTRIES, ids=_kinds_id)
def test_class_map_matches_exactly_the_draws_that_glue(reg, sparing):
    table, stick, _ = _grids(sparing)
    width = 4 * len(reg.kinds)
    assert stick.shape == (2 * len(reg.kinds), width)
    # every byte value, so no byte at or past the table's width glues either
    classes = np.frombuffer(table.classes, dtype=np.uint8)
    for code in range(len(stick)):
        hits = np.flatnonzero(classes == table.key[code]).tolist()
        assert hits == np.flatnonzero(stick[code] == 0).tolist()
    assert set(table.classes[width:]) == {255}


@pytest.mark.parametrize("sparing", list(Sparing), ids=lambda s: s.value)
@pytest.mark.parametrize("reg", ANY_REGISTRIES, ids=_kinds_id)
def test_glue_sets_are_equal_or_disjoint_on_any_registry(reg, sparing):
    """The class map holds on any registry: no draw glues at two slot codes
    with different glue sets, so each draw names one class."""
    stick, classes, key = _rule_grid(sparing, reg)
    glue_sets = {frozenset(np.flatnonzero(row == 0).tolist()) for row in stick}
    assert all(a == b or not a & b for a in glue_sets for b in glue_sets)
    assert len(glue_sets) == len(set(key[: len(stick)])) < 255
    for code, row in enumerate(stick):
        glues = np.flatnonzero(row == 0).tolist()
        assert [d for d in range(256) if classes[d] == key[code]] == glues


def test_glue_classes_refuse_overlapping_glue_sets():
    # three slot codes over four draws: {0, 1}, {1, 2}, and {0, 1} again
    stick = bytes([0, 0, 2, 1, 2, 0, 0, 1, 0, 0, 1, 2])
    with pytest.raises(ValueError, match="slot code 1 shares draw 1"):
        _glue_classes(stick, 4)
    # a glue set inside another overlaps too
    with pytest.raises(ValueError):
        _glue_classes(bytes([0, 0, 2, 2, 2, 0, 2, 2]), 4)
    assert _glue_classes(stick[:4] + stick[8:], 4) == (bytes([0, 0]) + b"\xff" * 254, bytes(256))


def _oracle_inputs(stick, n, head_frac, m, mode, seed):
    """Slot codes, a head and kinds/cases: uniform draws, rejects only (on
    its side or the wrong way round, a candidate never glues), or half of
    them drawn from the glues of the tape's own slots."""
    rng = np.random.default_rng(seed)
    n_codes, width = stick.shape
    slot_codes = rng.integers(0, n_codes, size=n).tolist()
    flat = rng.integers(0, width, size=m)
    if mode == "reject_only":
        flat = flat // 4 * 4 + rng.integers(PresentationCase.ON_SIDE, 4, size=m)
    elif mode == "dense" and n:
        glues = np.flatnonzero((stick[slot_codes] == 0).any(axis=0))
        flat = np.where(rng.random(m) < 0.5, rng.choice(glues, size=m), flat)
    flat = flat.astype(np.uint8)
    return slot_codes, round(head_frac * n), flat // 4, flat % 4


ORACLE_CASES = dict(
    sparing=st.sampled_from(list(Sparing)),
    n=st.integers(0, 24),
    head_frac=st.floats(0, 1),
    m=st.integers(0, 300),
    mode=st.sampled_from(["uniform", "reject_only", "dense"]),
    seed=st.integers(0, 2**32 - 1),
    cycles=st.integers(0, 2**40),  # the draws the run took before this chunk
)


def _case(sparing, cycles=0, **rest):
    """One explicit case of `ORACLE_CASES`, as a hypothesis example."""
    return example(sparing=sparing, cycles=cycles, **rest)


@settings(max_examples=300, deadline=None)
@given(**ORACLE_CASES)
@_case(Sparing.ONE_SIDE, n=5, head_frac=0.0, m=0, mode="uniform", seed=0)
@_case(Sparing.BOTH_SIDES, n=5, head_frac=0.5, m=1, mode="uniform", seed=0)
@_case(Sparing.BOTH_SIDES, n=5, head_frac=1.0, m=50, mode="uniform", seed=1)
@_case(Sparing.ONE_SIDE, n=3, head_frac=0.0, m=200, mode="uniform", seed=2)
@_case(Sparing.ONE_SIDE, n=7, head_frac=0.3, m=80, mode="reject_only", seed=3)
@_case(Sparing.BOTH_SIDES, n=24, head_frac=0.0, m=300, mode="dense", seed=4)
@_case(Sparing.BOTH_SIDES, 81_927, n=9, head_frac=0.2, m=120, mode="dense", seed=6)
def test_copier_chunk_matches_loop_oracle(sparing, n, head_frac, m, mode, seed, cycles):
    _, stick, _ = _grids(sparing)
    slot_codes, head, kinds, cases = _oracle_inputs(stick, n, head_frac, m, mode, seed)
    want, got = _both_walks(sparing, slot_codes, head, kinds, cases, cycles)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(**ORACLE_CASES)
@_case(Sparing.ONE_SIDE, n=4, head_frac=1.0, m=30, mode="uniform", seed=0)
@_case(Sparing.BOTH_SIDES, n=3, head_frac=0.0, m=300, mode="dense", seed=5)
def test_copier_chunk_searches_once_per_glue(sparing, n, head_frac, m, mode, seed, cycles):
    table, stick, _ = _grids(sparing)
    slot_codes, head, kinds, cases = _oracle_inputs(stick, n, head_frac, m, mode, seed)
    log, walk = [], (slot_codes, head, kinds, cases, cycles)
    new_head, used, glued = _kernel_walk(table.classes, table.key, *walk, log=log)
    assert log[0] is None and None not in log[1:]  # one class map per call
    calls = log[1:]  # where each find starts
    if head >= n:
        assert calls == [] and (new_head, used, glued) == (head, 0, [])
    else:
        # one search per glue, plus the one that finds none when the chunk
        # ends before the tape is finished
        assert len(calls) == len(glued) + (new_head < n)
        assert calls == [0] + [p - cycles + 1 for p in glued][: len(calls) - 1]


def test_copier_chunk_stops_where_the_tape_is_finished():
    slot_codes, kinds, cases = _chunk_inputs(12, n_slots=4, m=2_000)
    want, got = _both_walks(Sparing.BOTH_SIDES, slot_codes, 1, kinds, cases)
    head, used, glued = got
    assert got == want and head == 4 and 3 <= used < 2_000
    assert glued[-1] == used - 1 and len(glued) == 3  # the finishing draw glued


def test_copier_chunk_without_a_glue_logs_every_draw():
    rng = np.random.default_rng(13)
    slot_codes = rng.integers(0, 12, size=6).tolist()
    kinds = rng.integers(0, 6, size=300, dtype=np.uint8)
    cases = rng.integers(PresentationCase.ON_SIDE, 4, size=300, dtype=np.uint8)
    want, got = _both_walks(Sparing.ONE_SIDE, slot_codes, 2, kinds, cases)
    assert got == want == (2, 300, [])
    # a copy fed these rejects first logs each of them, then finishes
    reg = default_registry()
    tape = tuple(_table(Sparing.ONE_SIDE).entries[c] for c in slot_codes)
    rejects = [(reg.kinds[k], PresentationCase(int(c))) for k, c in zip(kinds, cases)]
    glues = [(e.kind, PresentationCase(int(e.flipped))) for e in negative_copy(tape)]
    run = run_copy(tape, SubunitProfile(), feed=rejects + glues)
    assert run.cycles == 300 + len(tape)
    assert np.array_equal(
        run.stickout_log[:300], np.where(cases == PresentationCase.ON_SIDE, 1, 2)
    )

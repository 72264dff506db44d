"""The tape copier cycle: feed, stick-out gate, glue, advance.

A candidate block arrives in one of four presentations: upright, flipped
180 degrees about its length axis, lying on its side, or pointing the
opposite direction. The push-down mover measures how far it protrudes:

    0  pattern match lying flush            -> glued, tape advances
    1  one subunit proud (on its side, or a reversed match when only one
       side of the marking row is spared)   -> ejected
    2  two subunits proud (opposite way, or plain pattern mismatch)
                                            -> ejected

With both sides of the marking row spared, a reversed match lies flush
too and is glued, which is the mutation pathway.

The copier reads the paper's six kinds, the default registry. Both entry
points read one rule table per sparing, `_table`, which holds the
stick-out of every draw at every slot, what each glue leaves there, and
the glue class of every draw and slot that the kernel's walk finds glues
by, and one seeded draw source, `_stream_draws`, which turns 64-bit words
into numpy's uint8 stream through `pcg64.Draws`: numpy's own PCG64 words
in `run_copy`, the same words from `pcg64.Pcg64` in `seeded_copy`, which
never loads numpy. It draws each chunk whole but combines it as the walk
reads it: a first piece sized to the open slots, then the rest. Both
gather the copy and its mutations in `_gather`, from the table's entries,
which are the tape builders' shared entries of `encoding`, so a copy's
output holds the same twelve objects; `run_copy` also logs every draw's
stick-out through a numpy view.
"""

from __future__ import annotations

import functools
import itertools
import operator
from array import array
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import TYPE_CHECKING, NamedTuple

from . import kernels
from .encoding import (
    FitResult, Tape, TapeEntry, TypeRegistry, default_registry, fit, tape_from_kinds
)
from .errors import CycleLimitExceededError, TapeExhaustedError, UnknownTapeKindError
from .pcg64 import Draws, Pcg64

if TYPE_CHECKING:
    import numpy as np

FEED_CHUNK = 4096
# kind -> kind index in the default registry, the one registry the copier reads
_KIND_INDEX = {kind: i for i, kind in enumerate(default_registry().kinds)}
_N_KINDS = len(_KIND_INDEX)


class Sparing(Enum):
    ONE_SIDE = "one_side"
    BOTH_SIDES = "both_sides"


class PresentationCase(IntEnum):
    UPRIGHT = 0
    FLIPPED = 1
    ON_SIDE = 2
    OPPOSITE = 3


@dataclass(frozen=True)
class SubunitProfile:
    """The block geometry the stick-out rule reads: which sides of the
    marking row are spared."""

    sparing: Sparing = Sparing.ONE_SIDE


def _classify(
    candidate_kind: str,
    case: PresentationCase,
    slot: TapeEntry,
    profile: SubunitProfile,
    registry: TypeRegistry | None,
) -> tuple[int, bool]:
    """The stick-out rule: (stick-out, whether gluing is a mutation)."""
    if case == PresentationCase.ON_SIDE:
        return 1, False
    if case == PresentationCase.OPPOSITE:
        return 2, False
    r = fit(
        candidate_kind,
        case == PresentationCase.FLIPPED,
        slot.kind,
        slot.flipped,
        registry,
    )
    if r is FitResult.EXACT:
        return 0, False
    if r is FitResult.REVERSED:
        if profile.sparing is Sparing.BOTH_SIDES:
            return 0, True
        return 1, False
    return 2, False


def stickout(
    candidate_kind: str,
    case: PresentationCase,
    slot: TapeEntry,
    profile: SubunitProfile,
    registry: TypeRegistry | None = None,
) -> int:
    return _classify(candidate_kind, case, slot, profile, registry)[0]


@dataclass(frozen=True)
class CycleOutcome:
    candidate_kind: str
    case: PresentationCase
    stickout: int
    accepted: bool
    mutation: bool


@dataclass
class CopierState:
    tape: Tape
    profile: SubunitProfile
    registry: TypeRegistry
    head: int = 0
    output: list = field(default_factory=list)
    cycle_log: list = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.head == len(self.tape)


def step(state: CopierState, candidate_kind: str, case: PresentationCase) -> CycleOutcome:
    """Feed one candidate; mutate the state; return the cycle outcome."""
    if state.done:
        raise TapeExhaustedError("tape already fully copied")
    slot = state.tape[state.head]
    s, mutation = _classify(candidate_kind, case, slot, state.profile, state.registry)
    accepted = s == 0
    if accepted:
        # an exact fit is recorded in the slot's own flip frame; a reversed
        # fit physically sits the other way up
        state.output.append(tape_from_kinds([candidate_kind], [slot.flipped != mutation])[0])
        state.head += 1
    outcome = CycleOutcome(candidate_kind, case, s, accepted, mutation)
    state.cycle_log.append(outcome)
    return outcome


@dataclass(frozen=True)
class CopyRun:
    output: Tape
    cycles: int
    mutations: tuple[int, ...]
    stickout_log: np.ndarray
    sparing: Sparing


class CopyResult(NamedTuple):
    """What `seeded_copy` gathers: `run_copy`'s fields of the same names."""

    output: Tape
    cycles: int
    mutations: tuple[int, ...]


class _Table(NamedTuple):
    """What the copier reads off the registry under one sparing: a slot
    code is kind index * 2 + flip, a flat draw is kind index * cases +
    case, and `stick` holds one byte per (slot code, flat draw) at slot
    code * width + draw. Only upright and flipped draws glue, so a glue is
    one of 12, kind index * 2 + case: `glue` maps a flat draw that glues to
    glue * 12, and `out` and `mut` hold one byte per (glue, slot code) at
    glue * 12 + slot code, below 144."""

    entries: tuple[TapeEntry, ...]  # the tape entry at each slot code
    width: int  # flat draws per slot code
    stick: bytes  # stick-out of each draw at each slot
    glue: bytes  # a `bytes.translate` table: flat draw -> glue * 12
    out: bytes  # the slot code of the entry that the glue leaves at that slot
    mut: bytes  # 1 where the glue at that slot is a mutation
    classes: bytes  # a `bytes.translate` table: flat draw -> its glue class
    key: bytes  # a `bytes.translate` table: slot code -> the class that glues there


def _glue_classes(stick: bytes, width: int) -> tuple[bytes, bytes]:
    """(classes, key), two `bytes.translate` tables read off `stick`, one
    row of `width` stick-outs per slot code. A slot code's glue set is the
    draws with stick-out 0 there, and a class is one glue set: `classes`
    maps a draw to its class, 255 where it glues nowhere, and `key` maps a
    slot code to its own. Raises ValueError where two glue sets overlap
    unequal, so that a draw would name two classes."""
    classes, key, sets = bytearray(b"\xff" * 256), bytearray(256), {}
    for code, row in enumerate(range(0, len(stick), width)):
        fs = bytes(f for f in range(width) if not stick[row + f])
        c = key[code] = sets.setdefault(fs, len(sets))
        for f in fs:
            if classes[f] not in (255, c):
                raise ValueError(f"slot code {code} shares draw {f} with another glue set")
            classes[f] = c
    return bytes(classes), bytes(key)


@functools.cache
def _table(sparing: Sparing) -> _Table:
    """Built once per sparing over the default registry. A glue takes the
    drawn kind and lies in its slot's flip frame, unless it is a mutation,
    which sits the other way up."""
    profile = SubunitProfile(sparing=sparing)
    registry = default_registry()
    kinds = registry.kinds
    entries = tape_from_kinds([kind for kind in kinds for _ in (0, 1)], (False, True) * len(kinds))
    draws = [(k, kind, case) for k, kind in enumerate(kinds) for case in PresentationCase]
    stick, glue, mut, out = bytearray(), bytearray(256), bytearray(256), bytearray(256)
    for code, slot in enumerate(entries):
        for k, kind, case in draws:
            s, m = _classify(kind, case, slot, profile, registry)
            stick.append(s)
            if not s:  # an upright or flipped draw, glue 2 * k + case
                row = glue[k * len(PresentationCase) + case] = (2 * k + case) * len(entries)
                mut[row + code], out[row + code] = m, 2 * k + (slot.flipped != m)
    classes, key = _glue_classes(stick, len(draws))
    tables = bytes(stick), bytes(glue), bytes(out), bytes(mut), classes, key
    return _Table(entries, len(draws), *tables)


def _items(seq, keys) -> tuple:
    """`seq[k]` for each of `keys`, in one C call where one serves: an
    itemgetter refuses no keys, and returns the item of one key bare."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)(seq)
    return tuple(seq[k] for k in keys)


def _gather(table: _Table, codes: bytes, glues: bytes) -> tuple[Tape, tuple[int, ...]]:
    """The copy and its mutated slots, from each slot's code and the flat
    draw that glued it. A glue * 12 and a slot code add below 144, so the
    two byte strings add as big-endian ints with no carry between bytes."""
    n = len(codes)
    at = int.from_bytes(glues.translate(table.glue), "big") + int.from_bytes(codes, "big")
    at = at.to_bytes(n, "big")
    flags = at.translate(table.mut)  # none under one-side sparing: no walk of the slots
    mutations = tuple(itertools.compress(range(n), flags)) if 1 in flags else ()
    return _items(table.entries, at.translate(table.out)), mutations


def _slot_codes(tape: Tape) -> bytes:
    """One byte per slot, kind index * 2 + flip: codes below 2 * 6 = 12."""
    try:  # a flip is a bool, and a bool is an int, so it adds as is
        return bytes([2 * _KIND_INDEX[e.kind] + e.flipped for e in tape])
    except KeyError as exc:
        raise UnknownTapeKindError(exc.args[0]) from None


# A draw source is called with (open slots, cycles left) until the tape is
# done and returns the next flat draws, kind * cases + case, as `bytes`. A
# seeded chunk's first piece holds, per open slot, twice the 24 flat draws
# in which a slot glues one under one-side sparing.
_PIECE_PER_SLOT = 2 * _N_KINDS * len(PresentationCase)


def _stream_draws(stream: Draws):
    kinds, cases, at = b"", b"", 0  # the chunk, and its draws handed out

    def draw(open_slots: int, budget: int) -> bytes:
        # Draw a full chunk regardless of budget so the stream is a pure
        # function of the seed, but combine it a piece at a time, each capped
        # at what the kernel may consume. A flat draw is at most 5 * 4 + 3 =
        # 23, so the byte strings add as big-endian ints with no carry.
        nonlocal kinds, cases, at
        if at == len(kinds):
            kinds = stream.integers(_N_KINDS, FEED_CHUNK)
            cases = stream.integers(len(PresentationCase), FEED_CHUNK)
            at, budget = 0, min(budget, _PIECE_PER_SLOT * open_slots)
        start, at = at, min(at + budget, FEED_CHUNK)
        flat = int.from_bytes(kinds[start:at], "big") * len(PresentationCase)
        return (flat + int.from_bytes(cases[start:at], "big")).to_bytes(at - start, "big")

    return draw


def _forced_draws(feed):
    items = iter(feed)
    # a dict, so a case is looked up by equality as a set member would be
    case_values = {int(case): int(case) for case in PresentationCase}

    def draw(open_slots: int, budget: int) -> bytes:
        # Every open slot needs at least one more draw, so a batch this
        # size never reads past the draw that finishes the tape.
        batch = list(itertools.islice(items, min(open_slots, budget)))
        try:
            kinds = [_KIND_INDEX[kind] for kind, _ in batch]
        except KeyError as exc:
            raise UnknownTapeKindError(exc.args[0]) from None
        try:
            cases = [case_values[case] for _, case in batch]
        except (KeyError, TypeError):  # TypeError: unhashable, so no case either
            raise ValueError("forced feed cases must be PresentationCase values 0-3") from None
        return bytes([k * len(PresentationCase) + c for k, c in zip(kinds, cases)])

    return draw


def _walk(
    tape: Tape,
    profile: SubunitProfile | None,
    max_cycles: int | None,
    draw,
) -> tuple[Sparing, _Table, bytes, bytearray, array, int]:
    """What both entry points share: check the settings, then feed the
    chunks of the draw source `draw` to the kernel until every slot is
    glued.

    Returns the sparing, the `_Table`, the slot codes, every draw fed,
    each as its flat index (only the last chunk can end unused), the cycle
    that glued each slot after -1 for the start, and the cycles used.
    Stops with CycleLimitExceededError after `max_cycles` draws, or when
    the source runs dry first.
    """
    if max_cycles is None:
        max_cycles = max(10_000, 2_000 * len(tape))
    elif max_cycles < 0:
        raise ValueError(f"max_cycles must not be negative, got {max_cycles}")
    sparing = (profile or SubunitProfile()).sparing
    table = _table(sparing)
    codes = _slot_codes(tape)
    keys = codes.translate(table.key)
    n = len(codes)
    drawn = bytearray()
    glue_cycles = array("q", [-1])
    head = 0
    cycles = 0
    while head < n:
        if cycles >= max_cycles:
            raise CycleLimitExceededError(cycles, head, n)
        flat = draw(n - head, max_cycles - cycles)
        if not flat:  # a forced feed ran dry
            raise CycleLimitExceededError(cycles, head, n)
        head, used = kernels.copier_chunk(table.classes, keys, head, flat, cycles, glue_cycles)
        drawn += flat
        cycles += used
    return sparing, table, codes, drawn, glue_cycles, cycles


def run_copy(
    tape: Tape,
    profile: SubunitProfile | None = None,
    seed: int | np.random.SeedSequence = 0,
    max_cycles: int | None = None,
    feed=None,
) -> CopyRun:
    """Copy a tape; returns the produced (negative) tape and run statistics.

    The default feed draws a kind uniformly from the default registry and a
    presentation case uniformly from the four cases, as
    `np.random.default_rng(seed).integers` draws them. Passing `feed`
    (iterable of (kind, case)) replaces the random stream entirely, for
    forced experiments. Either way the copy stops with
    CycleLimitExceededError after `max_cycles` draws, or when a forced
    feed runs out first. A negative `max_cycles` raises ValueError.
    """
    import numpy as np

    if feed is None:
        draw = _stream_draws(Draws(np.random.PCG64(seed).random_raw))
    else:
        draw = _forced_draws(feed)
    sparing, table, codes, drawn, glue_cycles, cycles = _walk(tape, profile, max_cycles, draw)
    # the copy is finished, so every slot has its glue, the draw at its cycle
    flat = np.frombuffer(drawn, dtype=np.uint8, count=cycles)
    ends = np.frombuffer(glue_cycles, dtype=np.int64)
    output, mutations = _gather(table, codes, flat[ends[1:]].tobytes())
    # each slot met the draws after the glue before it, up to its own glue;
    # `stick` is read at slot code * width + draw, at most 11 * 24 + 23 =
    # 287, which needs a uint16 index
    rows = np.frombuffer(codes, dtype=np.uint8).astype(np.uint16) * table.width
    met = np.repeat(rows, ends[1:] - ends[:-1])
    met += flat
    log = np.frombuffer(table.stick, dtype=np.uint8)[met]
    return CopyRun(output, cycles, mutations, log, sparing)


def seeded_copy(
    tape: Tape,
    profile: SubunitProfile | None = None,
    seed: int = 0,
    max_cycles: int | None = None,
) -> CopyResult:
    """`run_copy`'s output, cycles and mutations for an int seed >= 0,
    with the same errors and the same gather, computed without numpy: the
    same draw source reads its words from `pcg64.Pcg64`, and there is no
    stick-out log."""
    draw = _stream_draws(Pcg64(seed))
    _, table, codes, drawn, glue_cycles, cycles = _walk(tape, profile, max_cycles, draw)
    output, mutations = _gather(table, codes, bytes(_items(drawn, glue_cycles[1:])))
    return CopyResult(output, cycles, mutations)


def copy_twice(tape: Tape, seed: int = 0) -> Tape:
    """Copy the copy under one-side sparing, which never mutates, so this
    returns the original. The two copies draw from the two children of
    `SeedSequence(seed)`."""
    import numpy as np

    s1, s2 = np.random.SeedSequence(seed).spawn(2)
    first = run_copy(tape, seed=s1)
    return run_copy(first.output, seed=s2).output


def analytic_cycle_stats(tape: Tape, profile: SubunitProfile | None = None) -> dict:
    """Exact per-slot acceptance odds and waiting-time moments.

    Enumerates the 4 x kinds equally likely (kind, case) draws against
    each slot; waiting times are geometric, so expectation is 1/p per slot.
    """
    from fractions import Fraction

    table = _table((profile or SubunitProfile()).sparing)
    width = table.width
    n_glue = [table.stick.count(0, row, row + width) for row in range(0, len(table.stick), width)]
    per_slot = [Fraction(n_glue[code], width) for code in _slot_codes(tape)]
    expected = sum((1 / p for p in per_slot), Fraction(0))
    variance = sum(((1 - p) / p**2 for p in per_slot), Fraction(0))
    return {"per_slot": per_slot, "expected_cycles": expected, "variance": variance}

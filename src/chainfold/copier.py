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
"""

from __future__ import annotations

import functools
import itertools
import re
from array import array
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import kernels
from .encoding import FitResult, Tape, TapeEntry, TypeRegistry, default_registry, fit
from .errors import CycleLimitExceededError, TapeExhaustedError, UnknownTapeKindError

FEED_CHUNK = 4096


class Sparing(Enum):
    ONE_SIDE = "one_side"
    BOTH_SIDES = "both_sides"


class PresentationCase(IntEnum):
    UPRIGHT = 0
    FLIPPED = 1
    ON_SIDE = 2
    OPPOSITE = 3


# the kernel's flat draw index, kind * cases + case, is one byte
_MAX_KINDS = 256 // len(PresentationCase)


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
        state.output.append(TapeEntry(candidate_kind, slot.flipped != mutation))
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
    backend: str


class _Rules(NamedTuple):
    """What the copier reads off one registry under one sparing.

    Both tables are indexed (slot code, flat draw): a slot code is kind
    index * 2 + flip, a flat draw is kind index * cases + case.
    """

    entries: np.ndarray  # the tape entry at each slot code, as objects
    index: dict[str, int]  # kind -> kind index; shared, so never written
    stick: np.ndarray  # stick-out of each draw at each slot
    mut: np.ndarray  # whether gluing that draw there is a mutation
    # per slot code, a byte class (never empty: every kind has a partner) of
    # the draws with stick-out 0 there; \xNN escapes keep -, \, ] and ^ literal
    seek: tuple[re.Pattern[bytes], ...]


@functools.cache
def _rules(sparing: Sparing, registry: TypeRegistry) -> _Rules:
    """Built once per sparing and registry value, since only the sparing
    enters the rule; the tables are read-only. A glue always takes the
    drawn kind."""
    profile = SubunitProfile(sparing=sparing)
    kinds = registry.kinds
    entries = tuple(TapeEntry(kind, flipped) for kind in kinds for flipped in (False, True))
    draws = [(kind, case) for kind in kinds for case in PresentationCase]
    stick = np.empty((len(entries), len(draws)), dtype=np.uint8)
    mut = np.empty_like(stick)
    for code, slot in enumerate(entries):
        for f, (kind, case) in enumerate(draws):
            stick[code, f], mut[code, f] = _classify(kind, case, slot, profile, registry)
    entry_table = np.array(entries, dtype=object)
    for table in (stick, mut, entry_table):
        table.flags.writeable = False
    glues = [np.flatnonzero(row == 0).tolist() for row in stick]
    return _Rules(
        entries=entry_table,
        index={kind: i for i, kind in enumerate(kinds)},
        stick=stick,
        mut=mut,
        seek=tuple(re.compile(b"[%s]" % b"".join(b"\\x%02x" % f for f in fs)) for fs in glues),
    )


def _slot_codes(tape: Tape, rules: _Rules) -> bytes:
    """One byte per slot, kind index * 2 + flip: codes < 2 * _MAX_KINDS."""
    index = rules.index
    try:  # a flip is a bool, and a bool is an int, so it adds as is
        return bytes([2 * index[e.kind] + e.flipped for e in tape])
    except KeyError as exc:
        raise UnknownTapeKindError(exc.args[0]) from None


def _seeded_draws(seed: int | np.random.SeedSequence, n_kinds: int):
    rng = np.random.default_rng(seed)

    def draw(open_slots: int, budget: int):
        # Draw a full chunk regardless of budget so the stream is a pure
        # function of the seed, then cap what the kernel may consume.
        kinds = rng.integers(0, n_kinds, size=FEED_CHUNK, dtype=np.uint8)
        cases = rng.integers(0, 4, size=FEED_CHUNK, dtype=np.uint8)
        return kinds[:budget], cases[:budget]

    return draw


def _forced_draws(feed, rules: _Rules):
    items = iter(feed)
    case_values = frozenset(map(int, PresentationCase))

    def draw(open_slots: int, budget: int):
        # Every open slot needs at least one more draw, so a batch this
        # size never reads past the draw that finishes the tape.
        batch = list(itertools.islice(items, min(open_slots, budget)))
        try:
            kinds = [rules.index[kind] for kind, _ in batch]
        except KeyError as exc:
            raise UnknownTapeKindError(exc.args[0]) from None
        cases = [case for _, case in batch]
        try:
            valid = set(cases) <= case_values
        except TypeError:  # unhashable, so no case either
            valid = False
        if not valid:
            raise ValueError("forced feed cases must be PresentationCase values 0-3")
        return np.array(kinds, dtype=np.uint8), np.array(cases, dtype=np.uint8)

    return draw


def run_copy(
    tape: Tape,
    profile: SubunitProfile | None = None,
    seed: int | np.random.SeedSequence = 0,
    max_cycles: int | None = None,
    feed=None,
    registry: TypeRegistry | None = None,
) -> CopyRun:
    """Copy a tape; returns the produced (negative) tape and run statistics.

    The default feed draws a kind uniformly from the registry and a
    presentation case uniformly from the four cases, all from one seeded
    generator. Passing `feed` (iterable of (kind, case)) replaces the
    random stream entirely, for forced experiments. Either way the copy
    stops with CycleLimitExceededError after `max_cycles` draws, or when
    a forced feed runs out first. Registries of more than 64 kinds and a
    negative `max_cycles` raise ValueError.
    """
    profile = profile or SubunitProfile()
    reg = registry or default_registry()
    n_kinds = len(reg.kinds)
    if n_kinds > _MAX_KINDS:
        raise ValueError(f"the copier takes at most {_MAX_KINDS} kinds, got {n_kinds}")
    n = len(tape)
    if max_cycles is None:
        max_cycles = max(10_000, 2_000 * n)
    elif max_cycles < 0:
        raise ValueError(f"max_cycles must not be negative, got {max_cycles}")
    rules = _rules(profile.sparing, reg)
    draw = _seeded_draws(seed, n_kinds) if feed is None else _forced_draws(feed, rules)
    codes = _slot_codes(tape, rules)
    drawn = bytearray()  # each draw as its flat index, kind * cases + case
    glue_cycles = array("q", [-1])  # the cycle that glued each slot, after -1 for the start
    head = 0
    cycles = 0
    while head < n:
        if cycles >= max_cycles:
            raise CycleLimitExceededError(cycles, head, n)
        kinds, cases = draw(n - head, max_cycles - cycles)
        if not len(kinds):  # a forced feed ran dry
            raise CycleLimitExceededError(cycles, head, n)
        flat = (kinds * len(PresentationCase) + cases).tobytes()
        head, used = kernels.copier_chunk(rules.seek, codes, head, flat, cycles, glue_cycles)
        drawn += flat  # only the last chunk can end unused, and `count` drops that
        cycles += used
    # the copy is finished, so every slot has its glue: gather in one pass
    flat = np.frombuffer(drawn, dtype=np.uint8, count=cycles)
    ends = np.frombuffer(glue_cycles, dtype=np.int64)
    glues = flat[ends[1:]]
    slots = np.frombuffer(codes, dtype=np.uint8)
    # both tables are read flat at slot code * width + draw, which stays
    # below 2 * _MAX_KINDS * 256 and so fits a uint16 index
    rows = slots.astype(np.uint16) * rules.stick.shape[1]
    mut = rules.mut.ravel()[rows + glues]
    # a glue takes the drawn kind and lies in its slot's flip frame (bit 0
    # of the code), unless it is a mutation, which sits the other way up
    out_codes = glues // len(PresentationCase) * 2 + ((slots & 1) ^ mut)
    # each slot met the draws after the glue before it, up to its own glue
    met = np.repeat(rows, np.diff(ends))
    met += flat
    return CopyRun(
        output=tuple(rules.entries.take(out_codes).tolist()),
        cycles=cycles,
        mutations=tuple(np.flatnonzero(mut).tolist()),
        stickout_log=rules.stick.ravel()[met],
        sparing=profile.sparing,
        backend=kernels.active_backend(),
    )


def copy_twice(
    tape: Tape,
    profile: SubunitProfile | None = None,
    seed: int | np.random.SeedSequence = 0,
    registry: TypeRegistry | None = None,
) -> Tape:
    """Copy the copy; with a mutation-free profile this returns the original."""
    s1, s2 = np.random.SeedSequence(seed).spawn(2)
    first = run_copy(tape, profile, seed=s1, registry=registry)
    second = run_copy(first.output, profile, seed=s2, registry=registry)
    return second.output


def analytic_cycle_stats(
    tape: Tape,
    profile: SubunitProfile | None = None,
    registry: TypeRegistry | None = None,
) -> dict:
    """Exact per-slot acceptance odds and waiting-time moments.

    Enumerates the 4 x kinds equally likely (kind, case) draws against
    each slot; waiting times are geometric, so expectation is 1/p per slot.
    """
    profile = profile or SubunitProfile()
    reg = registry or default_registry()
    rules = _rules(profile.sparing, reg)
    n_glue = np.count_nonzero(rules.stick == 0, axis=1).tolist()
    per_slot = [Fraction(n_glue[code], rules.stick.shape[1]) for code in _slot_codes(tape, rules)]
    expected = sum((1 / p for p in per_slot), Fraction(0))
    variance = sum(((1 - p) / p**2 for p in per_slot), Fraction(0))
    return {"per_slot": per_slot, "expected_cycles": expected, "variance": variance}

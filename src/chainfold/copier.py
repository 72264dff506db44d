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
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction

import numpy as np

from . import kernels
from .encoding import (
    FitResult,
    Tape,
    TapeEntry,
    TypeRegistry,
    UnknownTapeKindError,
    default_registry,
    fit,
)

FEED_CHUNK = 4096
_ROLES = "abcdef"


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
    """Block body in subunits plus the marking row on top."""

    body: tuple[int, int, int] = (4, 4, 4)
    marking_rows: int = 1
    clearance: int = 3
    sparing: Sparing = Sparing.ONE_SIDE

    def __post_init__(self) -> None:
        if min(self.body) <= 0 or self.marking_rows <= 0:
            raise ValueError("subunit dimensions must be positive")
        if self.clearance >= self.body[2]:
            raise ValueError("clearance must sit below the body height")

    @property
    def volume(self) -> int:
        bx, by, bz = self.body
        return bx * by * (bz + self.marking_rows)


class TapeExhaustedError(Exception):
    pass


class CycleLimitExceededError(Exception):
    def __init__(self, cycles: int, head: int, tape_len: int):
        super().__init__(
            f"no finished copy after {cycles} cycles (head {head}/{tape_len})"
        )
        self.cycles = cycles
        self.head = head


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
    output: list = None  # type: ignore[assignment]
    cycle_log: list = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.output is None:
            self.output = []
        if self.cycle_log is None:
            self.cycle_log = []

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
    seed: object
    sparing: Sparing
    backend: str


def _slot_code(entry: TapeEntry, registry: TypeRegistry) -> int:
    return _ROLES.index(registry.role(entry.kind)) * 2 + int(entry.flipped)


@functools.cache
def _tables(sparing: Sparing, registry: TypeRegistry) -> tuple[np.ndarray, np.ndarray]:
    """Stick-out and mutation flag per (slot code, kind index, case).

    Only the sparing enters the rule, so one read-only pair serves every
    profile that shares it. A glue always takes the drawn kind.
    """
    profile = SubunitProfile(sparing=sparing)
    stick = np.empty((12, 6, 4), dtype=np.uint8)
    mut = np.empty((12, 6, 4), dtype=np.uint8)
    for sc in range(12):
        slot = TapeEntry(registry.kind_for_role(_ROLES[sc // 2]), bool(sc % 2))
        for ki, kind in enumerate(registry.kinds):
            for case in PresentationCase:
                stick[sc, ki, case], mut[sc, ki, case] = _classify(
                    kind, case, slot, profile, registry
                )
    stick.flags.writeable = False
    mut.flags.writeable = False
    return stick, mut


def _seeded_draws(seed: int | np.random.SeedSequence):
    rng = np.random.default_rng(seed)

    def draw(open_slots: int, budget: int):
        # Draw a full chunk regardless of budget so the stream is a pure
        # function of the seed, then cap what the kernel may consume.
        kinds = rng.integers(0, 6, size=FEED_CHUNK, dtype=np.uint8)
        cases = rng.integers(0, 4, size=FEED_CHUNK, dtype=np.uint8)
        return kinds[:budget], cases[:budget]

    return draw


def _forced_draws(feed, registry: TypeRegistry):
    items = iter(feed)
    kind_index = {kind: i for i, kind in enumerate(registry.kinds)}

    def draw(open_slots: int, budget: int):
        # Every open slot needs at least one more draw, so a batch this
        # size never reads past the draw that finishes the tape.
        batch = list(itertools.islice(items, min(open_slots, budget)))
        try:
            kinds = [kind_index[kind] for kind, _ in batch]
        except KeyError as exc:
            raise UnknownTapeKindError(exc.args[0]) from None
        cases = [PresentationCase(case) for _, case in batch]
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
    a forced feed runs out first.
    """
    profile = profile or SubunitProfile()
    reg = registry or default_registry()
    n = len(tape)
    if max_cycles is None:
        max_cycles = max(10_000, 2_000 * n)
    draw = _seeded_draws(seed) if feed is None else _forced_draws(feed, reg)
    stick_tab, mut_tab = _tables(profile.sparing, reg)
    slot_codes = np.array([_slot_code(e, reg) for e in tape], dtype=np.int64)
    out_kinds = np.full(n, -1, dtype=np.int8)
    out_flips = np.zeros(n, dtype=np.uint8)
    out_mut = np.zeros(n, dtype=np.uint8)
    logs: list[np.ndarray] = []
    head = 0
    cycles = 0
    while head < n:
        if cycles >= max_cycles:
            raise CycleLimitExceededError(cycles, head, n)
        kinds, cases = draw(n - head, max_cycles - cycles)
        if not len(kinds):  # a forced feed ran dry
            raise CycleLimitExceededError(cycles, head, n)
        stick_log = np.zeros(len(kinds), dtype=np.uint8)
        head, used = kernels.copier_chunk(
            stick_tab,
            mut_tab,
            slot_codes,
            head,
            kinds,
            cases,
            out_kinds,
            out_flips,
            out_mut,
            stick_log,
        )
        logs.append(stick_log[:used])
        cycles += used
    kinds_list = reg.kinds
    output = tuple(
        TapeEntry(kinds_list[out_kinds[i]], bool(out_flips[i])) for i in range(n)
    )
    return CopyRun(
        output=output,
        cycles=cycles,
        mutations=tuple(int(i) for i in np.flatnonzero(out_mut)),
        stickout_log=np.concatenate(logs) if logs else np.zeros(0, dtype=np.uint8),
        seed=seed if feed is None else None,
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

    Enumerates the 24 equally likely (kind, case) draws against each slot;
    waiting times are geometric, so expectation is 1/p per slot.
    """
    profile = profile or SubunitProfile()
    reg = registry or default_registry()
    stick, _ = _tables(profile.sparing, reg)
    per_slot = [
        Fraction(int(np.count_nonzero(stick[_slot_code(entry, reg)] == 0)), 24)
        for entry in tape
    ]
    expected = sum((1 / p for p in per_slot), Fraction(0))
    variance = sum(((1 - p) / p**2 for p in per_slot), Fraction(0))
    return {"per_slot": per_slot, "expected_cycles": expected, "variance": variance}

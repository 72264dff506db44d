"""Key-lock marking patterns and tape algebra.

Block types carry an n-bit marking pattern with exactly n/2 raised bits; a
candidate binds a slot when its presented pattern is the slot's bitwise
complement. Rotating a block 180 degrees about its length axis presents
the pattern reversed, which is what lets some types masquerade as their
complement partner.

The default registry assigns 4-bit patterns to the six working block
types, role letters a..f, chosen so the pairs (a,f), (b,e), (c,d) are
complementary and exactly (a,f) and (b,e) are confusable under reversal:

    a = G0_ = 1100    b = H__ = 1010    c = L__ = 1001
    d = R__ = 0110    e = M1x = 0101    f = b__ = 0011
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import UnknownTapeKindError


def codon_count(n: int) -> int:
    """Number of distinct n-bit patterns with exactly n/2 bits raised."""
    if n <= 0 or n % 2:
        raise ValueError(f"codon patterns need a positive even width, got {n}")
    return math.comb(n, n // 2)


@dataclass(frozen=True)
class MarkingPattern:
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) % 2 or not self.bits:
            raise ValueError("pattern width must be positive and even")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("pattern bits must be 0 or 1")
        if sum(self.bits) != len(self.bits) // 2:
            raise ValueError(
                f"exactly half the bits must be raised: {self.as_string()}"
            )

    @classmethod
    def from_string(cls, s: str) -> "MarkingPattern":
        return cls(tuple("01".find(c) for c in s))  # -1, refused, for any other character

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @property
    def palindromic(self) -> bool:
        return self.bits == self.bits[::-1]


def complement(p: MarkingPattern) -> MarkingPattern:
    return MarkingPattern(tuple(1 - b for b in p.bits))


def reverse(p: MarkingPattern) -> MarkingPattern:
    """The pattern as presented after a 180 turn about the length axis."""
    return MarkingPattern(p.bits[::-1])


_DEFAULT_ASSIGNMENT = (
    ("a", "G0_", "1100"),
    ("b", "H__", "1010"),
    ("c", "L__", "1001"),
    ("d", "R__", "0110"),
    ("e", "M1x", "0101"),
    ("f", "b__", "0011"),
)


class TypeRegistry:
    """Kind -> (role letter, pattern), with complement-partner lookup.

    Two registries are equal when they assign the same roles and patterns
    to the same kinds in the same order: kind order is part of the value,
    since it numbers the kinds a copier draws.
    """

    def __init__(self, assignment: dict[str, tuple[str, MarkingPattern]]):
        self._by_kind = dict(assignment)
        self._key = tuple(self._by_kind.items())  # ordered, unlike dict equality
        self._hash = hash(self._key)
        self._partner: dict[str, str] = {}
        for kind, (_, pat) in self._by_kind.items():
            comp = complement(pat)
            partners = [
                k for k, (_, p) in self._by_kind.items() if p == comp
            ]
            if len(partners) != 1:
                raise ValueError(
                    f"{kind} needs exactly one complement partner, "
                    f"found {partners}"
                )
            self._partner[kind] = partners[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeRegistry):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def default(cls) -> "TypeRegistry":
        return cls(
            {
                kind: (role, MarkingPattern.from_string(bits))
                for role, kind, bits in _DEFAULT_ASSIGNMENT
            }
        )

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(self._by_kind)

    def role(self, kind: str) -> str:
        return self._lookup(kind)[0]

    def pattern(self, kind: str) -> MarkingPattern:
        return self._lookup(kind)[1]

    def partner(self, kind: str) -> str:
        if kind not in self._partner:
            raise UnknownTapeKindError(kind)
        return self._partner[kind]

    def _lookup(self, kind: str) -> tuple[str, MarkingPattern]:
        if kind not in self._by_kind:
            raise UnknownTapeKindError(kind)
        return self._by_kind[kind]


class FitResult(Enum):
    EXACT = "exact"
    REVERSED = "reversed"
    NO_FIT = "no_fit"


def fit(
    candidate_kind: str,
    candidate_flipped: bool,
    slot_kind: str,
    slot_flipped: bool = False,
    registry: TypeRegistry | None = None,
) -> FitResult:
    """Classify how a candidate presents against a slot.

    Only the flip of the candidate relative to the slot matters. A match
    with relative flip is EXACT when the candidate's pattern is
    palindromic (the flip is unobservable) and REVERSED otherwise, which
    is the mutation pathway.
    """
    reg = registry or _DEFAULT_REGISTRY
    rel = candidate_flipped != slot_flipped
    pc = reg.pattern(candidate_kind)
    presented = reverse(pc) if rel else pc
    # the partner's pattern is the slot's complement: the registry checks it
    if presented != reg.pattern(reg.partner(slot_kind)):
        return FitResult.NO_FIT
    if not rel or pc.palindromic:
        return FitResult.EXACT
    return FitResult.REVERSED


@dataclass(frozen=True)
class TapeEntry:
    kind: str
    flipped: bool = False

    def __post_init__(self) -> None:
        # the copier adds the flip to a slot code, so 2 or None would copy
        # another kind or fail late; a flip is exactly True or False
        if self.flipped is not True and self.flipped is not False:
            raise ValueError(f"a tape entry's flip must be True or False, got {self.flipped!r}")


Tape = tuple[TapeEntry, ...]


def tape_from_kinds(kinds, flips=None) -> Tape:
    """A tape of upright entries, or flipped where `flips` says so; flips,
    when given, must pair up one to one with the kinds."""
    kinds = list(kinds)
    flips = [False] * len(kinds) if flips is None else list(flips)
    if len(flips) != len(kinds):
        raise ValueError(f"{len(kinds)} kind(s) but {len(flips)} flip(s)")
    return tuple(TapeEntry(k, bool(f)) for k, f in zip(kinds, flips))


def negative_copy(tape: Tape, registry: TypeRegistry | None = None) -> Tape:
    """Replace every entry's kind by its complement partner; flips survive."""
    reg = registry or _DEFAULT_REGISTRY
    return tuple(TapeEntry(reg.partner(e.kind), e.flipped) for e in tape)


def flip_end_over_end(tape: Tape) -> Tape:
    """The tape as seen entering the machine from the wrong end."""
    return tuple(TapeEntry(e.kind, not e.flipped) for e in reversed(tape))


def tape_to_json_dict(tape: Tape) -> dict:
    return {"entries": [{"kind": e.kind, "flipped": e.flipped} for e in tape]}


def tape_from_json_dict(raw: dict) -> Tape:
    """A tape from `{"entries": [{"kind": str, "flipped": bool}, ...]}`.

    Raises ValueError when the document has another shape, including a
    `flipped` that is present but not a JSON boolean.
    """
    entries = raw.get("entries") if isinstance(raw, dict) else None
    if not isinstance(entries, list):
        raise ValueError('a tape must be a JSON object with an "entries" list')
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and isinstance(e.get("kind"), str)):
            raise ValueError(f'tape entry {i} must be an object with a string "kind"')
        if not isinstance(e.get("flipped", False), bool):
            raise ValueError(f'tape entry {i} has a "flipped" that is not true or false')
    return tuple(TapeEntry(e["kind"], e.get("flipped", False)) for e in entries)


_DEFAULT_REGISTRY = TypeRegistry.default()


def default_registry() -> TypeRegistry:
    return _DEFAULT_REGISTRY

"""Machine description language: tokens, chains, lenient and strict parsing.

A token is one kind character plus up to two parameter characters; the
canonical form is always three characters, underscore padded ("b__",
"M1x"). Corpus text is messier: tokens appear space separated, underscore
separated, juxtaposed ("M24b"), or wrapped across lines mid-chain. The
lenient scanner accepts all of that. Strict mode insists on canonical
3-character packing and is meant for machine-written files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

KIND_CHARS = "bdSGMHhRLZ12"
PARAM_CHARS = "0123456789x_"
# '_' between tokens is a separator; inside a token it is padding.
SEPARATOR_CHARS = " \t\r\n_"
FACE_DIGITS = "012345"
DEFAULT_DELAY = 10

# One lexeme: a comment, a run of separators, a kind with up to two
# parameters, or (group 3) the foreign character that ends the scan.
_SEPS, _KINDS, _PARAMS = map(re.escape, (SEPARATOR_CHARS, KIND_CHARS, PARAM_CHARS))
_LEXEME = re.compile(
    f"#[^\\n]*|[{_SEPS}]+|([{_KINDS}])([{_PARAMS}]{{0,2}})|(.)", re.DOTALL
)


class MdlError(ValueError):
    """Base class for chain-text problems."""


class UnknownKindError(MdlError):
    def __init__(self, position: int, char: str):
        super().__init__(f"unknown kind {char!r} at position {position}")
        self.position = position
        self.char = char


class TruncatedTokenError(MdlError):
    def __init__(self, position: int):
        super().__init__(f"token truncated at position {position}")
        self.position = position


def _params_ok(params: str) -> bool:
    return len(params) == 2 and params[0] in PARAM_CHARS and params[1] in PARAM_CHARS


@dataclass(frozen=True)
class Token:
    kind: str
    params: str = "__"
    offset: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if len(self.kind) != 1 or self.kind not in KIND_CHARS:
            raise UnknownKindError(self.offset, self.kind)
        if not _params_ok(self.params):
            raise MdlError(f"bad params {self.params!r} for kind {self.kind!r}")

    # A token's fields, read here and nowhere else: the face digit 0-5 of a
    # mover or gluer (None if it has none), a mover's phase digit (None if
    # the phase is drawn) and a dissolvable's delay digit.
    @property
    def face(self) -> int | None:
        c = self.params[0]
        return int(c) if self.kind in "MG" and c in FACE_DIGITS else None

    @property
    def phase(self) -> int | None:
        c = self.params[1]
        return int(c) if self.kind == "M" and c.isdigit() else None

    @property
    def delay(self) -> int | None:
        if self.kind != "d":
            return None
        c = self.params[0]
        return int(c) if c.isdigit() else DEFAULT_DELAY

    @property
    def canonical(self) -> str:
        return self.kind + self.params

    def __str__(self) -> str:
        return self.canonical


Chain = tuple[Token, ...]


def parse_mdl(text: str, strict: bool = False) -> Chain:
    """Scan MDL text into a Chain.

    Lenient rules: a token starts at any kind character; up to two
    following parameter characters are consumed greedily (kind letters are
    never parameters, but digits always are, so "G2 H" is G2_ then H__ and
    "M24b" is M24 then b__); whitespace and stray underscores between
    tokens are skipped; '#' comments run to end of line. Parameters never
    cross whitespace, so line wraps split tokens correctly.

    Strict mode requires every token to be exactly kind + 2 parameter
    characters; separators and comments are still allowed between tokens.
    """
    tokens: list[Token] = []
    for m in _LEXEME.finditer(text):
        kind, params, foreign = m.groups()
        if kind:
            if strict and len(params) < 2:
                raise TruncatedTokenError(m.start())
            tokens.append(Token(kind, params.ljust(2, "_"), m.start()))
        elif foreign:
            raise UnknownKindError(m.start(), foreign)
    return tuple(tokens)


def write_canonical(chain: Chain) -> str:
    return "".join(t.canonical for t in chain)


@dataclass(frozen=True)
class AlphabetProfile:
    """A declared token alphabet; 'x' in an entry's parameters is a wildcard."""

    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        for e in self.entries:
            if not (len(e) == 3 and e[0] in KIND_CHARS and _params_ok(e[1:])):
                raise MdlError(f"bad profile entry {e!r}")

    @property
    def size(self) -> int:
        return len(self.entries)

    def matches(self, token: Token) -> bool:
        for entry in self.entries:
            if entry[0] != token.kind:
                continue
            if all(e == "x" or e == p for e, p in zip(entry[1:], token.params)):
                return True
        return False


SIX_TYPE_PROFILE = AlphabetProfile(("G0_", "H__", "L__", "R__", "b__", "M1x"))


@dataclass(frozen=True)
class Diagnostic:
    code: str
    index: int
    message: str


def validate(chain: Chain, profile: AlphabetProfile | None = None) -> list[Diagnostic]:
    """Non-fatal lint over a parsed chain."""
    out: list[Diagnostic] = []
    if not chain:
        out.append(Diagnostic("empty-chain", -1, "chain has no tokens"))
    for i, t in enumerate(chain):
        if t.kind == "M" and (t.face is None or (t.phase is None and t.params[1] != "x")):
            out.append(
                Diagnostic(
                    "mover-params",
                    i,
                    f"mover {t.canonical} needs a face digit 0-5 and a "
                    "phase digit or 'x'",
                )
            )
        elif t.kind == "G" and t.face is None:
            out.append(
                Diagnostic("gluer-params", i, f"gluer {t.canonical} needs a face digit 0-5")
            )
        if profile is not None and not profile.matches(t):
            out.append(
                Diagnostic(
                    "outside-profile", i, f"{t.canonical} not in declared alphabet"
                )
            )
    return out

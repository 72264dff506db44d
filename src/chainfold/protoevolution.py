"""Random block-stream trials for the five-block self-copier.

A trial pushes k i.i.d. uniform blocks through the mover-gluer line and
asks whether they spell Mover, Hinge, block, block, Gluer in order (plus
a trailing dissolvable when a separator is required). The analytic rate
is (1/|A|)^k, and the Monte Carlo estimate must sit within sampling error
of it. Counting runs through the array kernels so large trial counts
stay cheap. numpy loads in the functions that draw, so a rejected
experiment never pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import KindOutsideProfileError
from .mdl import SIX_TYPE_PROFILE, AlphabetProfile, Chain, Token

if TYPE_CHECKING:
    import numpy as np

TARGET_KINDS = "MHbbG"
SEPARATOR_KIND = "d"
JACOBSON_LIMIT_BITS = 200

# filler kinds for enlarged alphabets; none can shadow the target kinds
_FILLER_KINDS = "SZ12"


def build_alphabet(size: int = 6, include_separator: bool = False) -> tuple[str, ...]:
    """The six working types, optionally a separator, padded with inert
    filler types up to `size`. Fillers never reuse the target kinds, so
    kind-level detection keeps exactly one way to spell the replicator.
    """
    base = list(SIX_TYPE_PROFILE.entries)
    if include_separator:
        base.append(SEPARATOR_KIND + "0_")
    if size < len(base):
        raise ValueError(f"alphabet needs at least {len(base)} entries, got {size}")
    # a filler is its kind letter, one index digit and "_"
    most = len(base) + 10 * len(_FILLER_KINDS)
    if size > most:
        raise ValueError(
            f"alphabet of {size} entries needs fillers longer than 3 characters; "
            f"at most {most} fit"
        )
    i = 0
    while len(base) < size:
        base.append(_FILLER_KINDS[i % len(_FILLER_KINDS)] + str(i // len(_FILLER_KINDS)) + "_")
        i += 1
    return tuple(base)


@dataclass(frozen=True)
class StreamExperiment:
    alphabet: tuple[str, ...] = tuple(SIX_TYPE_PROFILE.entries)
    require_separator: bool = False
    trials: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        if self.require_separator and not any(
            e[0] == SEPARATOR_KIND for e in self.alphabet
        ):
            raise ValueError("separator trials need a dissolvable in the alphabet")

    @property
    def target(self) -> str:
        """The kinds a self-copy spells, in stream order."""
        return TARGET_KINDS + (SEPARATOR_KIND if self.require_separator else "")

    @property
    def target_length(self) -> int:
        return len(self.target)

    def target_indices(self) -> np.ndarray:
        """Alphabet index each stream position must hit for a self-copy."""
        import numpy as np

        out = []
        for kind in self.target:
            matches = [i for i, e in enumerate(self.alphabet) if e[0] == kind]
            if len(matches) != 1:
                raise ValueError(
                    f"kind {kind!r} must appear exactly once in the alphabet"
                )
            out.append(matches[0])
        return np.array(out, dtype=np.uint8)


@dataclass(frozen=True)
class TrialResult:
    self_copy: bool
    blob: Chain


def mhbbg_trial(
    exp: StreamExperiment,
    rng: np.random.Generator | None = None,
    forced_stream=None,
) -> TrialResult:
    """One glued blob; forced_stream (kind chars or tokens) overrides the draw."""
    k = exp.target_length
    if forced_stream is not None:
        tokens = tuple(
            Token(s[0], s[1:].ljust(2, "_") if len(s) > 1 else "__")
            for s in forced_stream
        )
    else:
        import numpy as np

        rng = rng if rng is not None else np.random.default_rng(exp.seed)
        idx = rng.integers(0, len(exp.alphabet), size=k)
        tokens = tuple(
            Token(exp.alphabet[i][0], exp.alphabet[i][1:]) for i in idx
        )
    got = "".join(t.kind for t in tokens[:k])
    copied = len(tokens) >= k and got == exp.target
    return TrialResult(self_copy=copied, blob=tokens)


def analytic_self_copy_probability(alphabet_size: int, stream_length: int = 5) -> Fraction:
    if alphabet_size <= 0:
        raise ValueError("alphabet size must be positive")
    return Fraction(1, alphabet_size**stream_length)


@dataclass(frozen=True)
class ProbabilityReport:
    analytic: Fraction
    monte_carlo: float
    stderr: float
    hits: int
    trials: int
    warning: str | None


_CHUNK_TRIALS = 1_000_000


def mhbbg_probability(exp: StreamExperiment) -> ProbabilityReport:
    """Monte Carlo self-copy frequency next to the closed form.

    Draws come in fixed-size chunks from one seeded generator, so the
    count is a pure function of the seed. No name holds a chunk while
    the next is drawn, so one chunk of m x k bytes is live at a time.
    """
    import numpy as np

    from . import kernels

    k = exp.target_length
    target = exp.target_indices()
    analytic = analytic_self_copy_probability(len(exp.alphabet), k)
    rng = np.random.default_rng(exp.seed)
    hits = 0
    remaining = exp.trials
    while remaining > 0:
        m = min(remaining, _CHUNK_TRIALS)
        hits += kernels.count_matches(
            rng.integers(0, len(exp.alphabet), size=(m, k), dtype=np.uint8), target
        )
        remaining -= m
    p = float(analytic)
    stderr = math.sqrt(p * (1.0 - p) / exp.trials)
    expected_hits = p * exp.trials
    warning = None
    if expected_hits < 100:
        warning = (
            f"expected only {expected_hits:.1f} hits across {exp.trials} trials; "
            "the estimate is noisy"
        )
    return ProbabilityReport(
        analytic=analytic,
        monte_carlo=hits / exp.trials,
        stderr=stderr,
        hits=hits,
        trials=exp.trials,
        warning=warning,
    )


@dataclass(frozen=True)
class InfoContent:
    bits: int
    feasible: bool


def info_content(chain: Chain, profile: AlphabetProfile = SIX_TYPE_PROFILE) -> InfoContent:
    """Bits to spell the chain over the profile, with the viability flag.

    Simple encoding: ceil(log2(alphabet size)) bits per block.
    """
    for t in chain:
        if not profile.matches(t):
            raise KindOutsideProfileError(t)
    bits = math.ceil(math.log2(profile.size)) * len(chain) if len(chain) else 0
    return InfoContent(bits=bits, feasible=bits <= JACOBSON_LIMIT_BITS)

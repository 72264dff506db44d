"""`pcg64.Pcg64` against the installed numpy: the same bytes from each
`integers` call, and the bit generator left in the same state after it;
and `pcg64.Draws` fed numpy's own raw words, as `evolve` and the copier's
`run_copy` feed it: the same `integers` bytes, and the same pieces."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfold.copier import FEED_CHUNK
from chainfold.pcg64 import _PIECE, Draws, Pcg64


def _state(stream: Pcg64) -> dict:
    """`stream` in the layout of numpy's `bit_generator.state`."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": stream.state, "inc": stream.inc},
        "has_uint32": stream.has_uint32,
        "uinteger": stream.uinteger,
    }


# the copier draws kinds with k = 6 (the default registry) and cases with
# k = 4; `integers` takes any k from 1 to 256, and 1 and 256 are the edges
_k = st.sampled_from([6, 4, 6, 4, 1, 2, 3, 7, 64, 256])
_calls = st.lists(st.tuples(_k, st.sampled_from([1, 7, FEED_CHUNK, 0, 3])), min_size=1, max_size=4)


def _numpy_words(seed: int) -> Draws:
    return Draws(np.random.PCG64(seed).random_raw)


# `Pcg64` makes its own words, and its state is numpy's to the field;
# `Draws` over numpy's words has only the 32-bit buffer of a state
@pytest.mark.parametrize("source", [Pcg64, _numpy_words], ids=["pcg64", "random_raw"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**256), calls=_calls)
@example(seed=0, calls=[(6, FEED_CHUNK), (4, FEED_CHUNK)])
@example(seed=2**32 + 5, calls=[(6, 7), (4, 1), (4, 7), (6, 1)])
@example(seed=2**128 - 1, calls=[(6, 1), (256, FEED_CHUNK)])
@example(seed=11, calls=[(1, 7), (6, 3), (1, FEED_CHUNK), (4, 5)])
def test_integers_and_state_match_numpy(source, seed, calls):
    rng = np.random.default_rng(seed)
    stream = source(seed)
    if source is Pcg64:
        assert _state(stream) == rng.bit_generator.state
    for k, size in calls:
        want = rng.integers(0, k, size=size, dtype=np.uint8).tobytes()
        assert stream.integers(k, size) == want, (k, size)
        if source is Pcg64:
            assert _state(stream) == rng.bit_generator.state, (k, size)


# sizes past one piece of 32-bit draws, up to the odd one out on either side
_edges = [1, 3, 5, 4 * _PIECE - 1, 4 * _PIECE + 1, 9 * _PIECE + 2]
_sizes = st.sampled_from(_edges) | st.integers(1, 9 * _PIECE)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    calls=st.lists(st.tuples(st.integers(2, 256), _sizes), min_size=1, max_size=4),
)
@example(seed=7, calls=[(6, 5_000_000), (7, 3), (46, 4 * _PIECE + 1)])
def test_draws_turn_numpys_raw_words_into_its_integers(seed, calls):
    rng = np.random.default_rng(seed)
    draws = _numpy_words(seed)
    for k, size in calls:
        pieces = list(draws.uint8_pieces(k, size))
        assert all(len(p) <= 4 * _PIECE for p in pieces)
        assert b"".join(pieces) == rng.integers(0, k, size=size, dtype=np.uint8).tobytes()
        state = rng.bit_generator.state
        assert (draws.has_uint32, draws.uinteger) == (state["has_uint32"], state["uinteger"])


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must not be negative, got -3"):
        Pcg64(-3)

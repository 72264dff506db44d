"""`pcg64.Pcg64`, and `pcg64.Draws` fed numpy's own raw words as `evolve`
and the copier's `run_copy` feed it, against the installed numpy: the
same bytes from each `integers` call and from its pieces, and the bit
generator left in the same state after it."""

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
# k = 4, and evolve draws |A| = 6 to 47; `integers` takes any k from 2 to
# 256, and 2 and 256 are the edges
_k = st.sampled_from([6, 4, 47, 2, 256]) | st.integers(2, 256)
# sizes past one piece of 32-bit draws, up to the odd one out on either side
_edges = [0, 1, 3, 5, 7, FEED_CHUNK, 4 * _PIECE - 1, 4 * _PIECE + 1, 9 * _PIECE + 2]
_sizes = st.sampled_from(_edges) | st.integers(1, 9 * _PIECE)
# each call is drawn through `integers`, or else piece by piece
_calls = st.lists(st.tuples(_k, _sizes, st.booleans()), min_size=1, max_size=4)


def _numpy_words(seed: int) -> Draws:
    return Draws(np.random.PCG64(seed).random_raw)


# `Pcg64` makes its own words, and its state is numpy's to the field;
# `Draws` over numpy's words has only the 32-bit buffer of a state
@pytest.mark.parametrize("source", [Pcg64, _numpy_words], ids=["pcg64", "random_raw"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**256), calls=_calls)
@example(seed=0, calls=[(6, FEED_CHUNK, True), (4, FEED_CHUNK, True)])
@example(seed=2**32 + 5, calls=[(6, 7, True), (4, 1, False), (4, 7, True), (6, 1, True)])
@example(seed=2**128 - 1, calls=[(6, 1, True), (256, FEED_CHUNK, False)])
@example(seed=7, calls=[(6, 5_000_000, False), (7, 3, True), (46, 4 * _PIECE + 1, False)])
def test_integers_pieces_and_state_match_numpy(source, seed, calls):
    rng = np.random.default_rng(seed)
    stream = source(seed)
    if source is Pcg64:
        assert _state(stream) == rng.bit_generator.state
    for k, size, whole in calls:
        if whole:
            out = stream.integers(k, size)
        else:
            pieces = list(stream.uint8_pieces(k, size))
            assert all(len(p) <= 4 * _PIECE for p in pieces)
            out = b"".join(pieces)
        assert out == rng.integers(0, k, size=size, dtype=np.uint8).tobytes(), (k, size)
        state = rng.bit_generator.state
        if source is Pcg64:
            assert _state(stream) == state, (k, size)
        else:
            assert (stream.has_uint32, stream.uinteger) == (state["has_uint32"], state["uinteger"])


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must not be negative, got -3"):
        Pcg64(-3)

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainfold.mdl import SIX_TYPE_PROFILE, AlphabetProfile, parse_mdl
from chainfold.pcg64 import _PIECE
from chainfold.protoevolution import (
    _CHUNK_TRIALS,
    JACOBSON_LIMIT_BITS,
    KindOutsideProfileError,
    StreamExperiment,
    analytic_self_copy_probability,
    build_alphabet,
    info_content,
    mhbbg_probability,
    mhbbg_trial,
)


def test_forced_stream_self_copies():
    exp = StreamExperiment()
    r = mhbbg_trial(exp, forced_stream=["M1x", "H", "b", "b", "G0"])
    assert r.self_copy
    assert len(r.blob) == 5


@pytest.mark.parametrize(
    "stream",
    [
        ["H", "M", "b", "b", "G"],  # first two swapped
        ["M", "H", "b", "G", "b"],
        ["M", "H", "b", "b", "b"],
        ["b", "b", "b", "b", "b"],
    ],
)
def test_forced_stream_near_misses(stream):
    assert not mhbbg_trial(StreamExperiment(), forced_stream=stream).self_copy


def test_separator_needs_trailing_dissolvable():
    exp = StreamExperiment(
        alphabet=build_alphabet(7, include_separator=True), require_separator=True
    )
    assert (exp.target, exp.target_length) == ("MHbbGd", 6)
    assert (StreamExperiment().target, StreamExperiment().target_length) == ("MHbbG", 5)
    good = mhbbg_trial(exp, forced_stream=["M", "H", "b", "b", "G", "d"])
    bad = mhbbg_trial(exp, forced_stream=["M", "H", "b", "b", "G", "b"])
    assert good.self_copy
    assert not bad.self_copy


def test_separator_requires_dissolvable_in_alphabet():
    with pytest.raises(ValueError):
        StreamExperiment(require_separator=True)


def test_build_alphabet_fillers_never_shadow_targets():
    for size in (6, 7, 10, 16, 30):
        alphabet = build_alphabet(size)
        assert len(alphabet) == size
        assert len(set(alphabet)) == size
        extra = alphabet[6:]
        assert all(e[0] not in "MHbGd" for e in extra)
    with pytest.raises(ValueError):
        build_alphabet(5)


def test_build_alphabet_stops_before_four_character_fillers():
    # fillers S0_ .. 29_ take one index digit; the 41st would be S10_
    assert build_alphabet(46)[-1] == "29_"
    assert build_alphabet(47, include_separator=True)[-1] == "29_"
    for size, separator in ((47, False), (48, True)):
        with pytest.raises(ValueError, match="3 characters"):
            build_alphabet(size, include_separator=separator)


def test_analytic_values():
    assert analytic_self_copy_probability(6) == Fraction(1, 7776)
    assert analytic_self_copy_probability(1) == Fraction(1)
    sixteen = analytic_self_copy_probability(16)
    assert sixteen == Fraction(1, 16**5)
    assert 9.53e-7 < float(sixteen) < 9.55e-7


def test_analytic_decreases_with_alphabet_size():
    values = [analytic_self_copy_probability(n) for n in range(6, 17)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_monte_carlo_within_three_sigma_of_analytic():
    exp = StreamExperiment(trials=1_000_000, seed=42)
    report = mhbbg_probability(exp)
    assert report.analytic == Fraction(1, 7776)
    sigma = report.stderr
    assert abs(report.monte_carlo - float(report.analytic)) <= 3 * sigma
    assert report.warning is None
    assert report.hits == round(report.monte_carlo * report.trials)


def test_evolve_holds_one_piece_at_a_time():
    exp = StreamExperiment(trials=3 * _CHUNK_TRIALS, seed=1)
    piece_bytes = 4 * _PIECE  # the 32-bit draws of one piece
    mhbbg_probability(StreamExperiment(trials=10, seed=1))  # imports outside the trace
    tracemalloc.start()
    try:
        report = mhbbg_probability(exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a piece's raw words, their bytes and draws, and a row buffer; a whole
    # chunk's m x k bytes would be 5 MB
    assert peak < 4 * piece_bytes
    # a count that moves means the draws moved, whatever the kernel
    assert report.hits == 381


# trial counts at the stream's edges: one row, a chunk and a trial either
# side, two chunks, and the rows around one and two pieces' worth of draws
# at k = 5 and 6
_EDGE_TRIALS = [1, 2, 3, _CHUNK_TRIALS - 1, _CHUNK_TRIALS + 1, 2 * _CHUNK_TRIALS] + [
    pieces * 4 * _PIECE // k + d for pieces in (1, 2) for k in (5, 6) for d in (-1, 0, 1)
]


@settings(max_examples=40, deadline=None)
@given(
    # hits are rare past a few types, so the smallest alphabets come up often
    size=st.sampled_from([6, 7]) | st.integers(6, 46),
    separator=st.booleans(),
    trials=st.sampled_from(_EDGE_TRIALS) | st.integers(1, 3 * _PIECE),
    seed=st.integers(0, 2**128),
)
# the first chunk ends mid-64-bit word and mid-32-bit word, so the second
# chunk's hits move if either the kept half or the dropped bytes slip
@example(size=6, separator=False, trials=2 * _CHUNK_TRIALS, seed=0)
@example(size=7, separator=True, trials=2 * _CHUNK_TRIALS, seed=2)
@example(size=6, separator=False, trials=_CHUNK_TRIALS + 1, seed=2**128)
@example(size=46, separator=True, trials=2 * _CHUNK_TRIALS + 3, seed=5)
def test_hits_match_numpys_integers(integers_hits, size, separator, trials, seed):
    assume(size > 6 or not separator)  # a separator needs a seventh entry
    exp = StreamExperiment(
        alphabet=build_alphabet(size, include_separator=separator),
        require_separator=separator,
        trials=trials,
        seed=seed,
    )
    assert mhbbg_probability(exp).hits == integers_hits(exp)


def test_separator_count_is_pinned():
    # six target columns: one 4-byte word, then two tail columns, over two chunks
    exp = StreamExperiment(
        alphabet=build_alphabet(7, include_separator=True),
        require_separator=True,
        trials=2_000_000,
        seed=3,
    )
    assert mhbbg_probability(exp).hits == 12


def test_low_trial_count_warns():
    report = mhbbg_probability(StreamExperiment(trials=1000, seed=0))
    assert report.warning is not None
    assert "noisy" in report.warning


def test_sixteen_type_alphabet_keeps_single_spelling():
    exp = StreamExperiment(alphabet=build_alphabet(16), trials=200_000, seed=3)
    report = mhbbg_probability(exp)
    assert report.analytic == Fraction(1, 16**5)
    # hits are rare here; only sanity-bound the estimate
    assert report.monte_carlo <= 5 * float(report.analytic) + 5 / exp.trials


def test_same_seed_reproduces_hits():
    a = mhbbg_probability(StreamExperiment(trials=300_000, seed=11))
    b = mhbbg_probability(StreamExperiment(trials=300_000, seed=11))
    assert a.hits == b.hits
    assert a.monte_carlo == b.monte_carlo


def test_seed_spread_is_binomial_sized():
    trials = 200_000
    hits = [
        mhbbg_probability(StreamExperiment(trials=trials, seed=s)).hits
        for s in range(10)
    ]
    p = 1 / 7776
    expected_sd = math.sqrt(trials * p * (1 - p))
    sample_sd = np.std(hits, ddof=1)
    assert 0.3 * expected_sd < sample_sd < 3.0 * expected_sd


def test_trial_rng_reproducible():
    exp = StreamExperiment(seed=0)
    r1 = mhbbg_trial(exp, rng=np.random.default_rng(99))
    r2 = mhbbg_trial(exp, rng=np.random.default_rng(99))
    assert r1.blob == r2.blob
    assert r1.self_copy == r2.self_copy


def test_self_copy_reads_kind_letters_not_spellings():
    exp = StreamExperiment()
    loose = mhbbg_trial(exp, forced_stream=["M9x", "H", "b", "b", "G0"])
    exact = mhbbg_trial(exp, forced_stream=["M1x", "H__", "b__", "b__", "G0_"])
    assert loose.self_copy and exact.self_copy
    assert loose.blob != exact.blob


@given(st.integers(min_value=6, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_trial_blob_drawn_from_alphabet(size, seed):
    exp = StreamExperiment(alphabet=build_alphabet(size))
    r = mhbbg_trial(exp, rng=np.random.default_rng(seed))
    assert len(r.blob) == 5
    assert all(t.canonical in exp.alphabet for t in r.blob)


def test_info_content_feasibility_boundary():
    # 3 bits per block over the six working types
    for n, bits, ok in ((33, 99, True), (40, 120, True), (66, 198, True), (67, 201, False)):
        chain = parse_mdl("b_" * n)
        ic = info_content(chain)
        assert ic.bits == bits
        assert ic.feasible is ok
    assert JACOBSON_LIMIT_BITS == 200


def test_info_content_rejects_foreign_kinds():
    with pytest.raises(KindOutsideProfileError):
        info_content(parse_mdl("b_Z_b_"))


def test_info_content_wider_profile_costs_more_bits():
    chain = parse_mdl("b_" * 10)
    wide = AlphabetProfile(build_alphabet(16))
    assert info_content(chain, SIX_TYPE_PROFILE).bits == 30
    assert info_content(chain, wide).bits == 40


def test_info_content_empty_chain():
    ic = info_content(parse_mdl(""))
    assert ic.bits == 0
    assert ic.feasible

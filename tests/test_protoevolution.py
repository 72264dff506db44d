import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold.mdl import SIX_TYPE_PROFILE, AlphabetProfile, parse_mdl
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


def test_evolve_holds_one_chunk_at_a_time():
    exp = StreamExperiment(trials=3 * _CHUNK_TRIALS, seed=1)
    chunk_bytes = _CHUNK_TRIALS * exp.target_length  # one uint8 per draw
    mhbbg_probability(StreamExperiment(trials=10, seed=1))  # imports outside the trace
    tracemalloc.start()
    try:
        report = mhbbg_probability(exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * chunk_bytes
    # a count that moves means the draws moved, whatever the kernel
    assert report.hits == 381


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

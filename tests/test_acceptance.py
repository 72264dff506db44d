"""The thirteen release criteria, one test each.

Every test prints a single `criterion NN PASS` line with the measured
numbers, so the whole gate reads off a `pytest -v -s` run. Timing limits
live inside the tests that carry one; nothing here relaxes a tolerance.
"""

import json
import math
import random
import time

import pytest

from fig6_reference import RefCollision, ref_fold
from chainfold import cli
from chainfold.copier import (
    CopierState,
    PresentationCase,
    Sparing,
    SubunitProfile,
    copy_twice,
    run_copy,
    step,
    stickout,
)
from chainfold.corpus import corpus_stats, fixtures_dir, load_fixture, load_manifest
from chainfold.encoding import (
    FitResult,
    TapeEntry,
    codon_count,
    default_registry,
    fit,
    negative_copy,
    tape_from_kinds,
)
from chainfold.folding import (
    CollisionError,
    bend_axis,
    fold,
    swap_lr,
)
from chainfold.geometry import MIRROR_Z, TOKEN_ROTATIONS, apply, compose
from chainfold.kinematics import run_scenario
from chainfold.mdl import parse_mdl
from chainfold.protoevolution import (
    StreamExperiment,
    build_alphabet,
    info_content,
    mhbbg_probability,
)

L_SHAPE = {0: (3, 1, 0), 1: (3, 0, 0), 2: (2, 0, 0), 3: (1, 0, 0), 4: (0, 0, 0)}
LOOP9 = "b_H_b_H_b_H_b_H_b_"


def _chain(kinds: str):
    return parse_mdl("".join(k + "_" for k in kinds))


def _mirrored(cells: dict, mirror) -> dict:
    m = {i: apply(mirror, c) for i, c in cells.items()}
    mn = tuple(min(c[k] for c in m.values()) for k in range(3))
    return {i: (c[0] - mn[0], c[1] - mn[1], c[2] - mn[2]) for i, c in m.items()}


def test_01_builder_compression():
    t0 = time.perf_counter()
    chain = load_fixture("fig11a").chain
    assert len(chain) == 27
    stats = corpus_stats()
    assert stats["builder_ratio"] == pytest.approx(140 / 27)
    assert stats["builder_ratio"] >= 5.0
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 01 PASS: fig11a 27 tokens, ratio {stats['builder_ratio']:.3f}, {dt:.2f}s")


def test_02_codon_combinatorics():
    counts = (codon_count(2), codon_count(4), codon_count(6))
    assert counts == (2, 6, 20)
    print(f"criterion 02 PASS: codon counts {counts}")


def test_03_folding_oracle():
    assert fold("b_H_b_b_b_").cells_by_index() == L_SHAPE
    assert ref_fold("bHbbb") == L_SHAPE
    with pytest.raises(CollisionError) as exc:
        fold(LOOP9)
    assert exc.value.chain_index == 8
    assert exc.value.occupied_by == 0
    with pytest.raises(RefCollision) as ref_exc:
        ref_fold("bHbHbHbHb")
    assert ref_exc.value.chain_index == 8
    print("criterion 03 PASS: L-shape exact, loop collides at index 8, reference agrees")


def test_04_mirror_invariance():
    t0 = time.perf_counter()
    rng = random.Random(404)
    pool = "bbbHhLRZ"
    checked = 0
    while checked < 1000:
        kinds = "".join(rng.choice(pool) for _ in range(rng.randint(1, 50)))
        chain = _chain(kinds)
        try:
            plain = fold(chain)
        except CollisionError:
            continue
        swapped = fold(swap_lr(chain))
        assert swapped.cells_by_index() == _mirrored(plain.cells_by_index(), MIRROR_Z)
        checked += 1

    fa = load_fixture("fig7a").chain
    fb = load_fixture("fig7b").chain
    assert fold(swap_lr(fa)).cells_by_index() == fold(fb).cells_by_index()
    assert _mirrored(fold(fa).cells_by_index(), MIRROR_Z) == fold(fb).cells_by_index()
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 04 PASS: 1000 chains mirror cell-for-cell, fig7a/7b exact, {dt:.2f}s")


def test_05_rotation_identities():
    L = TOKEN_ROTATIONS["L"]
    assert TOKEN_ROTATIONS["Z"] == compose(L, L)
    assert TOKEN_ROTATIONS["R"] == compose(L, compose(L, L))
    a = bend_axis(fold("b_b_h_b_b_"), 2)
    b = bend_axis(fold("b_b_H_Z_b_b_"), 2)
    assert a == b == (0, -1, 0)
    print("criterion 05 PASS: Z == L*L, R == L*L*L, anti-hinge bend equals H+Z bend")


def test_06_copier_correctness():
    t0 = time.perf_counter()
    rng = random.Random(66)
    reg = default_registry()
    for i in range(500):
        n = rng.randint(1, 32)
        kinds = [rng.choice(reg.kinds) for _ in range(n)]
        flips = [rng.random() < 0.5 for _ in range(n)]
        tape = tape_from_kinds(kinds, flips)
        run = run_copy(tape, seed=i)
        assert run.mutations == ()
        assert run.output == negative_copy(tape)
        assert copy_twice(tape, seed=i) == tape
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"criterion 06 PASS: 500 tapes negative-exact, zero mutations, {dt:.2f}s")


def test_07_mutation_confinement():
    import numpy as np

    profile = SubunitProfile(sparing=Sparing.BOTH_SIDES)
    reg = default_registry()
    rng = np.random.default_rng(77)
    n = 100_000
    slot_k = rng.integers(0, 6, size=n)
    slot_f = rng.integers(0, 2, size=n)
    cand_k = rng.integers(0, 6, size=n)
    cases = rng.integers(0, 4, size=n)
    allowed = ({"a", "f"}, {"b", "e"})
    reversed_seen = 0
    for i in range(n):
        sk = reg.kinds[slot_k[i]]
        tape = tape_from_kinds([sk], [bool(slot_f[i])])
        state = CopierState(tape=tape, profile=profile, registry=reg)
        out = step(state, reg.kinds[cand_k[i]], PresentationCase(int(cases[i])))
        if out.mutation:
            reversed_seen += 1
            pair = {reg.role(out.candidate_kind), reg.role(reg.partner(sk))}
            assert pair in allowed
            assert pair != {"c", "d"}
    assert reversed_seen > 0
    print(f"criterion 07 PASS: {reversed_seen} reversed fits in 1e5 cycles, all within (a,f)/(b,e)")


def test_08_stickout_table():
    reg = default_registry()
    seen = set()
    for sparing in Sparing:
        profile = SubunitProfile(sparing=sparing)
        for sk in reg.kinds:
            for sf in (False, True):
                slot = TapeEntry(sk, sf)
                for ck in reg.kinds:
                    for case in PresentationCase:
                        s = stickout(ck, case, slot, profile, reg)
                        seen.add(s)
                        if case is PresentationCase.ON_SIDE:
                            expect = 1
                        elif case is PresentationCase.OPPOSITE:
                            expect = 2
                        else:
                            r = fit(ck, case is PresentationCase.FLIPPED, sk, sf, reg)
                            if r is FitResult.EXACT:
                                expect = 0
                            elif r is FitResult.REVERSED:
                                expect = 0 if sparing is Sparing.BOTH_SIDES else 1
                            else:
                                expect = 2
                        assert s == expect
    assert seen == {0, 1, 2}
    print("criterion 08 PASS: 1152 combinations, stick-out always in {0,1,2} per case rules")


def test_09_mhbbg_statistics():
    t0 = time.perf_counter()
    rep = mhbbg_probability(StreamExperiment(trials=10_000_000, seed=2026))
    p = 1 / 7776
    sigma = math.sqrt(p * (1 - p) / rep.trials)
    assert abs(rep.monte_carlo - p) <= 3 * sigma
    assert rep.warning is None

    rep16 = mhbbg_probability(
        StreamExperiment(alphabet=build_alphabet(16), trials=1_000_000, seed=7)
    )
    assert f"{float(rep16.analytic):.2e}" == "9.54e-07"
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(
        f"criterion 09 PASS: MC {rep.monte_carlo:.3e} vs 1/7776 "
        f"(|dev| {abs(rep.monte_carlo - p) / sigma:.2f} sigma), 16-type analytic 9.54e-07, {dt:.2f}s"
    )


def test_10_information_content():
    small = info_content(parse_mdl("b_" * 33))
    assert small.bits == 99
    assert small.feasible
    larger = info_content(parse_mdl("b_" * 40))
    assert larger.bits == 120
    assert larger.feasible
    print("criterion 10 PASS: 33 blocks -> 99 bits, 40 blocks -> 120 bits, both under the cap")


def test_11_corpus_health():
    fixtures = load_manifest()
    known = set("bdSGMHhRLZ12")
    clean = 0
    uncurated = 0
    for f in fixtures.values():
        chain = f.chain
        assert {t.kind for t in chain} <= known
        if f.curated:
            assert f.note
            continue
        uncurated += 1
        try:
            fold(chain)
            clean += 1
        except CollisionError:
            pass
    frac = clean / uncurated
    assert frac >= 0.9
    genome = corpus_stats()["genome_estimate_codons"]
    assert 300 <= genome <= 1500
    print(
        f"criterion 11 PASS: {len(fixtures)} fixtures parse, "
        f"{clean}/{uncurated} uncurated fold clean, genome {genome} codons"
    )


def test_12_kinematics_properties():
    t0 = time.perf_counter()
    walker = run_scenario("walker", length=8).result
    t1 = time.perf_counter()
    assert walker["reached_end"]
    assert walker["stopped"]
    assert t1 - t0 < 10.0

    shuttle = run_scenario("shuttle", length=5)
    t2 = time.perf_counter()
    assert shuttle.period is not None
    assert shuttle.result["touched_left"]
    assert shuttle.result["touched_right"]
    assert t2 - t1 < 10.0

    retainer = run_scenario("retainer", length=6)
    t3 = time.perf_counter()
    end = retainer.result["track_end"]
    for rise, x in zip(retainer.result["rises"], retainer.result["positions"]):
        if x < end:
            assert rise == 0
    assert retainer.result["x_at_first_lift"] == end
    assert retainer.result["final_rise"] > 0
    assert t3 - t2 < 10.0
    print(
        f"criterion 12 PASS: walker parks at {walker['final_position']}, "
        f"shuttle period {shuttle.period}, retainer lifts only at x={end} "
        f"({t1 - t0:.2f}/{t2 - t1:.2f}/{t3 - t2:.2f}s)"
    )


def test_13_cli_determinism(capsys):
    commands = [
        ["corpus", "stats"],
        ["fold", str(fixtures_dir() / "fig4a.mdl"), "--format", "json"],
        ["copy", "--tape", str(fixtures_dir() / "tape8.json"), "--seed", "7"],
        ["evolve", "--trials", "200000", "--seed", "7"],
        ["scenario", "--name", "retainer", "--length", "5", "--seed", "3"],
    ]
    for argv in commands:
        assert cli.main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        json.loads(first)
    print(f"criterion 13 PASS: {len(commands)} commands byte-identical on rerun")

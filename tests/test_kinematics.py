import hashlib
import io
import json
import time

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import kinematics_reference as reference
from chainfold import kinematics
from chainfold.cli import DEFAULT_SEED
from chainfold.corpus import load_fixture, load_manifest
from chainfold.folding import CollisionError, fold
from chainfold.geometry import add, apply, bounding_box, rotation_group, sub
from chainfold.mdl import parse_mdl, validate
from chainfold.kinematics import (
    FACE_VECTORS,
    BlockInstance,
    SCENARIO_NAMES,
    FoldEvent,
    KinematicsError,
    UnknownScenarioError,
    World,
    _state_key,
    build_scenario,
    check_world,
    run_scenario,
    run_world,
    step_world,
    trace_to_json_dict,
    world_from_chain,
    write_trace,
)


def _world(blocks, bonds=()):
    return World(
        blocks={b.id: b for b in blocks},
        bonds=frozenset(frozenset(p) for p in bonds),
    )


def _mover(bid, cell, face, phase=0, anchored=False):
    return BlockInstance(
        id=bid, kind="M", cell=cell, face=face, mover_phase=phase,
        anchored=anchored,
    )


# --- single-tick semantics ------------------------------------------------


def test_empty_world_steps_to_empty_world():
    w = step_world(_world([]))
    assert w.blocks == {} and w.time == 1


def test_mover_pushes_loose_block_on_phase():
    w = _world([_mover(0, (0, 0, 0), face=0, phase=0),
                BlockInstance(id=1, kind="b", cell=(1, 0, 0))])
    w = step_world(w)
    assert w.blocks[1].cell == (2, 0, 0)
    assert w.blocks[0].cell == (0, 0, 0)  # pushing is reaction-free


def test_mover_waits_for_its_phase():
    w = _world([_mover(0, (0, 0, 0), face=0, phase=3),
                BlockInstance(id=1, kind="b", cell=(1, 0, 0))])
    for _ in range(3):
        w = step_world(w)
        assert w.blocks[1].cell == (1, 0, 0)
    w = step_world(w)
    assert w.blocks[1].cell == (2, 0, 0)


def test_mover_cannot_budge_anchored_group():
    w = _world([_mover(0, (0, 0, 0), face=0, phase=0),
                BlockInstance(id=1, kind="b", cell=(1, 0, 0), anchored=True)])
    w = step_world(w)
    assert w.blocks[1].cell == (1, 0, 0)


def test_blocked_push_is_a_noop():
    w = _world(
        [
            _mover(0, (0, 0, 0), face=0, phase=0),
            BlockInstance(id=1, kind="b", cell=(1, 0, 0)),
            BlockInstance(id=2, kind="b", cell=(2, 0, 0), anchored=True),
        ]
    )
    w = step_world(w)
    assert w.blocks[1].cell == (1, 0, 0)


def test_free_faced_mover_carries_its_own_group():
    w = _world(
        [_mover(0, (0, 0, 0), face=0, phase=0),
         BlockInstance(id=1, kind="b", cell=(-1, 0, 0))],
        bonds=[(0, 1)],
    )
    w = step_world(w)
    assert w.blocks[0].cell == (1, 0, 0)
    assert w.blocks[1].cell == (0, 0, 0)


def test_face_order_breaks_push_ties():
    # +x mover moves the block away before the anchored +z mover acts
    w = _world(
        [
            _mover(0, (0, 0, 0), face=0, phase=0),
            _mover(1, (1, 0, -1), face=4, phase=0, anchored=True),
            BlockInstance(id=2, kind="b", cell=(1, 0, 0)),
        ]
    )
    w = step_world(w)
    assert w.blocks[2].cell == (2, 0, 0)


def test_dissolvable_vanishes_on_schedule_and_releases_bonds():
    w = _world(
        [
            BlockInstance(id=0, kind="d", cell=(0, 0, 0), dissolve_due=2),
            BlockInstance(id=1, kind="b", cell=(1, 0, 0)),
        ],
        bonds=[(0, 1)],
    )
    w = step_world(step_world(w))
    assert 0 in w.blocks
    w = step_world(w)
    assert 0 not in w.blocks
    assert not w.bonds


def test_gluer_bonds_across_active_face():
    w = _world(
        [
            BlockInstance(id=0, kind="G", cell=(0, 0, 0), face=0),
            BlockInstance(id=1, kind="b", cell=(1, 0, 0)),
        ]
    )
    w = step_world(w)
    assert frozenset((0, 1)) in w.bonds


def test_a_tick_keeps_the_bond_set_object_unless_a_bond_changed():
    # run_scenario keeps every tick's bonds in its period keys
    held = _world(
        [
            BlockInstance(id=0, kind="d", cell=(0, 0, 0), dissolve_due=1),
            BlockInstance(id=1, kind="b", cell=(1, 0, 0)),
        ],
        bonds=[(0, 1)],
    )
    quiet = step_world(held)
    assert quiet.bonds is held.bonds
    assert step_world(quiet).bonds == frozenset()
    glued = step_world(
        _world(
            [
                BlockInstance(id=0, kind="G", cell=(0, 0, 0), face=0),
                BlockInstance(id=1, kind="b", cell=(1, 0, 0)),
            ]
        )
    )
    assert glued.bonds == {frozenset((0, 1))}
    assert step_world(glued).bonds is glued.bonds
    # one bond dissolves and another glues: same size, different set
    swapped = step_world(
        _world(
            [
                BlockInstance(id=0, kind="d", cell=(0, 0, 0), dissolve_due=0),
                BlockInstance(id=1, kind="b", cell=(1, 0, 0)),
                BlockInstance(id=2, kind="G", cell=(0, 0, 5), face=0),
                BlockInstance(id=3, kind="b", cell=(1, 0, 6)),
                _mover(4, (1, 0, 7), face=5, phase=0),
            ],
            bonds=[(0, 1)],
        )
    )
    assert swapped.bonds == {frozenset((2, 3))}


def test_block_pushed_into_gluer_face_bonds_same_tick():
    # the glue phase reads the cells as the move phase left them
    w = _world(
        [
            BlockInstance(id=0, kind="G", cell=(0, 0, 0), face=0),
            BlockInstance(id=1, kind="b", cell=(1, 0, 1)),
            _mover(2, (1, 0, 2), face=5, phase=0),
        ]
    )
    w = step_world(w)
    assert w.blocks[1].cell == (1, 0, 0)
    assert frozenset((0, 1)) in w.bonds


def test_later_mover_sees_cells_an_earlier_mover_changed():
    # the +x mover acts first; the +y mover then meets the filled cell
    w = _world(
        [
            _mover(0, (0, 0, 0), face=0, phase=0),
            BlockInstance(id=1, kind="b", cell=(1, 0, 0)),
            _mover(2, (2, -1, 0), face=2, phase=0, anchored=True),
        ]
    )
    w = step_world(w)
    assert w.blocks[1].cell == (2, 1, 0)
    # ... or the emptied one, and carries itself into it
    w = _world(
        [
            _mover(0, (0, 0, 0), face=0, phase=0),
            BlockInstance(id=1, kind="b", cell=(1, 0, 0)),
            _mover(2, (1, -1, 0), face=2, phase=0),
        ]
    )
    w = step_world(w)
    assert w.blocks[1].cell == (2, 0, 0)
    assert w.blocks[2].cell == (1, 0, 0)


def test_conservation_of_non_dissolvables():
    for name in ("walker", "retainer"):
        w, _ = build_scenario(name, length=8)
        ids = {i for i, b in w.blocks.items() if b.kind != "d"}
        final = run_world(w, 120)
        assert ids <= set(final.blocks)
        due = {
            i
            for i, b in w.blocks.items()
            if b.kind == "d" and b.dissolve_due < final.time
        }
        assert due and not due & set(final.blocks)


def test_bonded_blocks_stay_adjacent_through_run():
    w, _ = build_scenario("retainer", length=5)
    for _ in range(90):
        w = step_world(w)
        for pair in w.bonds:
            a, b = tuple(pair)
            d = [abs(x - y) for x, y in zip(w.blocks[a].cell, w.blocks[b].cell)]
            assert sorted(d) == [0, 0, 1]


# --- construction validation ----------------------------------------------


def test_mover_fields_rejected_on_plain_blocks():
    with pytest.raises(KinematicsError):
        BlockInstance(id=0, kind="b", cell=(0, 0, 0), face=0)
    for kind in "MG":
        with pytest.raises(KinematicsError, match="^M and G blocks, and only they, have a face$"):
            BlockInstance(id=0, kind=kind, cell=(0, 0, 0))


@pytest.mark.parametrize(
    "face, phase, message",
    [(6, 0, "face index 6"), (-1, 0, "face index -1"), (0, 10, "phase 10"), (0, -1, "phase -1")],
)
def test_mover_face_and_phase_out_of_range_rejected(face, phase, message):
    with pytest.raises(KinematicsError, match=f"^{message} out of range$"):
        _mover(0, (0, 0, 0), face, phase)


def test_absolute_face_refused_on_a_block_without_one():
    with pytest.raises(TypeError):
        BlockInstance(id=0, kind="b", cell=(0, 0, 0)).absolute_face()


def test_dissolve_due_rejected_on_non_dissolvables():
    with pytest.raises(KinematicsError):
        BlockInstance(id=0, kind="b", cell=(0, 0, 0), dissolve_due=5)


def test_world_rejects_shared_cells_and_bad_bonds():
    a = BlockInstance(id=0, kind="b", cell=(0, 0, 0))
    with pytest.raises(KinematicsError):
        _world([a, BlockInstance(id=1, kind="b", cell=(0, 0, 0))])
    far = BlockInstance(id=1, kind="b", cell=(5, 0, 0))
    with pytest.raises(KinematicsError):
        _world([a, far], bonds=[(0, 1)])
    with pytest.raises(KinematicsError, match="^bond 0-7 names a missing block$"):
        _world([a], bonds=[(0, 7)])
    # a bond is a frozenset of two ids: a tuple used to crash the first dissolve,
    # and one or three ids a bare unpacking ValueError
    blocks = {0: a, 1: BlockInstance(id=1, kind="b", cell=(1, 0, 0))}
    for bond in ((0, 1), frozenset({0}), frozenset({0, 1, 2})):
        with pytest.raises(KinematicsError, match=r"^bond .* is not a frozenset of two block ids"):
            World(blocks=blocks, bonds=frozenset({bond}))
    one = BlockInstance(id=1, kind="b", cell=(1, 0, 0))
    with pytest.raises(KinematicsError, match="^block 5 is filed under key 0$"):
        World(blocks={0: _mover(5, (0, 0, 0), face=0), 1: one}, bonds=frozenset())
    with pytest.raises(KinematicsError, match="^block 3 is filed under key 7$"):
        three = BlockInstance(id=3, kind="b", cell=(0, 0, 0))
        World(blocks={7: three, 3: three._replace(cell=(1, 0, 0))}, bonds=frozenset())
    stiff = BlockInstance(id=1, kind="b", cell=(1, 0, 0), chain_index=1)
    with pytest.raises(KinematicsError, match="^fold at chain index 1 names a b block$"):
        World(blocks={0: a, 1: stiff}, bonds=frozenset(), pending_folds=(FoldEvent(1, 0),))
    # a fold that names no block stays legal: the tick skips it
    World(blocks={0: a, 1: stiff}, bonds=frozenset(), pending_folds=(FoldEvent(2, 0),))


def test_face_vectors_are_axis_unit_pairs():
    assert len(set(FACE_VECTORS)) == 6
    assert all(sorted(map(abs, v)) == [0, 0, 1] for v in FACE_VECTORS)


# --- chain worlds and fold congruence --------------------------------------


def test_world_from_chain_layout():
    w = world_from_chain("b_H_b_b_b_")
    cells = {b.chain_index: b.cell for b in w.blocks.values()}
    assert cells == {0: (4, 0, 0), 1: (3, 0, 0), 2: (2, 0, 0), 3: (1, 0, 0), 4: (0, 0, 0)}
    assert len(w.pending_folds) == 1
    assert len(w.bonds) == 4


def test_mover_params_decode_face_and_phase():
    w = world_from_chain("M24b_")
    m = next(b for b in w.blocks.values() if b.kind == "M")
    assert m.face == 2
    assert m.mover_phase == 4


@pytest.mark.parametrize("token", ["Mx3", "M__", "M63", "G7_", "G__"])
def test_mover_without_a_face_digit_is_refused(token):
    # the face rule is mdl's, for movers and gluers: a digit 0-5, nothing read as face 0
    role = {"M": "mover", "G": "gluer"}[token[0]]
    assert [d.code for d in validate(parse_mdl(token + "b__"))] == [f"{role}-params"]
    with pytest.raises(KinematicsError, match=f"^{role} {token} needs a face digit 0-5$"):
        world_from_chain(token + "b__")


def test_gluer_glues_across_the_face_its_digit_names():
    w = world_from_chain("G3_b__")
    gluer = w.blocks[0]
    assert gluer.face == 3 and gluer.absolute_face() == FACE_VECTORS[3]
    below = BlockInstance(id=9, kind="b", cell=add(gluer.cell, FACE_VECTORS[3]))
    w = step_world(World(blocks={**w.blocks, 9: below}, bonds=w.bonds))
    assert w.bonds == {frozenset((0, 1)), frozenset((0, 9))}


def test_random_phase_drawn_once_per_seed():
    phases = {
        s: next(
            b.mover_phase
            for b in world_from_chain("M1xb_", seed=s).blocks.values()
            if b.kind == "M"
        )
        for s in range(12)
    }
    assert all(0 <= p < 10 for p in phases.values())
    assert phases[3] == next(
        b.mover_phase
        for b in world_from_chain("M1xb_", seed=3).blocks.values()
        if b.kind == "M"
    )
    assert len(set(phases.values())) > 1


def test_drawn_phases_follow_one_generator_in_chain_order():
    # numpy's default_rng(11).integers(0, 10) gives 1, 1, 7, 4: one draw per
    # non-digit phase, in chain order, and none for the digit phase "3"
    w = world_from_chain("M1xb__M13M2xM0xM5_", seed=11)
    movers = sorted((b for b in w.blocks.values() if b.kind == "M"), key=lambda b: b.id)
    assert [b.mover_phase for b in movers] == [1, 3, 1, 7, 4]


def test_dissolve_timer_starts_at_fold_completion():
    w = world_from_chain("b_H_d3b_", fold_delay=20)
    d = next(b for b in w.blocks.values() if b.kind == "d")
    completion = w.pending_folds[-1].due_tick + 2
    assert d.dissolve_due == completion + 3


def _congruent_with_static_fold(text_or_chain, fold_delay=0, max_ticks=500):
    w = world_from_chain(text_or_chain, fold_delay=fold_delay)
    t = 0
    while w.pending_folds and t < max_ticks:
        w = step_world(w)
        t += 1
    if w.pending_folds:
        return False
    cells = {b.chain_index: b.cell for b in w.blocks.values()}
    lo = bounding_box(cells.values())[0]
    norm = {i: sub(c, lo) for i, c in cells.items()}
    static = fold(text_or_chain)
    # fold()'s recurrence and _try_fold's conjugated turn must agree on
    # every block's orientation, not only on its cell
    orients = {b.chain_index: b.orientation for b in w.blocks.values()}
    return norm == static.cells_by_index() and orients == {
        b.chain_index: b.orientation for b in static.blocks
    }


@pytest.mark.parametrize(
    "text",
    ["b_H_b_b_b_", "b_b_h_b_b_", "b_b_H_Z_b_b_", "b_L_b_R_b_H_b_", "b_b_b_"],
)
def test_in_world_folding_matches_static_fold(text):
    assert _congruent_with_static_fold(text)


def test_fixture_chains_fold_in_world_like_static_fold():
    corpus = load_manifest()
    checked = 0
    for fx in corpus.values():
        kinds = "".join(t.kind for t in fx.chain)
        if "d" in kinds or len(kinds) > 40:
            continue  # dissolvables melt mid-check; long chains are slow
        assert _congruent_with_static_fold(fx.chain), fx.id
        checked += 1
    assert checked >= 20


@st.composite
def foldable_chains(draw):
    kinds = draw(
        st.lists(st.sampled_from("bbHhLRZ"), min_size=2, max_size=16)
    )
    text = "".join(k + "_" for k in kinds)
    try:
        fold(text)
    except CollisionError:
        assume(False)
    return text


@given(foldable_chains())
@settings(max_examples=60, deadline=None)
def test_in_world_folding_congruence_property(text):
    assert _congruent_with_static_fold(text)


def test_blocked_fold_retries_until_clear():
    # a parked stranger occupies the hinge destination; a mover clears it
    w = world_from_chain("b_H_b_", fold_delay=0)
    stranger = BlockInstance(id=90, kind="b", cell=(1, 1, 0))
    shover = BlockInstance(
        id=91, kind="M", cell=(0, 1, 0), face=0, mover_phase=2, anchored=True
    )
    blocks = dict(w.blocks)
    blocks[90] = stranger
    blocks[91] = shover
    w = World(blocks=blocks, bonds=w.bonds, pending_folds=w.pending_folds)
    w = step_world(w)  # fold due but blocked
    assert w.pending_folds
    for _ in range(4):
        w = step_world(w)
    assert not w.pending_folds
    assert w.blocks[90].cell == (2, 1, 0)  # shoved clear
    cells = {b.chain_index: b.cell for b in w.blocks.values() if b.chain_index is not None}
    assert cells[0] == (1, 1, 0)


def test_fold_that_would_turn_an_anchored_block_waits():
    w = world_from_chain("b_H_b_", fold_delay=0)
    blocks = dict(w.blocks)
    blocks[0] = blocks[0]._replace(anchored=True)
    w = step_world(World(blocks=blocks, bonds=w.bonds, pending_folds=w.pending_folds))
    assert w.blocks[0].cell == (2, 0, 0)
    assert w.pending_folds == (FoldEvent(1, 1),)


def test_fold_that_would_tear_a_glue_bond_waits():
    # at tick 52 gluer 0 bonds to block 7; the fold at hinge 6 would turn
    # block 0 away from block 7, so it stays pending instead
    w = run_world(world_from_chain("G0_H_b_H_G0_H_h_b_b_H_"), 150)
    assert [e.chain_index for e in w.pending_folds] == [6]
    assert frozenset((0, 7)) in w.bonds


_GLUERS = [f"G{face}" for face in range(6)]

# movers with a fixed or drawn phase, gluers on every face, and dissolvables
# with a timer digit or the default one, among the turning and straight tokens
_INWORLD_TOKENS = [
    "b__", "H__", "h__", "L__", "R__", "Z__", *(g + "_" for g in _GLUERS), "M0x", "M3x", "M24",
    "d3_", "d__",
]


@st.composite
def inworld_runs(draw):
    """A chain, a fold delay, a seed, anchored strangers and the chain
    indices of anchored chain blocks. The chain need not fold statically:
    in the world a fold that would collide waits."""
    tokens = draw(st.lists(st.sampled_from(_INWORLD_TOKENS), min_size=2, max_size=16))
    text = "".join(tokens)
    # strangers sit beside the straight chain, where its movers face them
    n = len(tokens)
    beside = st.tuples(st.integers(0, n - 1), st.sampled_from(FACE_VECTORS[2:]))
    strangers = [add((x, 0, 0), v) for x, v in draw(st.lists(beside, max_size=4, unique=True))]
    # a dissolvable melts, anchored or not, so only lasting blocks are pinned
    lasting = [j for j, t in enumerate(tokens) if t[0] != "d"]
    pinned = draw(st.sets(st.sampled_from(lasting), max_size=3)) if lasting else set()
    return text, draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1)), strangers, pinned


def _inworld(text, fold_delay, seed, strangers, pinned):
    w = world_from_chain(text, fold_delay=fold_delay, seed=seed)
    blocks = {
        i: b._replace(anchored=True) if b.chain_index in pinned else b
        for i, b in w.blocks.items()
    }
    taken = {b.cell for b in blocks.values()}
    for i, cell in enumerate(c for c in strangers if c not in taken):
        blocks[1000 + i] = BlockInstance(id=1000 + i, kind="b", cell=cell, anchored=True)
    return World(blocks=blocks, bonds=w.bonds, pending_folds=w.pending_folds)


@given(inworld_runs())
# with no fold delay, the chain's gluers form a glue bond at tick 3
@example(("G0_H_b_H_G0_H_h_b_b_H_", 0, 0, [], set()))
@settings(max_examples=150, deadline=None)
def test_in_world_invariants_hold_every_tick(run):
    w = _inworld(*run)
    anchored = {i: b.cell for i, b in w.blocks.items() if b.anchored}
    kept = {i for i, b in w.blocks.items() if b.kind != "d"}
    due = {i: b.dissolve_due for i, b in w.blocks.items() if b.kind == "d"}
    for _ in range(60):
        w = step_world(w)
        check_world(w)  # bonds join adjacent cells, among the rest
        assert {i: w.blocks[i].cell for i in anchored} == anchored
        assert kept <= set(w.blocks)
        # a dissolvable melts at its due tick, and not before
        assert {i for i in due if i in w.blocks} == {i for i, t in due.items() if t >= w.time}
    assert w == run_world(_inworld(*run), 60)


# --- scenarios --------------------------------------------------------------


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenarioError):
        run_scenario("conveyor", length=5)


@pytest.mark.parametrize("name", ["walker", "retainer", "shuttle"])
def test_negative_length_is_bad_input_not_a_short_template(name):
    with pytest.raises(ValueError, match="^length must not be negative, got -1$"):
        build_scenario(name, length=-1)
    with pytest.raises(KinematicsError, match=f"^{name} needs length >= "):
        build_scenario(name, length=0)


def test_walker_reaches_track_end_and_stops():
    t0 = time.perf_counter()
    trace = run_scenario("walker", length=8)
    assert time.perf_counter() - t0 < 10.0
    r = trace.result
    assert r["reached_end"]
    assert r["final_position"] == r["track_end"] == 6
    assert r["stopped"]


@pytest.mark.parametrize("length", [5, 8, 12])
def test_walker_position_monotone_after_release(length):
    trace = run_scenario("walker", length=length)
    xs = trace.result["positions"]
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    assert xs[-1] == length - 2


def test_walker_waits_for_dissolve_release():
    # the leash holds the mover still through the tick its dissolvable goes
    trace = run_scenario("walker", length=8)
    release = next(int(e.split()[-1]) for e in trace.events if "dissolved" in e)
    assert release == 13
    xs = trace.result["positions"]
    assert all(x == xs[0] for x in xs[: release + 1])
    assert xs[-1] > xs[0]


def test_shuttle_is_periodic_and_touches_both_ends():
    t0 = time.perf_counter()
    trace = run_scenario("shuttle", length=8)
    assert time.perf_counter() - t0 < 10.0
    assert trace.period is not None
    assert trace.result["touched_left"]
    assert trace.result["touched_right"]
    mins = [lo for lo, _ in trace.result["spans"]]
    deltas = {b - a for a, b in zip(mins, mins[1:])}
    assert 1 in deltas and -1 in deltas  # both travel directions occur


def test_shuttle_period_recorded_not_assumed():
    for length in (3, 5, 8):
        trace = run_scenario("shuttle", length=length)
        assert trace.period is not None and trace.period > 0
        assert trace.period % 10 == 0


def test_period_key_tells_apart_worlds_that_differ_by_one_bond():
    # a bond decides which blocks a push carries, so it is part of the state
    blocks = [BlockInstance(id=i, kind="b", cell=(i, 0, 0)) for i in range(3)]
    cells = {b.id: b.cell for b in blocks}
    loose, bonded = _world(blocks), _world(blocks, bonds=[(0, 1)])
    assert _state_key(loose, cells) != _state_key(bonded, cells)
    assert _state_key(bonded, cells) == _state_key(_world(blocks, bonds=[(1, 0)]), cells)


def _full_state_key(world):
    """The period key with every block's cell, anchored blocks included."""
    cells = tuple(sorted((i, b.cell) for i, b in world.blocks.items()))
    dues = tuple(
        sorted(
            (i, b.dissolve_due - world.time)
            for i, b in world.blocks.items()
            if b.dissolve_due is not None
        )
    )
    folds = tuple((e.chain_index, e.due_tick - world.time) for e in world.pending_folds)
    return (cells, world.bonds, world.time % 10, dues, folds)


def _full_key_trace(name, length):
    """Frames, events and period of a default-length run, with the period
    found on the full state key at every tick."""
    world, meta = build_scenario(name, length=length)
    mobile = [i for i, b in world.blocks.items() if not b.anchored]
    frames, events, seen, period = [], [], {}, None
    for t in range(meta["default_ticks"] + 1):
        frames.append((world.time, {i: world.blocks[i].cell for i in mobile if i in world.blocks}))
        key = _full_state_key(world)
        if period is None and key in seen:
            period = world.time - seen[key]
            events.append(f"period {period} detected at tick {world.time}")
        seen.setdefault(key, world.time)
        if t == meta["default_ticks"]:
            break
        before, world = set(world.blocks), step_world(world)
        for i in sorted(before - set(world.blocks)):
            events.append(f"block {i} dissolved at tick {world.time - 1}")
    return frames, events, period


@pytest.mark.parametrize("name", ["walker", "retainer", "shuttle"])
def test_period_key_of_movable_blocks_matches_full_key(name):
    # anchored blocks never change cell, so leaving them out of the key
    # must find the same period at the same tick
    for length in sorted({kinematics._MIN_LENGTH[name], 6, 8, 11, 16, 23, 32, 47, 64}):
        trace = run_scenario(name, length=length)
        frames = list(enumerate(trace.frames))
        assert (frames, list(trace.events), trace.period) == _full_key_trace(name, length)


@pytest.mark.parametrize("name", ["shuttle", "walker"])
def test_a_replayed_tick_is_the_frame_it_repeats(name):
    trace = run_scenario(name, length=8)
    first_repeat = next(int(e.split()[-1]) for e in trace.events if "period" in e)
    assert all(type(f) is dict for f in trace.frames)
    for t in range(first_repeat + 1, trace.ticks + 1):
        assert trace.frames[t] is trace.frames[t - trace.period]


def test_negative_tick_counts_are_refused():
    with pytest.raises(ValueError, match="^ticks must not be negative, got -3$"):
        run_world(build_scenario("walker")[0], -3)
    with pytest.raises(ValueError, match="^ticks must not be negative, got -1$"):
        run_scenario("walker", ticks=-1)


def test_scenario_determinism():
    a = run_scenario("walker", length=8, seed=4)
    b = run_scenario("walker", length=8, seed=4)
    assert a.frames == b.frames
    assert a.events == b.events


def test_trace_json_round_shape():
    d = trace_to_json_dict(run_scenario("shuttle", length=4, ticks=30))
    assert d["name"] == "shuttle"
    assert [f["tick"] for f in d["frames"]] == list(range(31))
    assert all(len(c) == 3 for f in d["frames"] for c in f["cells"].values())
    assert "spans" not in d["result"]


# --- parity with the frozen reference tick ---------------------------------

_ROTATIONS = sorted(rotation_group())
_CASES = {"fold retried", "push blocked", "carry", "bonded group shoved", "bond formed"}


def _one_in(k):
    return st.sampled_from([True] + [False] * (k - 1))


@st.composite
def drawn_worlds(draw):
    """A world built block by block, and a tick count.

    The cells grow as a cluster of straight rods, each of one to three
    cells and starting next to an earlier cell or a gap of one or two away,
    so that blocks touch and line up often. On them: free blocks and bonded
    groups, anchored blocks, movers and gluers with every face (movers with
    every phase too), both mostly facing a neighbour, dissolvables, and
    chain blocks whose hinges hold folds that are due, past due (retrying)
    or still waiting; one fold may name a hinge that is gone.
    """
    cells, label = [(0, 0, 0)], [0]
    while len(cells) < 14 and not draw(_one_in(8)):
        cell = draw(st.sampled_from(cells))
        step = draw(st.sampled_from(FACE_VECTORS))
        stride = draw(st.sampled_from([1, 1, 2, 3]))
        rod = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(1, 3))):
            cell = add(cell, tuple(stride * c for c in step))
            stride = 1
            if cell not in cells:
                cells.append(cell)
                label.append(rod)
    rod_of = dict(zip(cells, label))
    now = draw(st.integers(0, 30))
    blocks, folds = {}, []
    for i, cell in enumerate(cells):
        kind = draw(st.sampled_from("bbbMMMGGdHhLRZ"))
        fields = {"orientation": draw(st.sampled_from(_ROTATIONS))}
        if kind in "MG":
            face = fields["face"] = draw(st.integers(0, 5))
            if kind == "M":
                # half of them fire on the first tick
                fields["mover_phase"] = draw(st.just(now % 10) | st.integers(0, 9))
            # a neighbour it is not bonded to
            ahead = [add(cell, apply(r, FACE_VECTORS[face])) for r in _ROTATIONS]
            facing = [r for r, c in zip(_ROTATIONS, ahead) if rod_of.get(c, label[i]) != label[i]]
            if facing and not draw(_one_in(4)):
                fields["orientation"] = draw(st.sampled_from(facing))
        elif kind == "d":
            fields["dissolve_due"] = draw(st.none() | st.integers(now - 2, now + 15))
        if not draw(_one_in(3)):
            fields["chain_index"] = i
            if kind in "HhLRZ" and not draw(_one_in(4)):
                folds.append(FoldEvent(i, draw(st.integers(now - 3, now + 8))))
        blocks[i] = BlockInstance(id=i, kind=kind, cell=cell, anchored=draw(_one_in(8)), **fields)
    if draw(_one_in(5)):
        folds.append(FoldEvent(len(cells), now))
    # neighbours in one rod, or in rods that drew the same label, are bonded
    bonds = [
        (i, j) for i in blocks for j in blocks
        if i < j and label[i] == label[j] and sub(cells[i], cells[j]) in FACE_VECTORS
    ]
    world = World(
        blocks=blocks,
        bonds=frozenset(frozenset(p) for p in bonds),
        time=now,
        pending_folds=tuple(draw(st.permutations(folds))),
    )
    return world, draw(st.integers(1, 30))


def _pinned(mdl):
    # the 150-tick runs that INWORLD_DIGESTS and the glue-tear test use
    return world_from_chain(mdl), 150


@given(drawn_worlds())
@example(_pinned(load_fixture("fig15d").mdl))
@example(_pinned(load_fixture("fig16a").mdl))
@example(_pinned("G0_H_b_H_G0_H_h_b_b_H_"))
@settings(max_examples=250, deadline=None)
def test_run_world_matches_the_reference_tick_by_tick(run):
    start, ticks = run
    ours = ref = start
    hits = []
    for _ in range(ticks):
        ours, ref = run_world(ours, 1), reference.step_world(ref, hits)
        check_world(ours)
        assert ours.time == ref.time
        assert ours.blocks == ref.blocks
        assert ours.bonds == ref.bonds
        assert ours.pending_folds == ref.pending_folds
    assert run_world(start, ticks) == ref
    for case in sorted(set(hits)):
        event(case)


def _checked_run(world, ticks):
    """Step `world` `ticks` times and run the check on every world the tick returns."""
    for _ in range(ticks):
        world = step_world(world)
        check_world(world)


# `step_world` builds its result without the check, so the check runs here
@pytest.mark.parametrize("seed", [0, 1])
def test_the_tick_keeps_every_fixture_world_valid(seed):
    for fx in load_manifest().values():
        _checked_run(world_from_chain(fx.chain, seed=seed), 150)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("length", [8, 32])
def test_the_tick_keeps_every_template_world_valid(name, length):
    world, meta = build_scenario(name, length=length)
    _checked_run(world, meta["default_ticks"])


def test_drawn_worlds_reach_every_action_the_tick_takes_or_refuses():
    # a fixed set of draws, so that the count does not vary run to run
    hits = []

    @given(drawn_worlds())
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    def step_through(run):
        world, ticks = run
        for _ in range(ticks):
            world = reference.step_world(world, hits)

    step_through()
    assert set(hits) == _CASES


# the tick at which each template finds its period at length 8; the
# retainer's payload keeps rising once the carriage parks, so it never repeats
PERIOD_FOUND_AT = {"walker": 56, "shuttle": 10, "retainer": None}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_run_scenario_matches_the_reference_loop(reference_scenario, name):
    # the CLI's default seed, so that test_cli's reference runs are these
    for length in sorted({kinematics._MIN_LENGTH[name], 8, 13, 32, 128}):
        ours = run_scenario(name, length, seed=DEFAULT_SEED)
        assert ours == reference_scenario(name, length, seed=DEFAULT_SEED)
    found = PERIOD_FOUND_AT[name]
    around = () if found is None else (found - 1, found, found + 1)
    past_default = build_scenario(name, 8)[1]["default_ticks"] + 50
    for ticks in (0, 1, 9, *around, past_default):
        ours = run_scenario(name, 8, ticks=ticks, seed=3)
        assert ours == reference_scenario(name, 8, ticks=ticks, seed=3)
    events = reference_scenario(name, 8, ticks=past_default, seed=3).events
    detected = [int(e.rsplit(" ", 1)[1]) for e in events if e.startswith("period")]
    assert detected == ([] if found is None else [found])


# --- pinned outputs -----------------------------------------------------------

# SHA-256 of `scenario --trace-out` files less their closing newline: each
# template at its minimum length and at 8, 13 and 32, run for its default
# number of ticks.
TRACE_DIGESTS = {
    ("walker", 5): "5820058a031dbd165ad7ae28294ef2d18861e60a3e48c05aa7543d25eecd0288",
    ("walker", 8): "1da139dc32d651f8710d96af23c5d3ef056138214eb646a464b3ab02dbea1a15",
    ("walker", 13): "2cea9e31e29ee673941bf215f13814be2b7cb1307e7b83f61bf4db334919968f",
    ("walker", 32): "d6f21e9cbc16ea08a8ef83b0e9f9442db4f2b4524c568c935659ddeb0f27ad44",
    ("shuttle", 3): "e2c9f1744dc80b7618aa8ba524ee103f0771082ff7086ff79b58a102bd8384fb",
    ("shuttle", 8): "6c70ac3a1916eb8aacbbde094b71389427475e1f0fd775b96c6a8d4e5f5ff9fa",
    ("shuttle", 13): "fe67a588617e80a7631ac7882226dd28c87854fcdb8d4a5fcab0eb3489f91563",
    ("shuttle", 32): "072577ca5143948f540ae82c51b2b9582490090abcdc0ac4d8accb4ce9fde0ca",
    ("retainer", 4): "f88735239f361e7b52f754c6a64fc230aaea491708161c8f5e313d7bb08c41af",
    ("retainer", 8): "b95800937025e723192aba360b6d393d86eb8d656b5bb9f15f44d7efee989735",
    ("retainer", 13): "16175fe188c00c2c0656d38c2e7b9e629d4c9e8e000fae5067a191aabb48b8bd",
    ("retainer", 32): "8d6e0fb676d5ccba87f881aafda171a555e50eb9da07aa2490ffe2ca4ebd4163",
}

# SHA-256 over every tick of a 150-tick in-world run (cells, orientations,
# bonds, pending folds). Between them these fold, retry blocked folds
# (fig15d, fig16a), fire movers, dissolve and run gluers.
INWORLD_DIGESTS = {
    "fig19": "57cb8e764f98982987d09d390f7049a1fbc7d983fa94ebbadb2bb3678cfd1f7a",
    "fig20": "5234a2b2f717ea1d9dc02d23be76e86292cd298b3a9cb415a17f298dc081e556",
    "fig21": "0fe6818039fb507a5f9980ebd0a06db254695c86c99e60a0ebf359822055af5d",
    "fig22a": "c2db2be3524a30b7edecf066631b61b6751adf745029bd88719d7117a1ca01a4",
    "fig22c": "37e4a943198df8b46accb757fa706dad77ef1f4edee09141f08421ea57d65edd",
    "fig32": "46f098a6006d1bc6505fc253891f6de0b9143a834d28265113a9d4f6724b3d7e",
    "fig15d": "bff98948fb324cca1b6fc8f2d7139d0425904bfb7b66da8261d3ad9214acf057",
    "fig16a": "2c7cf8b46c1f6e1582941e66375246f5e6fa6ed6db7985f639ce0994094ecf25",
}


# SHA-256 of each template as built, anchored blocks and bonds included:
# every block's fields by id, the sorted bonds, and the error one cell
# below the template's minimum length.
TEMPLATE_DIGESTS = {
    ("walker", 5): "9af600165b9a8d1d70a584fc741d730eecb7ece6ca9c96e00a5362b371a65fb1",
    ("walker", 8): "a67b93472e3dc0f08f50a9f3c3ddf80ac09b284ebf5bea8e2352dfb89fb8a5ba",
    ("walker", 13): "ef799514cab7eafe9541b77f2539d54a89da6352a81e9064dd389262257b175b",
    ("walker", 32): "aa8b06300fe3bc12e3821952b1e7e9a4a2c72260934dee4e0be6a128a6205553",
    ("shuttle", 3): "db8e51d591d639568961c2f9285fe174b935ed25a1af16249173382c356b5c06",
    ("shuttle", 8): "7a6b154d0527fbbc911e05379f5ee5bfde0945d9eb81f074a82a8256592b231b",
    ("shuttle", 13): "05c71befee592b2bfdba584b5a4129c09f8d792a63413a2b96e68fd295b3eda2",
    ("shuttle", 32): "721947a3c0a3db8de5ee664183e80ed2cb04ba1c5a9da8553205b6328cf57cbe",
    ("retainer", 4): "749fd33bae1ac5e50048bd9fdaf37c95a65b3b51e8140cc2c63a756fe70780c4",
    ("retainer", 8): "67feeab2efce2b345452ba7e06bdf4297d631883204fbb3493f4cac0c8c4fa9b",
    ("retainer", 13): "f5c42f25a0423b38435e82edfdf34e2cd72699940b2115a21349db627b86f2bd",
    ("retainer", 32): "8cfbef9473e4ea708f3ce2007a120f0ef47e0691be26b17f05615e2b6ad84934",
}


@pytest.mark.parametrize("name,length", sorted(TEMPLATE_DIGESTS))
def test_scenario_template_matches_pinned_digest(name, length):
    world, _ = build_scenario(name, length=length)
    blocks = [
        (b.id, b.kind, b.cell, b.orientation, b.anchored, b.face,
         b.mover_phase, b.dissolve_due, b.chain_index)
        for b in sorted(world.blocks.values(), key=lambda b: b.id)
    ]
    bonds = sorted(sorted(p) for p in world.bonds)
    with pytest.raises(KinematicsError) as too_short:
        build_scenario(name, length=kinematics._MIN_LENGTH[name] - 1)
    text = json.dumps([blocks, bonds, str(too_short.value)])
    assert hashlib.sha256(text.encode()).hexdigest() == TEMPLATE_DIGESTS[name, length]


@pytest.mark.parametrize("name,length", sorted(TRACE_DIGESTS))
def test_scenario_trace_matches_pinned_digest(name, length):
    out = io.StringIO()
    write_trace(run_scenario(name, length=length), out)
    text = out.getvalue().removesuffix("\n")
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_DIGESTS[name, length]


@pytest.mark.parametrize("fixture_id", sorted(INWORLD_DIGESTS))
def test_inworld_run_matches_pinned_digest(fixture_id):
    w = world_from_chain(load_fixture(fixture_id).mdl)
    h = hashlib.sha256()
    for _ in range(150):
        w = step_world(w)
        state = [
            w.time,
            sorted((i, b.cell, b.orientation) for i, b in w.blocks.items()),
            sorted(sorted(p) for p in w.bonds),
            [(e.chain_index, e.due_tick) for e in w.pending_folds],
        ]
        h.update(json.dumps(state).encode())
    assert h.hexdigest() == INWORLD_DIGESTS[fixture_id]

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fig6_reference import RefCollision, ref_fold
from chainfold.corpus import load_manifest
from chainfold.folding import (
    CollisionError,
    NotABendError,
    bend_axis,
    export_obj,
    fold,
    render_ascii,
    structure_stats,
    swap_hinges_and_lr,
    swap_lr,
    to_json_dict,
)
from chainfold.geometry import (
    IDENTITY,
    MIRROR_Y,
    MIRROR_Z,
    ROTATIONS,
    RX90,
    RZ90,
    TOKEN_ROTATIONS,
    apply,
    compose,
)
from chainfold.mdl import Chain, Token, parse_mdl

# Hand-derived by stepping the folding loop on paper; frozen before the
# implementation existed. First block ends bent off the line.
L_SHAPE = {0: (3, 1, 0), 1: (3, 0, 0), 2: (2, 0, 0), 3: (1, 0, 0), 4: (0, 0, 0)}

ALL_KINDS = "bdSGMHhRLZ12"
TURN_HEAVY = "bHhRLZ"


def chain_of(kinds: str) -> Chain:
    return tuple(Token(k) for k in kinds)


def renormalize(cells: dict) -> dict:
    mn = tuple(min(c[a] for c in cells.values()) for a in range(3))
    return {i: (c[0] - mn[0], c[1] - mn[1], c[2] - mn[2]) for i, c in cells.items()}


def mirrored(cells: dict, mirror) -> dict:
    return renormalize({i: apply(mirror, c) for i, c in cells.items()})


def test_empty_chain():
    s = fold("")
    assert len(s) == 0
    assert s.occupancy == {}
    assert s.bbox is None


def test_single_block():
    s = fold("b__")
    assert s.cells_by_index() == {0: (0, 0, 0)}
    assert s.blocks[0].orientation == IDENTITY


def test_l_shape_frozen_oracle():
    s = fold("b_H_b_b_b_")
    assert s.cells_by_index() == L_SHAPE
    assert s.offset == (0, 0, 0)
    # the hinge rotated everything placed before it, i.e. block 0 only
    assert s.blocks[0].orientation == RZ90
    assert all(b.orientation == IDENTITY for b in s.blocks[1:])


def test_square_loop_collision_frozen_oracle():
    with pytest.raises(CollisionError) as e:
        fold("b_H_b_H_b_H_b_H_b_")
    assert e.value.chain_index == 8
    assert e.value.occupied_by == 0
    assert e.value.cell == (0, 0, 0)
    with pytest.raises(RefCollision) as r:
        ref_fold("bHbHbHbHb")
    assert r.value.chain_index == 8
    assert r.value.occupied_by == 0


def test_agreement_with_reference_on_random_chains():
    rng = np.random.default_rng(2024)
    checked_colliding = checked_clean = 0
    for _ in range(300):
        n = int(rng.integers(1, 51))
        kinds = "".join(TURN_HEAVY[i] for i in rng.integers(0, len(TURN_HEAVY), n))
        try:
            expected = ref_fold(kinds)
        except RefCollision as rc:
            with pytest.raises(CollisionError) as e:
                fold(chain_of(kinds))
            assert e.value.chain_index == rc.chain_index
            assert e.value.occupied_by == rc.occupied_by
            checked_colliding += 1
        else:
            assert fold(chain_of(kinds)).cells_by_index() == expected
            checked_clean += 1
    assert checked_clean > 50 and checked_colliding > 50


def test_orientations_are_the_shared_products_of_the_later_turns():
    """Block j's orientation is R_{n-1} ... R_{j+1}, the product of the turns
    after it, and is one of `ROTATIONS`' own tuples; the oracle above
    compares cells only."""
    rng = np.random.default_rng(2025)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        kinds = "".join(TURN_HEAVY[i] for i in rng.integers(0, len(TURN_HEAVY), n))
        blocks = fold(chain_of(kinds), permissive=True).blocks
        want = IDENTITY
        for j in range(n - 1, -1, -1):
            assert blocks[j].orientation == want
            assert any(blocks[j].orientation is r for r in ROTATIONS)
            want = compose(want, TOKEN_ROTATIONS.get(kinds[j], IDENTITY))


def test_a_fold_retains_at_most_320_bytes_per_block():
    """Blocks hold `ROTATIONS`' shared tuples: with four orientation tuples
    of its own, each block of this fold retained about 530 B."""
    chain = parse_mdl("b__" * 20_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        structure = fold(chain)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(structure) == 20_000 and retained <= 320 * 20_000


def test_token_rotation_identities():
    L = TOKEN_ROTATIONS["L"]
    assert L == RX90
    assert TOKEN_ROTATIONS["Z"] == compose(L, L)
    assert TOKEN_ROTATIONS["R"] == compose(L, compose(L, L))
    assert compose(TOKEN_ROTATIONS["H"], TOKEN_ROTATIONS["h"]) == IDENTITY
    for k in "bdSGM12":
        assert k not in TOKEN_ROTATIONS


def test_inert_chain_is_straight_line():
    s = fold(chain_of("bdSGM12"))
    cells = s.cells_by_index()
    n = len(cells)
    assert cells == {i: (n - 1 - i, 0, 0) for i in range(n)}
    assert all(b.orientation == IDENTITY for b in s.blocks)


@given(st.text(alphabet=ALL_KINDS, min_size=1, max_size=40))
@settings(max_examples=150)
def test_consecutive_blocks_stay_adjacent(kinds):
    try:
        s = fold(chain_of(kinds))
    except CollisionError:
        assume(False)
    cells = s.cells_by_index()
    for i in range(len(kinds) - 1):
        a, b = cells[i], cells[i + 1]
        assert sum(abs(a[j] - b[j]) for j in range(3)) == 1


@given(st.text(alphabet=TURN_HEAVY, min_size=1, max_size=40))
@settings(max_examples=150)
def test_lr_mirror_is_z_reflection(kinds):
    chain = chain_of(kinds)
    try:
        plain = fold(chain)
    except CollisionError:
        assume(False)
    swapped = fold(swap_lr(chain))
    assert swapped.cells_by_index() == mirrored(plain.cells_by_index(), MIRROR_Z)


@given(st.text(alphabet=TURN_HEAVY, min_size=1, max_size=40))
@settings(max_examples=150)
def test_double_mirror_is_y_reflection(kinds):
    chain = chain_of(kinds)
    try:
        plain = fold(chain)
    except CollisionError:
        assume(False)
    swapped = fold(swap_hinges_and_lr(chain))
    assert swapped.cells_by_index() == mirrored(plain.cells_by_index(), MIRROR_Y)


def test_swap_helpers_touch_only_their_kinds():
    c = parse_mdl("M24L_R_H_h_Z_b_")
    assert "".join(t.kind for t in swap_lr(c)) == "MRLHhZb"
    assert "".join(t.kind for t in swap_hinges_and_lr(c)) == "MRLhHZb"
    # params survive the swap
    assert swap_lr(c)[0].canonical == "M24"


def test_a_chain_is_a_plain_tuple_of_tokens():
    chain = parse_mdl("b__H__")
    assert type(chain) is tuple and type(swap_lr(chain)) is tuple
    assert swap_lr(chain) == (Token("b"), Token("H"))


def substitution_case(kinds: str, index: int, replacement: str):
    """Fold kinds and kinds-with-substitution; compare headings/orientations."""
    subst = kinds[:index] + replacement + kinds[index + 1 :]
    a = fold(chain_of(kinds)).cells_by_index()
    b_struct = fold(chain_of(subst))
    b = b_struct.cells_by_index()
    gained = len(replacement) - 1
    assert len(b) == len(a) + gained

    def deltas(cells, count):
        return [
            tuple(cells[i + 1][j] - cells[i][j] for j in range(3))
            for i in range(count - 1)
        ]

    da, db = deltas(a, len(a)), deltas(b, len(b))
    # upstream of the substitution: identical headings
    assert da[: index - 1] == db[: index - 1]
    # the inserted blocks continue the same straight segment
    for j in range(index - 1, index + gained):
        assert db[j] == da[index - 1]
    # downstream headings are shifted by the gained blocks, otherwise equal
    assert db[index + gained :] == da[index:]
    # orientations of corresponding blocks match exactly
    oa = [blk.orientation for blk in fold(chain_of(kinds)).blocks]
    ob = [blk.orientation for blk in b_struct.blocks]
    assert ob[:index] == oa[:index]
    assert ob[index + gained + 1 :] == oa[index + 1 :]


def test_z_token_equals_two_l():
    substitution_case("bbHZbHb", 3, "LL")


def test_r_token_equals_three_l():
    substitution_case("bbRbHb", 2, "LLL")


def test_bend_axis_frozen_oracle():
    a = bend_axis(fold("b_b_h_b_b"), 2)
    b = bend_axis(fold("b_b_H_Z_b_b"), 2)
    assert a == b == (0, -1, 0)


def test_bend_axis_rejects_straight_and_edges():
    s = fold("b_b_b_")
    with pytest.raises(NotABendError):
        bend_axis(s, 1)
    with pytest.raises(NotABendError):
        bend_axis(s, 0)
    with pytest.raises(NotABendError):
        bend_axis(s, 2)


def test_permissive_mode_records_overwrites():
    s = fold("b_H_b_H_b_H_b_H_b_", permissive=True)
    assert len(s.blocks) == 9
    assert [(c.chain_index, c.occupied_by) for c in s.collisions] == [(8, 0)]
    assert len(s.occupancy) == 8
    # the later block keeps the shared cell
    shared = s.blocks[8].cell
    assert s.occupancy[shared].chain_index == 8


def test_structure_stats():
    s = fold("b_H_b_b_b_")
    st_ = structure_stats(s)
    assert st_["block_count"] == 5
    assert st_["kind_histogram"] == {"b": 4, "H": 1}
    assert st_["info_bits"] == 15  # six-type alphabet, 3 bits per block
    assert st_["bbox"] == ((0, 0, 0), (3, 1, 0))
    empty = structure_stats(fold(""))
    assert empty == {
        "block_count": 0,
        "kind_histogram": {},
        "bbox": None,
        "info_bits": 0,
    }


def test_structure_stats_outside_six_type_profile():
    # d and S fall outside the six-type alphabet: bits follow the kind count
    st_ = structure_stats(fold(chain_of("bdSb")))
    assert st_["block_count"] == 4
    assert st_["info_bits"] == 2 * 4  # ceil(log2(3 kinds)) == 2


def test_render_ascii_smoke():
    art = render_ascii(fold("b_H_b_b_b_"))
    assert "z=0" in art
    grid = [ln for ln in art.splitlines() if ln and not ln.startswith("z=")]
    joined = "".join(grid)
    assert joined.count("b") == 4 and joined.count("H") == 1


def _render_ascii_cells(structure):
    """The renderer as a walk over every cell of the bounding box."""
    if not structure.occupancy:
        return "(empty)\n"
    (x0, y0, z0), (x1, y1, z1) = structure.bbox
    out = []
    for z in range(z0, z1 + 1):
        out.append(f"z={z}")
        for y in range(y1, y0 - 1, -1):
            row = ""
            for x in range(x0, x1 + 1):
                blk = structure.occupancy.get((x, y, z))
                row += blk.token.kind if blk else "."
            out.append(row)
        out.append("")
    return "\n".join(out)


def test_render_ascii_matches_cell_walk_on_every_fixture():
    fixtures = load_manifest()
    assert len(fixtures) == 48
    for fx in fixtures.values():
        structure = fold(fx.chain, permissive=True)
        assert render_ascii(structure) == _render_ascii_cells(structure), fx.id


@given(st.text(alphabet=ALL_KINDS, max_size=40))
@settings(max_examples=150, deadline=None)
def test_render_ascii_matches_cell_walk_on_random_chains(kinds):
    structure = fold(chain_of(kinds), permissive=True)
    assert render_ascii(structure) == _render_ascii_cells(structure)


def test_json_export_is_deterministic():
    s = fold("b_H_b_b_b_")
    d1 = json.dumps(to_json_dict(s), sort_keys=True)
    d2 = json.dumps(to_json_dict(fold("b_H_b_b_b_")), sort_keys=True)
    assert d1 == d2
    parsed = json.loads(d1)
    assert len(parsed["blocks"]) == 5
    assert parsed["offset"] == [0, 0, 0]


def test_obj_export_counts():
    obj = export_obj(fold("b_H_b_b_b_"))
    verts = [ln for ln in obj.splitlines() if ln.startswith("v ")]
    faces = [ln for ln in obj.splitlines() if ln.startswith("f ")]
    assert len(verts) == 5 * 8
    assert len(faces) == 5 * 6


def test_fold_is_pure():
    a = fold("b_H_b_b_b_")
    b = fold("b_H_b_b_b_")
    assert a.cells_by_index() == b.cells_by_index()
    assert a.offset == b.offset
    assert [x.orientation for x in a.blocks] == [x.orientation for x in b.blocks]

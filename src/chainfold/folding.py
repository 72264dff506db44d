"""Chain folding: turn a token chain into a lattice structure.

The folding loop reads the chain left to right; each token shifts the
already-placed map right, applies its rotation to it, then occupies the
origin. Rather than rebuilding the map per token, fold() runs the
equivalent affine recurrence backward over the chain, which gives every
block's final cell and orientation in one pass: with F_j(c) = R_j(c + e_x),
block j ends at (F_{n-1} ∘ ... ∘ F_{j+1})(0,0,0) and its orientation is the
product R_{n-1} ... R_{j+1}. Collisions are exactly coincidences of final
cells, attributed to the later chain index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import FoldError
from .geometry import PRODUCT, ROTATIONS, TURNS, Cell, Rot, add, apply, bounding_box, dot, sub
from .mdl import SIX_TYPE_PROFILE, Chain, Token, parse_mdl

# the image of e_x under each rotation, by its index in ROTATIONS
_STEP: tuple[Cell, ...] = tuple(apply(r, (1, 0, 0)) for r in ROTATIONS)


class CollisionError(FoldError):
    def __init__(self, chain_index: int, occupied_by: int):
        super().__init__(
            f"collision at index {chain_index}: cell (0, 0, 0) already "
            f"holds block {occupied_by}"
        )
        self.chain_index = chain_index
        self.occupied_by = occupied_by
        # the placement cell is always the origin of the working frame
        self.cell: Cell = (0, 0, 0)


class NotABendError(FoldError):
    pass


@dataclass(frozen=True)
class PlacedBlock:
    cell: Cell
    token: Token
    orientation: Rot
    chain_index: int


@dataclass(frozen=True)
class CollisionRecord:
    chain_index: int
    occupied_by: int


@dataclass(frozen=True)
class FoldedStructure:
    blocks: tuple[PlacedBlock, ...]
    occupancy: dict[Cell, PlacedBlock] = field(compare=False)
    offset: Cell = (0, 0, 0)
    collisions: tuple[CollisionRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def bbox(self) -> tuple[Cell, Cell] | None:
        if not self.occupancy:
            return None
        return bounding_box(self.occupancy.keys())

    def cells_by_index(self) -> dict[int, Cell]:
        return {b.chain_index: b.cell for b in self.blocks}


def _as_chain(chain: Chain | str) -> Chain:
    return parse_mdl(chain) if isinstance(chain, str) else chain


def fold(chain: Chain | str, permissive: bool = False) -> FoldedStructure:
    """Fold a chain; raise CollisionError on self-intersection.

    permissive=True records collisions instead, letting the later block
    overwrite the earlier one. Meant for corpus triage, not simulation.
    """
    chain = _as_chain(chain)
    n = len(chain)
    if n == 0:
        return FoldedStructure(blocks=(), occupancy={})

    finals: list[Cell] = [None] * n  # type: ignore[list-item]
    orients: list[Rot] = [None] * n  # type: ignore[list-item]
    s = 0  # the index of IDENTITY, the turn of a kind that does not turn
    t: Cell = (0, 0, 0)
    for j in range(n - 1, -1, -1):
        finals[j] = t
        orients[j] = ROTATIONS[s]
        s = PRODUCT[s][TURNS.get(chain[j].kind, 0)]
        t = add(t, _STEP[s])

    seen: dict[Cell, int] = {}
    collisions: list[CollisionRecord] = []
    for j in range(n):
        owner = seen.get(finals[j])
        if owner is not None:
            if not permissive:
                raise CollisionError(j, owner)
            collisions.append(CollisionRecord(j, owner))
        seen[finals[j]] = j

    off = bounding_box(seen)[0]
    blocks = tuple(
        PlacedBlock(
            cell=sub(finals[j], off),
            token=chain[j],
            orientation=orients[j],
            chain_index=j,
        )
        for j in range(n)
    )
    occupancy = {blocks[j].cell: blocks[j] for j in sorted(seen.values())}
    return FoldedStructure(
        blocks=blocks,
        occupancy=occupancy,
        offset=off,
        collisions=tuple(collisions),
    )


_LR_SWAP = {"L": "R", "R": "L"}
_HINGE_AND_LR_SWAP = {**_LR_SWAP, "H": "h", "h": "H"}


def _swap_kinds(chain: Chain | str, swap: dict[str, str]) -> Chain:
    return tuple(Token(swap.get(t.kind, t.kind), t.params, t.offset) for t in _as_chain(chain))


def swap_lr(chain: Chain | str) -> Chain:
    """Mirror a chain's handedness: every L becomes R and vice versa."""
    return _swap_kinds(chain, _LR_SWAP)


def swap_hinges_and_lr(chain: Chain | str) -> Chain:
    return _swap_kinds(chain, _HINGE_AND_LR_SWAP)


def bend_axis(structure: FoldedStructure, at_index: int) -> Cell:
    """Direction of the pre-bend segment, taken at a bend block.

    Both neighbors must exist and the two adjoining segments must be
    perpendicular, otherwise the block is not a bend.
    """
    cells = structure.cells_by_index()
    if at_index - 1 not in cells or at_index + 1 not in cells:
        raise NotABendError(f"index {at_index} lacks two chain neighbors")
    mid = cells[at_index]
    d_pre = sub(cells[at_index - 1], mid)
    d_post = sub(mid, cells[at_index + 1])
    if dot(d_pre, d_post) != 0:
        raise NotABendError(f"segments around index {at_index} are collinear")
    return d_pre


def structure_stats(structure: FoldedStructure) -> dict:
    """Block count, kind histogram, bounding box, information content."""
    hist: dict[str, int] = {}
    for b in structure.blocks:
        hist[b.token.kind] = hist.get(b.token.kind, 0) + 1
    count = len(structure.blocks)
    if count == 0:
        bits = 0
    elif all(SIX_TYPE_PROFILE.matches(b.token) for b in structure.blocks):
        bits = 3 * count
    else:
        bits = max(1, math.ceil(math.log2(max(2, len(hist))))) * count
    return {
        "block_count": count,
        "kind_histogram": hist,
        "bbox": structure.bbox,
        "info_bits": bits,
    }


def render_ascii(structure: FoldedStructure) -> str:
    """One text grid per z slice; x grows right, y grows up, '.' is empty.

    Only the rows that hold blocks are filled in; every other row is the
    same all-empty string, so the cost follows the block count and the
    size of the output, not the volume of the bounding box.
    """
    if not structure.occupancy:
        return "(empty)\n"
    (x0, y0, z0), (x1, y1, z1) = structure.bbox  # type: ignore[misc]
    empty = "." * (x1 - x0 + 1)
    filled: dict[tuple[int, int], list[str]] = {}
    for (x, y, z), blk in structure.occupancy.items():
        row = filled.get((y, z))
        if row is None:
            row = filled[y, z] = list(empty)
        row[x - x0] = blk.token.kind
    out: list[str] = []
    for z in range(z0, z1 + 1):
        out.append(f"z={z}")
        for y in range(y1, y0 - 1, -1):
            row = filled.get((y, z))
            out.append(empty if row is None else "".join(row))
        out.append("")
    return "\n".join(out)


def to_json_dict(structure: FoldedStructure) -> dict:
    bbox = structure.bbox
    return {
        "blocks": [
            {
                "cell": list(b.cell),
                "token": b.token.canonical,
                "orientation": [list(r) for r in b.orientation],
                "chain_index": b.chain_index,
            }
            for b in structure.blocks
        ],
        "offset": list(structure.offset),
        "bbox": None if bbox is None else [list(bbox[0]), list(bbox[1])],
        "collisions": [
            {"chain_index": c.chain_index, "occupied_by": c.occupied_by}
            for c in structure.collisions
        ],
    }


# corner index = dx*4 + dy*2 + dz
_CUBE_CORNERS = tuple(itertools.product((0, 1), repeat=3))
_CUBE_QUADS = (
    (0, 1, 3, 2),  # x = 0 side
    (4, 6, 7, 5),  # x = 1 side
    (0, 4, 5, 1),  # y = 0 side
    (2, 3, 7, 6),  # y = 1 side
    (0, 2, 6, 4),  # z = 0 side
    (1, 5, 7, 3),  # z = 1 side
)


def export_obj(structure: FoldedStructure) -> str:
    """Eight vertices and six quad faces per occupied cell."""
    v_lines: list[str] = []
    f_lines: list[str] = []
    base = 1
    for cell in sorted(structure.occupancy):
        for corner in _CUBE_CORNERS:
            v_lines.append("v %d %d %d" % add(cell, corner))
        for a, b, c, d in _CUBE_QUADS:
            f_lines.append("f %d %d %d %d" % (base + a, base + b, base + c, base + d))
        base += 8
    return "\n".join(v_lines + f_lines) + "\n"

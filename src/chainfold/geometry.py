"""Integer lattice geometry: cells, proper rotations, mirrors.

Every module does its cell and rotation arithmetic with these functions.

Rotations are 3x3 integer matrices stored as nested tuples at the API, and
indices into `ROTATIONS` inside the fold and the tick, which look products,
inverses and turns up in tables built once here. The two generators fix the
handedness of every convention downstream:

    RX90: (x, y, z) -> (x, -z, y)
    RZ90: (x, y, z) -> (-y, x, z)
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

Cell = tuple[int, int, int]
Rot = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]

IDENTITY: Rot = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
RX90: Rot = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
RZ90: Rot = ((0, -1, 0), (1, 0, 0), (0, 0, 1))

# Improper transforms (det -1), used only for symmetry checks.
MIRROR_Y: Rot = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
MIRROR_Z: Rot = ((1, 0, 0), (0, 1, 0), (0, 0, -1))


def apply(rot: Rot, cell: Cell) -> Cell:
    """Apply a rotation matrix to a cell (matrix times column vector)."""
    x, y, z = cell
    return (
        rot[0][0] * x + rot[0][1] * y + rot[0][2] * z,
        rot[1][0] * x + rot[1][1] * y + rot[1][2] * z,
        rot[2][0] * x + rot[2][1] * y + rot[2][2] * z,
    )


def compose(a: Rot, b: Rot) -> Rot:
    """Matrix product a @ b: the transform that applies b first, then a."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return tuple([
        (
            x * b00 + y * b10 + z * b20,
            x * b01 + y * b11 + z * b21,
            x * b02 + y * b12 + z * b22,
        )
        for x, y, z in a
    ])  # type: ignore[return-value]


def inverse(rot: Rot) -> Rot:
    # Orthogonal with integer entries, so the inverse is the transpose.
    return tuple(zip(*rot))  # type: ignore[return-value]


# The turn of each hinge token, shared by the static folder and the tick.
TOKEN_ROTATIONS: dict[str, Rot] = {
    "H": RZ90,
    "h": inverse(RZ90),
    "L": RX90,
    "R": inverse(RX90),
    "Z": compose(RX90, RX90),
}


def add(a: Cell, b: Cell) -> Cell:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Cell, b: Cell) -> Cell:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def cross(a: Cell, b: Cell) -> Cell:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a: Cell, b: Cell) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@lru_cache(maxsize=1)
def rotation_group() -> frozenset[Rot]:
    """The proper rotation group of the cubic lattice, generated by closure.

    Starts from the two quarter-turn generators and multiplies until no new
    elements appear. The result has exactly 24 elements, the very objects of
    `ROTATIONS`; a test pins both.
    """
    group: set[Rot] = {IDENTITY, RX90, RZ90}
    frontier = list(group)
    while frontier:
        nxt: list[Rot] = []
        for g in frontier:
            for gen in (RX90, RZ90):
                h = compose(gen, g)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return frozenset(group)


# The 24 rotations in a fixed order, IDENTITY (the largest) first, and the
# index of each rotation, of each product a @ b, of each inverse and of each
# hinge token's turn. A rotation permutes the axes with signs, so its image
# of (1, 2, 3) names it, and a @ b is named by a's image of b's name.
ROTATIONS: tuple[Rot, ...] = tuple(sorted(rotation_group(), reverse=True))
ROTATION_INDEX: dict[Rot, int] = {r: i for i, r in enumerate(ROTATIONS)}
_NAMES = {apply(r, (1, 2, 3)): i for i, r in enumerate(ROTATIONS)}
PRODUCT = tuple(tuple(_NAMES[apply(a, v)] for v in _NAMES) for a in ROTATIONS)
INVERSE = tuple(ROTATION_INDEX[inverse(r)] for r in ROTATIONS)
TURNS = {kind: ROTATION_INDEX[r] for kind, r in TOKEN_ROTATIONS.items()}


def bounding_box(cells: Iterable[Cell]) -> tuple[Cell, Cell]:
    """(min_corner, max_corner) of a non-empty cell collection."""
    cells = list(cells)
    if not cells:
        raise ValueError("bounding_box of empty cell set")
    xs, ys, zs = zip(*cells)
    return (min(xs), min(ys), min(zs)), (max(xs), max(ys), max(zs))

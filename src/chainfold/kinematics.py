"""Discrete-time block world for the track-bound machine scenarios.

A world is a set of lattice-exclusive block instances with glue bonds,
stepped on a global tick. Per tick, in order: due dissolvables vanish,
due chain folds rotate their upstream sub-chain, movers on their phase
push or carry, gluers bond across their active face. Blocked actions are
no-ops (folds retry next tick); there is no other failure mode. A fold is
blocked by an anchored block among those it would turn, by a block in its
way and by a glue bond it would tear (one end turned, the other not, no
longer adjacent).

Movers fire every ten ticks on their phase digit. A mover facing another
group shoves that group one cell; a mover facing empty space carries its
own bonded group instead, which is what lets a walker carry its engine.
Anchored blocks pin their whole group.

A tick keeps one cell -> block map, built after the dissolves and updated
by every fold and push, so each action and the glue phase see the cells
as the actions before them left them. Folds and pushes share one rule,
`_move`; the only `World` built per tick is the result, and it skips
`check_world`, since no action can break a valid world.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

from .errors import KinematicsError
from .geometry import IDENTITY, TOKEN_ROTATIONS, Cell, Rot, add, apply, compose, inverse, sub

if TYPE_CHECKING:
    from .mdl import Chain

FACE_VECTORS: tuple[Cell, ...] = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)

MOVER_PERIOD = 10
DEFAULT_FOLD_DELAY = 50

SCENARIO_NAMES = ("walker", "retainer", "shuttle")


class UnknownScenarioError(KinematicsError):
    def __init__(self, name: str):
        super().__init__(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
        self.name = name


def _adjacent(a: Cell, b: Cell) -> bool:
    return sub(a, b) in FACE_VECTORS


class _BlockFields(NamedTuple):
    id: int
    kind: str
    cell: Cell
    orientation: Rot = IDENTITY
    anchored: bool = False
    face: int | None = None
    mover_phase: int | None = None
    dissolve_due: int | None = None
    chain_index: int | None = None


class BlockInstance(_BlockFields):
    __slots__ = ()

    def __new__(cls, *args, **fields):
        self = super().__new__(cls, *args, **fields)
        if (self.face is not None) != (self.kind in ("M", "G")):
            raise KinematicsError("M and G blocks, and only they, have a face")
        if self.face is not None and not 0 <= self.face < 6:
            raise KinematicsError(f"face index {self.face} out of range")
        if self.mover_phase is not None and not 0 <= self.mover_phase < MOVER_PERIOD:
            raise KinematicsError(f"phase {self.mover_phase} out of range")
        if self.dissolve_due is not None and self.kind != "d":
            raise KinematicsError("only d blocks dissolve")
        return self

    def absolute_face(self) -> Cell:
        return apply(self.orientation, FACE_VECTORS[self.face])


class FoldEvent(NamedTuple):
    chain_index: int
    due_tick: int


class _WorldFields(NamedTuple):
    blocks: dict[int, BlockInstance]
    bonds: frozenset[frozenset[int]]
    time: int = 0
    pending_folds: tuple[FoldEvent, ...] = ()


class World(_WorldFields):
    __slots__ = ()

    def __new__(cls, *args, **fields):
        self = super().__new__(cls, *args, **fields)
        check_world(self)
        return self


def check_world(world: World) -> None:
    """Raise KinematicsError on shared cells, mis-keyed blocks, bad folds or bonds."""
    cells: set[Cell] = set()
    for key, b in world.blocks.items():
        if key != b.id:
            raise KinematicsError(f"block {b.id} is filed under key {key}")
        if b.cell in cells:
            raise KinematicsError(f"two blocks share cell {b.cell}")
        cells.add(b.cell)
    # the tick skips a fold that names no block, but has no turn for a non-hinge kind
    kinds = {b.chain_index: b.kind for b in world.blocks.values()} if world.pending_folds else {}
    for ev in world.pending_folds:
        kind = kinds.get(ev.chain_index)
        if kind is not None and kind not in TOKEN_ROTATIONS:
            raise KinematicsError(f"fold at chain index {ev.chain_index} names a {kind} block")
    for bond in world.bonds:
        if not (isinstance(bond, frozenset) and len(bond) == 2):
            raise KinematicsError(f"bond {bond!r} is not a frozenset of two block ids")
        a, b = bond
        if a not in world.blocks or b not in world.blocks:
            problem = "names a missing block"
        elif not _adjacent(world.blocks[a].cell, world.blocks[b].cell):
            problem = "joins non-adjacent cells"
        else:
            continue
        raise KinematicsError(f"bond {min(a, b)}-{max(a, b)} {problem}")


def world_from_chain(
    chain: Chain | str,
    fold_delay: int = DEFAULT_FOLD_DELAY,
    seed: int = 0,
) -> World:
    """Lay the chain out straight and schedule its folds and dissolves.

    Block j starts at (n-1-j, 0, 0), matching the unfolded frame of the
    static folder; neighbours are bonded. Rotating tokens fold one per
    tick starting at fold_delay; each dissolvable's timer starts at fold
    completion and runs for its delay. Mover phases that are not digits
    are drawn in chain order from one Generator, seeded at the first draw
    so that chains with no drawn phase never load numpy. A mover or gluer
    without a face digit is refused.
    """
    if isinstance(chain, str):
        from .mdl import parse_mdl

        chain = parse_mdl(chain)
    n = len(chain)
    rng = None
    folds = []
    hinge_no = 0
    for j, t in enumerate(chain):
        if t.kind in TOKEN_ROTATIONS:
            folds.append(FoldEvent(chain_index=j, due_tick=fold_delay + hinge_no))
            hinge_no += 1
    completion = (folds[-1].due_tick + 2) if folds else fold_delay
    blocks: dict[int, BlockInstance] = {}
    for j, t in enumerate(chain):
        if t.kind in "MG" and t.face is None:
            role = "mover" if t.kind == "M" else "gluer"
            raise KinematicsError(f"{role} {t.canonical} needs a face digit 0-5")
        phase = t.phase
        if t.kind == "M" and phase is None:
            if rng is None:
                import numpy as np

                rng = np.random.default_rng(seed)
            phase = int(rng.integers(0, MOVER_PERIOD))
        blocks[j] = BlockInstance(
            id=j,
            kind=t.kind,
            cell=(n - 1 - j, 0, 0),
            face=t.face,
            mover_phase=phase,
            dissolve_due=None if t.delay is None else completion + t.delay,
            chain_index=j,
        )
    bonds = frozenset(frozenset((j, j + 1)) for j in range(n - 1))
    return World(blocks=blocks, bonds=bonds, pending_folds=tuple(folds))


def _apply_dissolves(
    blocks: dict[int, BlockInstance],
    bonds: set[frozenset[int]],
    now: int,
) -> None:
    gone = [
        i
        for i, b in blocks.items()
        if b.dissolve_due is not None and b.dissolve_due <= now
    ]
    for i in gone:
        del blocks[i]
    if gone:
        dead = set(gone)
        bonds.difference_update({p for p in bonds if p & dead})


def _move(
    blocks: dict[int, BlockInstance],
    occupancy: dict[Cell, int],
    moved: list[BlockInstance],
) -> bool:
    """Place the moved blocks; False, changing nothing, when a block that
    stays put holds one of their cells."""
    ids = {b.id for b in moved}
    if any(occupancy.get(b.cell, b.id) not in ids for b in moved):
        return False
    for b in moved:
        del occupancy[blocks[b.id].cell]
    for b in moved:
        blocks[b.id] = b
        occupancy[b.cell] = b.id
    return True


def _try_fold(
    blocks: dict[int, BlockInstance],
    occupancy: dict[Cell, int],
    bonds: set[frozenset[int]],
    hinge: BlockInstance,
) -> bool:
    """Rotate chain ids below the hinge about its cell; False, changing
    nothing, when one of them is anchored, a block is in the way or a
    bond would tear."""
    w = compose(
        compose(hinge.orientation, TOKEN_ROTATIONS[hinge.kind]),
        inverse(hinge.orientation),
    )
    pivot = hinge.cell
    turned = [
        b._replace(
            cell=add(pivot, apply(w, sub(b.cell, pivot))),
            orientation=compose(w, b.orientation),
        )
        for b in blocks.values()
        if b.chain_index is not None and b.chain_index < hinge.chain_index
    ]
    if any(b.anchored for b in turned):
        return False
    cell = {b.id: b.cell for b in turned}
    for a, b in bonds:
        if (a in cell) != (b in cell) and not _adjacent(
            cell.get(a, blocks[a].cell), cell.get(b, blocks[b].cell)
        ):
            return False
    return _move(blocks, occupancy, turned)


def _due_movers(blocks: dict[int, BlockInstance], now: int) -> list[tuple[int, int]]:
    """(face index, id) of the movers on this tick's phase, in firing order.
    Pushes only translate, so no face changes while the movers fire."""
    return sorted(
        (FACE_VECTORS.index(b.absolute_face()), b.id)
        for b in blocks.values()
        if b.kind == "M" and b.mover_phase == now % MOVER_PERIOD
    )


def _group(bonded: dict[int, list[int]], block_id: int) -> set[int]:
    """Connected glue component; singleton when unbonded."""
    seen = {block_id}
    frontier = [block_id]
    while frontier:
        for nxt in bonded.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def step_world(world: World) -> World:
    """One tick: dissolve, fold, move, glue. Always returns a fresh world;
    its bonds are `world.bonds` itself when the tick changed none."""
    now = world.time
    blocks = dict(world.blocks)
    bonds = set(world.bonds)

    _apply_dissolves(blocks, bonds, now)
    occupancy = {b.cell: i for i, b in blocks.items()}

    indexed = blocks.items() if world.pending_folds else ()
    hinge_id = {b.chain_index: i for i, b in indexed if b.chain_index is not None}
    still_pending: list[FoldEvent] = []
    for ev in sorted(world.pending_folds, key=lambda e: (e.due_tick, e.chain_index)):
        if ev.chain_index not in hinge_id:
            continue  # no block has this chain index
        if ev.due_tick > now:
            still_pending.append(ev)
        elif not _try_fold(blocks, occupancy, bonds, blocks[hinge_id[ev.chain_index]]):
            still_pending.append(FoldEvent(ev.chain_index, now + 1))

    due = _due_movers(blocks, now)
    bonded: dict[int, list[int]] = {}
    if due:
        for a, b in bonds:
            bonded.setdefault(a, []).append(b)
            bonded.setdefault(b, []).append(a)
    for face, mover in due:
        delta = FACE_VECTORS[face]
        tid = occupancy.get(add(blocks[mover].cell, delta))
        own = _group(bonded, mover)
        if tid in own:
            continue  # a mover cannot shove its own group
        group = own if tid is None else _group(bonded, tid)
        if not any(blocks[i].anchored for i in group):
            shifted = [blocks[i]._replace(cell=add(blocks[i].cell, delta)) for i in group]
            _move(blocks, occupancy, shifted)

    for b in blocks.values():
        if b.kind == "G":
            nid = occupancy.get(add(b.cell, b.absolute_face()))
            if nid is not None:
                bonds.add(frozenset((b.id, nid)))

    # run_scenario's period keys hold every tick's bonds: share, not copy
    bonds = world.bonds if bonds == world.bonds else frozenset(bonds)
    return World._make((blocks, bonds, now + 1, tuple(still_pending)))  # unchecked


def run_world(world: World, ticks: int) -> World:
    if ticks < 0:
        raise ValueError(f"ticks must not be negative, got {ticks}")
    for _ in range(ticks):
        world = step_world(world)
    return world


# --- scenario templates -------------------------------------------------

_WALKER_PHASE_X = 5
_RETAINER_PHASE_Z = 8
_RELEASE_TICK = 13
_SHUTTLE_PHASE_L = 2
_SHUTTLE_PHASE_R = 7
_MIN_LENGTH = {"walker": 5, "retainer": 4, "shuttle": 3}


def build_scenario(name: str, length: int = 8) -> tuple[World, dict]:
    """Hand-placed idealized templates, fixed by `name` and `length`; meta
    names the blocks and cells `run_scenario` reads.

    All three sit on one anchored, chain-bonded track along x; the walker
    and the retainer pull the same leashed carriage. Ids follow placement
    order.
    """
    if name not in SCENARIO_NAMES:
        raise UnknownScenarioError(name)
    if length < 0:
        raise ValueError(f"length must not be negative, got {length}")
    if length < _MIN_LENGTH[name]:
        raise KinematicsError(f"{name} needs length >= {_MIN_LENGTH[name]}")
    blocks: dict[int, BlockInstance] = {}
    bonds: set[frozenset[int]] = set()

    def place(kind: str, cell: Cell, bond_to: int | None = None, **fields) -> int:
        bid = len(blocks)
        blocks[bid] = BlockInstance(id=bid, kind=kind, cell=cell, **fields)
        if bond_to is not None:
            bonds.add(frozenset((bid, bond_to)))
        return bid

    def carriage() -> tuple[int, int]:
        """Leash (bonded to track block 0 until it dissolves), body, x-mover."""
        leash = place("d", (0, 0, 1), 0, dissolve_due=_RELEASE_TICK)
        body = place("b", (1, 0, 1), leash)
        return body, place("M", (2, 0, 1), body, face=0, mover_phase=_WALKER_PHASE_X)

    prev = None
    for x in range(length + 3 if name == "retainer" else length):
        prev = place("b", (x, 0, 0), prev, anchored=True)

    if name == "walker":
        place("b", (length - 1, 0, 1), anchored=True)  # wall at the track end
        _, mover = carriage()
        meta = {"mover_id": mover, "track_end": length - 2}
    elif name == "retainer":
        for x in range(1, length):
            place("b", (x, 0, 3), anchored=True)  # roof
        for z in range(1, 9):  # post at the track end stops the carriage
            place("b", (length + 2, 0, z), anchored=True)
        body, _ = carriage()
        payload = place("M", (1, 0, 2), body, face=4, mover_phase=_RETAINER_PHASE_Z)
        meta = {
            "payload_id": payload,
            "start_z": 2,
            "track_end": length,  # payload x once the carriage parks
        }
    else:
        place("M", (-1, 0, 1), anchored=True, face=0, mover_phase=_SHUTTLE_PHASE_L)
        place("M", (length, 0, 1), anchored=True, face=1, mover_phase=_SHUTTLE_PHASE_R)
        car, prev = len(blocks), None
        for x in range(length - 1):
            prev = place("b", (x, 0, 1), prev)
        meta = {
            "car_ids": frozenset(range(car, len(blocks))),
            "left_end": 0,
            "right_end": length - 1,
        }
    meta["default_ticks"] = MOVER_PERIOD * length + (60 if name == "shuttle" else 40)
    return World(blocks=blocks, bonds=frozenset(bonds)), meta


class ScenarioTrace(NamedTuple):
    name: str
    length: int
    seed: int
    ticks: int
    frames: tuple[dict[int, Cell], ...]
    events: tuple[str, ...]
    period: int | None
    result: dict


def _state_key(world: World, cells: dict[int, Cell]) -> tuple:
    """Repeatable state: the frame's cells (the blocks that can move), bonds,
    tick phase, and countdowns made relative. An anchored block never changes
    cell, so it shows only through its dissolve countdown, if it has one."""
    dues = tuple(
        sorted(
            (i, b.dissolve_due - world.time)
            for i, b in world.blocks.items()
            if b.dissolve_due is not None
        )
    )
    folds = tuple(
        (e.chain_index, e.due_tick - world.time) for e in world.pending_folds
    )
    return (tuple(cells.items()), world.bonds, world.time % MOVER_PERIOD, dues, folds)


def run_scenario(
    name: str,
    length: int = 8,
    ticks: int | None = None,
    seed: int = 0,
) -> ScenarioTrace:
    """Simulate a named template and summarize what the tests assert on.

    The trace's frame `t` is tick `t`'s map of mobile-block cells.
    Periodicity is detected on the repeatable world state (`_state_key`),
    never assumed. Stepping stops at the first repeat; each later frame is
    the very map of the frame one period before it, and no event follows.
    """
    if ticks is not None and ticks < 0:
        raise ValueError(f"ticks must not be negative, got {ticks}")
    world, meta = build_scenario(name, length=length)
    total = ticks if ticks is not None else meta["default_ticks"]
    mobile = [i for i, b in world.blocks.items() if not b.anchored]
    frames = []
    events = []
    seen: dict[tuple, int] = {}
    period = None
    for t in range(total + 1):
        cells = {i: world.blocks[i].cell for i in mobile if i in world.blocks}
        frames.append(cells)
        key = _state_key(world, cells)
        if key in seen:
            period = world.time - seen[key]
            events.append(f"period {period} detected at tick {world.time}")
            break
        seen[key] = world.time
        if t == total:
            break
        before, world = world, step_world(world)
        for i in sorted(before.blocks.keys() - world.blocks.keys()):
            events.append(f"block {i} dissolved at tick {before.time}")
    for t in range(len(frames), total + 1):
        frames.append(frames[t - period])

    result: dict = {"name": name, "length": length}
    if name == "walker":
        xs = [f[meta["mover_id"]][0] for f in frames]
        result.update(
            track_end=meta["track_end"],
            final_position=xs[-1],
            reached_end=xs[-1] == meta["track_end"],
            stopped=len({x for x in xs[-MOVER_PERIOD - 1 :]}) == 1,
            positions=xs,
        )
    elif name == "retainer":
        zs = [f[meta["payload_id"]][2] - meta["start_z"] for f in frames]
        xs = [f[meta["payload_id"]][0] for f in frames]
        first = next((k for k, dz in enumerate(zs) if dz > 0), None)
        result.update(
            track_end=meta["track_end"],
            first_lift_tick=first,
            x_at_first_lift=xs[first] if first is not None else None,
            final_rise=zs[-1],
            rises=zs,
            positions=xs,
        )
    else:
        maps = {id(f): f for f in frames}  # a replayed frame is the map it repeats
        xs = {k: [c[0] for i, c in m.items() if i in meta["car_ids"]] for k, m in maps.items()}
        span = {k: (min(v), max(v)) for k, v in xs.items()}
        spans = [span[id(f)] for f in frames]
        result.update(
            left_end=meta["left_end"],
            right_end=meta["right_end"],
            touched_left=any(lo == meta["left_end"] for lo, _ in spans),
            touched_right=any(hi == meta["right_end"] for _, hi in spans),
            spans=spans,
        )
    return ScenarioTrace(
        name=name,
        length=length,
        seed=seed,
        ticks=total,
        frames=tuple(frames),
        events=tuple(events),
        period=period,
        result=result,
    )


def _trace_json(trace: ScenarioTrace, **frames) -> dict:
    """A trace's JSON fields, `frames` standing for the frames, minus the per-tick results."""
    return {
        "name": trace.name,
        "length": trace.length,
        "seed": trace.seed,
        "ticks": trace.ticks,
        "period": trace.period,
        "events": list(trace.events),
        **frames,
        "result": {
            k: v for k, v in trace.result.items() if k not in ("positions", "rises", "spans")
        },
    }


def trace_to_json_dict(trace: ScenarioTrace) -> dict:
    frames = [
        {"tick": t, "cells": {str(i): list(c) for i, c in cells.items()}}
        for t, cells in enumerate(trace.frames)
    ]
    return _trace_json(trace, frames=frames)


def trace_summary(trace: ScenarioTrace) -> dict:
    return _trace_json(trace, frame_count=len(trace.frames))


def write_trace(trace: ScenarioTrace, fh) -> None:
    """Write `trace_to_json_dict(trace)` into `fh` as sorted 2-space JSON and a newline."""
    json.dump(trace_to_json_dict(trace), fh, indent=2, sort_keys=True)
    fh.write("\n")

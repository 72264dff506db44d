"""Discrete-time block world for the track-bound machine scenarios.

A world is a set of lattice-exclusive block instances with glue bonds,
stepped on a global tick. Per tick, in order: due dissolvables vanish,
due chain folds rotate their upstream sub-chain, movers on their phase
push or carry, gluers bond across their active face. Blocked actions are
no-ops (folds retry next tick); there is no other failure mode.

Movers fire every ten ticks on their phase digit. A mover facing another
group shoves that group one cell; a mover facing empty space carries its
own bonded group instead, which is what lets a walker carry its engine.
Anchored blocks pin their whole group.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .folding import TOKEN_ROTATIONS, fold
from .geometry import IDENTITY, Cell, Rot, apply, compose, inverse
from .mdl import Chain, Token, parse_mdl

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
DEFAULT_DISSOLVE_DIGIT = 10

SCENARIO_NAMES = ("walker", "retainer", "shuttle")


class KinematicsError(Exception):
    pass


class UnknownScenarioError(KinematicsError):
    def __init__(self, name: str):
        super().__init__(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
        self.name = name


def _vadd(a: Cell, b: Cell) -> Cell:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _vsub(a: Cell, b: Cell) -> Cell:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


@dataclass(frozen=True)
class BlockInstance:
    id: int
    kind: str
    cell: Cell
    orientation: Rot = IDENTITY
    anchored: bool = False
    mover_face: int | None = None
    mover_phase: int | None = None
    dissolve_due: int | None = None
    chain_index: int | None = None

    def __post_init__(self) -> None:
        if (self.mover_face is not None) != (self.kind == "M"):
            raise KinematicsError("mover fields belong to M blocks only")
        if self.mover_face is not None and not 0 <= self.mover_face < 6:
            raise KinematicsError(f"face index {self.mover_face} out of range")
        if self.mover_phase is not None and not 0 <= self.mover_phase < MOVER_PERIOD:
            raise KinematicsError(f"phase {self.mover_phase} out of range")
        if self.dissolve_due is not None and self.kind != "d":
            raise KinematicsError("only d blocks dissolve")

    def absolute_face(self) -> Cell:
        if self.mover_face is None and self.kind not in "MG":
            raise KinematicsError(f"{self.kind} has no active face")
        idx = self.mover_face if self.mover_face is not None else 0
        return apply(self.orientation, FACE_VECTORS[idx])


@dataclass(frozen=True)
class FoldEvent:
    chain_index: int
    due_tick: int


@dataclass(frozen=True)
class World:
    blocks: dict[int, BlockInstance]
    bonds: frozenset[frozenset[int]]
    time: int = 0
    pending_folds: tuple[FoldEvent, ...] = ()
    occupancy: dict[Cell, int] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        occ: dict[Cell, int] = {}
        for b in self.blocks.values():
            if b.cell in occ:
                raise KinematicsError(f"two blocks share cell {b.cell}")
            occ[b.cell] = b.id
        object.__setattr__(self, "occupancy", occ)
        for pair in self.bonds:
            a, b = sorted(pair)
            if a not in self.blocks or b not in self.blocks:
                raise KinematicsError(f"bond {a}-{b} names a missing block")
            d = _vsub(self.blocks[a].cell, self.blocks[b].cell)
            if sorted(map(abs, d)) != [0, 0, 1]:
                raise KinematicsError(f"bond {a}-{b} joins non-adjacent cells")

    def bond_cells(self) -> set[frozenset[Cell]]:
        return {
            frozenset((self.blocks[a].cell, self.blocks[b].cell))
            for a, b in (tuple(p) for p in self.bonds)
        }

    def group_of(self, block_id: int) -> frozenset[int]:
        """Connected glue component; singleton when unbonded."""
        seen = {block_id}
        frontier = [block_id]
        adj: dict[int, list[int]] = {}
        for pair in self.bonds:
            a, b = tuple(pair)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while frontier:
            cur = frontier.pop()
            for nxt in adj.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def anchored_group(self, group: frozenset[int]) -> bool:
        return any(self.blocks[i].anchored for i in group)


def _draw_phase(rng: np.random.Generator) -> int:
    return int(rng.integers(0, MOVER_PERIOD))


def _mover_fields(token: Token, rng: np.random.Generator) -> tuple[int, int]:
    face = int(token.params[0]) if token.params[0].isdigit() else 0
    if face > 5:
        raise KinematicsError(f"face digit {face} out of range in {token.canonical}")
    phase = (
        int(token.params[1]) if token.params[1].isdigit() else _draw_phase(rng)
    )
    return face, phase


def world_from_chain(
    chain: Chain | str,
    fold_delay: int = DEFAULT_FOLD_DELAY,
    seed: int = 0,
) -> World:
    """Lay the chain out straight and schedule its folds and dissolves.

    Block j starts at (n-1-j, 0, 0), matching the unfolded frame of the
    static folder; neighbours are bonded. Rotating tokens fold one per
    tick starting at fold_delay; each dissolvable's timer starts at fold
    completion and runs for its first parameter digit.
    """
    chain = parse_mdl(chain) if isinstance(chain, str) else chain
    n = len(chain)
    rng = np.random.default_rng(seed)
    folds = []
    hinge_no = 0
    for j, t in enumerate(chain):
        if t.kind in TOKEN_ROTATIONS:
            folds.append(FoldEvent(chain_index=j, due_tick=fold_delay + hinge_no))
            hinge_no += 1
    completion = (folds[-1].due_tick + 2) if folds else fold_delay
    blocks: dict[int, BlockInstance] = {}
    for j, t in enumerate(chain):
        face = phase = due = None
        if t.kind == "M":
            face, phase = _mover_fields(t, rng)
        if t.kind == "d":
            digit = (
                int(t.params[0]) if t.params[0].isdigit() else DEFAULT_DISSOLVE_DIGIT
            )
            due = completion + digit
        blocks[j] = BlockInstance(
            id=j,
            kind=t.kind,
            cell=(n - 1 - j, 0, 0),
            mover_face=face,
            mover_phase=phase,
            dissolve_due=due,
            chain_index=j,
        )
    bonds = frozenset(frozenset((j, j + 1)) for j in range(n - 1))
    return World(blocks=blocks, bonds=bonds, pending_folds=tuple(folds))


def folding_complete(world: World) -> bool:
    return not world.pending_folds


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


def _try_fold(
    blocks: dict[int, BlockInstance],
    event: FoldEvent,
    hinge_rotation: Rot,
) -> bool:
    """Rotate chain ids below the hinge about its cell; False when blocked."""
    q = event.chain_index
    pivotblk = None
    movers = []
    others = set()
    for b in blocks.values():
        if b.chain_index == q:
            pivotblk = b
        if b.chain_index is not None and b.chain_index < q:
            movers.append(b)
        else:
            others.add(b.cell)
    if pivotblk is None:
        return True
    w = compose(
        compose(pivotblk.orientation, hinge_rotation), inverse(pivotblk.orientation)
    )
    pivot = pivotblk.cell
    dests = {
        b.id: _vadd(pivot, apply(w, _vsub(b.cell, pivot))) for b in movers
    }
    if any(c in others for c in dests.values()):
        return False
    for b in movers:
        blocks[b.id] = replace(
            b, cell=dests[b.id], orientation=compose(w, b.orientation)
        )
    return True


def _due_movers(blocks: dict[int, BlockInstance], now: int) -> list[BlockInstance]:
    due = [
        b
        for b in blocks.values()
        if b.kind == "M" and b.mover_phase == now % MOVER_PERIOD
    ]
    face_of = {b.id: FACE_VECTORS.index(b.absolute_face()) for b in due}
    return sorted(due, key=lambda b: (face_of[b.id], b.id))


def _shift_group(
    blocks: dict[int, BlockInstance],
    group: frozenset[int],
    delta: Cell,
) -> bool:
    cells = {blocks[i].cell for i in group}
    occupied = {b.cell for b in blocks.values()}
    dests = {_vadd(blocks[i].cell, delta) for i in group}
    if (dests - cells) & occupied:
        return False
    for i in group:
        blocks[i] = replace(blocks[i], cell=_vadd(blocks[i].cell, delta))
    return True


def step_world(world: World) -> World:
    """One tick: dissolve, fold, move, glue. Always returns a fresh world."""
    now = world.time
    blocks = dict(world.blocks)
    bonds = set(world.bonds)

    _apply_dissolves(blocks, bonds, now)

    by_chain_index = {
        b.chain_index: b for b in blocks.values() if b.chain_index is not None
    }
    still_pending: list[FoldEvent] = []
    for ev in sorted(world.pending_folds, key=lambda e: (e.due_tick, e.chain_index)):
        hinge = by_chain_index.get(ev.chain_index)
        if hinge is None:
            continue  # hinge dissolved before it could fire
        if ev.due_tick > now:
            still_pending.append(ev)
        elif not _try_fold(blocks, ev, TOKEN_ROTATIONS[hinge.kind]):
            still_pending.append(FoldEvent(ev.chain_index, now + 1))

    for mover in _due_movers(blocks, now):
        if mover.id not in blocks:
            continue
        live = World(blocks=blocks, bonds=frozenset(bonds), time=now)
        cur = blocks[mover.id]
        delta = cur.absolute_face()
        target = _vadd(cur.cell, delta)
        own = live.group_of(cur.id)
        tid = live.occupancy.get(target)
        if tid is not None:
            tgroup = live.group_of(tid)
            if tgroup == own or live.anchored_group(tgroup):
                continue
            _shift_group(blocks, tgroup, delta)
        elif not live.anchored_group(own):
            _shift_group(blocks, own, delta)

    live = World(blocks=blocks, bonds=frozenset(bonds), time=now)
    for b in blocks.values():
        if b.kind != "G":
            continue
        near = _vadd(b.cell, b.absolute_face())
        nid = live.occupancy.get(near)
        if nid is not None and nid != b.id:
            bonds.add(frozenset((b.id, nid)))

    return World(
        blocks=blocks,
        bonds=frozenset(bonds),
        time=now + 1,
        pending_folds=tuple(still_pending),
    )


def run_world(world: World, ticks: int) -> World:
    for _ in range(ticks):
        world = step_world(world)
    return world


# --- scenario templates -------------------------------------------------

_WALKER_PHASE_X = 5
_RETAINER_PHASE_Z = 8
_RELEASE_TICK = 13
_SHUTTLE_PHASE_L = 2
_SHUTTLE_PHASE_R = 7


def _anchored_row(start_id, cells, kind="b"):
    return {
        start_id + k: BlockInstance(
            id=start_id + k, kind=kind, cell=c, anchored=True
        )
        for k, c in enumerate(cells)
    }


def build_scenario(name: str, length: int = 8, seed: int = 0) -> tuple[World, dict]:
    """Hand-placed idealized templates; meta names the cells tests care about."""
    if name not in SCENARIO_NAMES:
        raise UnknownScenarioError(name)
    if name == "walker":
        if length < 5:
            raise KinematicsError("walker needs length >= 5")
        blocks = _anchored_row(0, [(x, 0, 0) for x in range(length)])
        wall_id = length
        blocks[wall_id] = BlockInstance(
            id=wall_id, kind="b", cell=(length - 1, 0, 1), anchored=True
        )
        d_id, body_id, mover_id = length + 1, length + 2, length + 3
        blocks[d_id] = BlockInstance(
            id=d_id, kind="d", cell=(0, 0, 1), dissolve_due=_RELEASE_TICK
        )
        blocks[body_id] = BlockInstance(id=body_id, kind="b", cell=(1, 0, 1))
        blocks[mover_id] = BlockInstance(
            id=mover_id,
            kind="M",
            cell=(2, 0, 1),
            mover_face=0,
            mover_phase=_WALKER_PHASE_X,
        )
        bonds = frozenset(
            {
                frozenset((0, d_id)),  # leash to the track until release
                frozenset((d_id, body_id)),
                frozenset((body_id, mover_id)),
            }
            | {frozenset((i, i + 1)) for i in range(length - 1)}
        )
        meta = {
            "mover_id": mover_id,
            "walker_ids": (body_id, mover_id),
            "track_end": length - 2,
            "release_tick": _RELEASE_TICK,
            "default_ticks": MOVER_PERIOD * length + 40,
        }
        return World(blocks=blocks, bonds=bonds), meta

    if name == "retainer":
        if length < 4:
            raise KinematicsError("retainer needs length >= 4")
        track = [(x, 0, 0) for x in range(length + 3)]
        blocks = _anchored_row(0, track)
        nid = len(track)
        roof_cells = [(x, 0, 3) for x in range(1, length)]
        for c in roof_cells:
            blocks[nid] = BlockInstance(id=nid, kind="b", cell=c, anchored=True)
            nid += 1
        for z in range(1, 9):  # post at the track end stops the carriage
            blocks[nid] = BlockInstance(
                id=nid, kind="b", cell=(length + 2, 0, z), anchored=True
            )
            nid += 1
        d_id, body_id, mx_id, mz_id = nid, nid + 1, nid + 2, nid + 3
        blocks[d_id] = BlockInstance(
            id=d_id, kind="d", cell=(0, 0, 1), dissolve_due=_RELEASE_TICK
        )
        blocks[body_id] = BlockInstance(id=body_id, kind="b", cell=(1, 0, 1))
        blocks[mx_id] = BlockInstance(
            id=mx_id, kind="M", cell=(2, 0, 1), mover_face=0, mover_phase=_WALKER_PHASE_X
        )
        blocks[mz_id] = BlockInstance(
            id=mz_id, kind="M", cell=(1, 0, 2), mover_face=4, mover_phase=_RETAINER_PHASE_Z
        )
        bonds = frozenset(
            {
                frozenset((0, d_id)),
                frozenset((d_id, body_id)),
                frozenset((body_id, mx_id)),
                frozenset((body_id, mz_id)),
            }
            | {frozenset((i, i + 1)) for i in range(len(track) - 1)}
        )
        meta = {
            "payload_id": mz_id,
            "start_z": 2,
            "roof_span": (1, length - 1),
            "track_end": length,  # payload x once the carriage parks
            "release_tick": _RELEASE_TICK,
            "default_ticks": MOVER_PERIOD * length + 40,
        }
        return World(blocks=blocks, bonds=bonds), meta

    # shuttle
    if length < 3:
        raise KinematicsError("shuttle needs length >= 3")
    blocks = _anchored_row(0, [(x, 0, 0) for x in range(length)])
    left_id, right_id = length, length + 1
    blocks[left_id] = BlockInstance(
        id=left_id,
        kind="M",
        cell=(-1, 0, 1),
        anchored=True,
        mover_face=0,
        mover_phase=_SHUTTLE_PHASE_L,
    )
    blocks[right_id] = BlockInstance(
        id=right_id,
        kind="M",
        cell=(length, 0, 1),
        anchored=True,
        mover_face=1,
        mover_phase=_SHUTTLE_PHASE_R,
    )
    car_ids = list(range(length + 2, length + 2 + length - 1))
    car = {
        cid: BlockInstance(id=cid, kind="b", cell=(x, 0, 1))
        for x, cid in enumerate(car_ids)
    }
    blocks.update(car)
    bonds = frozenset(
        {frozenset((i, i + 1)) for i in range(length - 1)}
        | {frozenset((a, b)) for a, b in zip(car_ids, car_ids[1:])}
    )
    meta = {
        "car_ids": tuple(car_ids),
        "left_end": 0,
        "right_end": length - 1,
        "default_ticks": MOVER_PERIOD * length + 60,
    }
    return World(blocks=blocks, bonds=bonds), meta


@dataclass(frozen=True)
class Frame:
    tick: int
    cells: dict[int, Cell]


@dataclass(frozen=True)
class ScenarioTrace:
    name: str
    length: int
    seed: int
    ticks: int
    frames: tuple[Frame, ...]
    events: tuple[str, ...]
    period: int | None
    result: dict


def _state_key(world: World) -> tuple:
    """Full repeatable state: cells, tick phase, and countdowns made relative."""
    cells = tuple(sorted((i, b.cell) for i, b in world.blocks.items()))
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
    return (cells, world.time % MOVER_PERIOD, dues, folds)


def run_scenario(
    name: str,
    length: int = 8,
    ticks: int | None = None,
    seed: int = 0,
) -> ScenarioTrace:
    """Simulate a named template and summarize what the tests assert on.

    The trace records mobile-block cells per tick. Periodicity is detected
    on the full world state (cells plus tick phase), never assumed.
    """
    if ticks is not None and ticks < 0:
        raise ValueError(f"ticks must not be negative, got {ticks}")
    world, meta = build_scenario(name, length=length, seed=seed)
    total = ticks if ticks is not None else meta["default_ticks"]
    mobile = [i for i, b in world.blocks.items() if not b.anchored]
    frames = []
    events = []
    seen: dict[tuple, int] = {}
    period = None
    alive = set(world.blocks)
    for t in range(total + 1):
        frames.append(
            Frame(tick=world.time, cells={i: world.blocks[i].cell for i in mobile if i in world.blocks})
        )
        key = _state_key(world)
        if period is None:
            if key in seen:
                period = world.time - seen[key]
                events.append(f"period {period} detected at tick {world.time}")
            else:
                seen[key] = world.time
        if t == total:
            break
        world = step_world(world)
        vanished = alive - set(world.blocks)
        for i in sorted(vanished):
            events.append(f"block {i} dissolved at tick {world.time - 1}")
        alive = set(world.blocks)

    result: dict = {"name": name, "length": length}
    if name == "walker":
        xs = [f.cells[meta["mover_id"]][0] for f in frames]
        result.update(
            track_end=meta["track_end"],
            final_position=xs[-1],
            reached_end=xs[-1] == meta["track_end"],
            stopped=len({x for x in xs[-MOVER_PERIOD - 1 :]}) == 1,
            positions=xs,
        )
    elif name == "retainer":
        zs = [f.cells[meta["payload_id"]][2] - meta["start_z"] for f in frames]
        xs = [f.cells[meta["payload_id"]][0] for f in frames]
        first = next((k for k, dz in enumerate(zs) if dz > 0), None)
        result.update(
            track_end=meta["track_end"],
            first_lift_tick=frames[first].tick if first is not None else None,
            x_at_first_lift=xs[first] if first is not None else None,
            final_rise=zs[-1],
            rises=zs,
            positions=xs,
        )
    else:
        spans = [
            (min(c[0] for i, c in f.cells.items() if i in meta["car_ids"]),
             max(c[0] for i, c in f.cells.items() if i in meta["car_ids"]))
            for f in frames
        ]
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


def trace_to_json_dict(trace: ScenarioTrace) -> dict:
    return {
        "name": trace.name,
        "length": trace.length,
        "seed": trace.seed,
        "ticks": trace.ticks,
        "period": trace.period,
        "events": list(trace.events),
        "frames": [
            {"tick": f.tick, "cells": {str(i): list(c) for i, c in f.cells.items()}}
            for f in trace.frames
        ],
        "result": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in trace.result.items()
            if k not in ("positions", "rises", "spans")
        },
    }

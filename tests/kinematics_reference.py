"""Frozen reference tick for the block world, and a scenario loop over it.

This is the package's `step_world`, with its helpers, and `run_scenario` as
they stood before the engine was trimmed; they are kept here as the oracle
that `chainfold.kinematics` is checked against. It shares with the package
only the data types, the rotation table, the geometry helpers and the
scenario templates. `step_world` takes one addition that changes nothing
it returns: given a `hits` list, it appends the name of each of these as
it happens: "fold retried", "push blocked", "carry", "bonded group
shoved" and "bond formed".
"""

from chainfold.geometry import TOKEN_ROTATIONS, add, apply, compose, inverse, sub
from chainfold.kinematics import (
    FACE_VECTORS,
    MOVER_PERIOD,
    FoldEvent,
    ScenarioTrace,
    World,
    build_scenario,
)


def _adjacent(a, b):
    return sub(a, b) in FACE_VECTORS


def _apply_dissolves(blocks, bonds, now):
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


def _move(blocks, occupancy, moved):
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


def _try_fold(blocks, occupancy, bonds, hinge):
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


def _due_movers(blocks, now):
    due = [
        b
        for b in blocks.values()
        if b.kind == "M" and b.mover_phase == now % MOVER_PERIOD
    ]
    face_of = {b.id: FACE_VECTORS.index(b.absolute_face()) for b in due}
    return sorted(due, key=lambda b: (face_of[b.id], b.id))


def _group(bonded, block_id):
    """Connected glue component; singleton when unbonded."""
    seen = {block_id}
    frontier = [block_id]
    while frontier:
        for nxt in bonded.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def step_world(world, hits=None):
    """One tick: dissolve, fold, move, glue."""
    hits = [] if hits is None else hits
    now = world.time
    blocks = dict(world.blocks)
    bonds = set(world.bonds)

    _apply_dissolves(blocks, bonds, now)
    occupancy = {b.cell: i for i, b in blocks.items()}

    hinge_id = {b.chain_index: i for i, b in blocks.items() if b.chain_index is not None}
    still_pending = []
    for ev in sorted(world.pending_folds, key=lambda e: (e.due_tick, e.chain_index)):
        if ev.chain_index not in hinge_id:
            continue  # hinge dissolved before it could fire
        if ev.due_tick > now:
            still_pending.append(ev)
        elif not _try_fold(blocks, occupancy, bonds, blocks[hinge_id[ev.chain_index]]):
            still_pending.append(FoldEvent(ev.chain_index, now + 1))
            hits.append("fold retried")

    due = _due_movers(blocks, now)
    bonded = {}
    if due:
        for a, b in bonds:
            bonded.setdefault(a, []).append(b)
            bonded.setdefault(b, []).append(a)
    for mover in due:
        cur = blocks[mover.id]
        delta = cur.absolute_face()
        tid = occupancy.get(add(cur.cell, delta))
        own = _group(bonded, cur.id)
        if tid in own:
            continue  # a mover cannot shove its own group
        group = own if tid is None else _group(bonded, tid)
        if not any(blocks[i].anchored for i in group):
            shifted = [blocks[i]._replace(cell=add(blocks[i].cell, delta)) for i in group]
            if not _move(blocks, occupancy, shifted):
                hits.append("push blocked")
            elif tid is None:
                hits.append("carry")
            elif len(group) > 1:
                hits.append("bonded group shoved")
        else:
            hits.append("push blocked")

    for b in blocks.values():
        if b.kind == "G":
            nid = occupancy.get(add(b.cell, b.absolute_face()))
            if nid is not None:
                if frozenset((b.id, nid)) not in bonds:
                    hits.append("bond formed")
                bonds.add(frozenset((b.id, nid)))

    return World(
        blocks=blocks,
        bonds=world.bonds if bonds == world.bonds else frozenset(bonds),
        time=now + 1,
        pending_folds=tuple(still_pending),
    )


def _state_key(world):
    """Repeatable state: cells of the blocks that can move, bonds, tick
    phase, and countdowns made relative."""
    cells = tuple(
        sorted((i, b.cell) for i, b in world.blocks.items() if not b.anchored)
    )
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
    return (cells, world.bonds, world.time % MOVER_PERIOD, dues, folds)


def run_scenario(name, length=8, ticks=None, seed=0):
    """A named template stepped with the reference tick, summarized as
    `chainfold.kinematics.run_scenario` summarizes it."""
    world, meta = build_scenario(name, length=length)
    total = ticks if ticks is not None else meta["default_ticks"]
    mobile = [i for i, b in world.blocks.items() if not b.anchored]
    frames = []
    events = []
    seen = {}
    period = None
    alive = set(world.blocks)
    for t in range(total + 1):
        frames.append({i: world.blocks[i].cell for i in mobile if i in world.blocks})
        if period is None:
            key = _state_key(world)
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

    result = {"name": name, "length": length}
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
        spans = [
            (min(c[0] for i, c in f.items() if i in meta["car_ids"]),
             max(c[0] for i, c in f.items() if i in meta["car_ids"]))
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

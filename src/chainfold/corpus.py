"""The appendix chain corpus: versioned fixtures plus cross-machine stats.

Fixtures are verbatim transcriptions; anything hand-corrected must say so
(curated flag plus note). Verification re-checks each fixture against its
recorded expectations instead of trusting the manifest.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .mdl import Chain, MdlError, parse_mdl

if TYPE_CHECKING:  # the folder loads only when a fixture is verified
    from .folding import FoldedStructure

# the builder's hand-made counterpart fills a 4 x 5 x 7 scaffold
BUILD_VOLUME_BLOCKS = 140

# machines whose blocks the replication genome must spell out
GENOME_ROLES = ("copier", "decoder", "recycler", "sorter")


def fixtures_dir() -> Path:
    """The bundled corpus, which `directory=` and `--fixtures` replace."""
    return Path(__file__).parent / "fixtures"


class Fixture(NamedTuple):
    id: str
    mdl: str
    curated: bool
    note: str | None
    expected: dict

    @property
    def chain(self) -> Chain:
        return parse_mdl(self.mdl)

    @property
    def tags(self) -> dict:
        return self.expected.get("tags", {})


def load_manifest(directory: str | Path | None = None) -> dict[str, Fixture]:
    """The fixtures of `directory/manifest.json`; ValueError on another shape."""
    d = Path(directory) if directory is not None else fixtures_dir()
    manifest = d / "manifest.json"
    try:
        raw = json.loads(manifest.read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{manifest} nests JSON too deeply to read") from None
    items = raw.get("fixtures") if isinstance(raw, dict) else None
    if not isinstance(items, list):
        raise ValueError('a fixture manifest must be a JSON object with a "fixtures" list')
    out: dict[str, Fixture] = {}
    for i, item in enumerate(items):
        fields = item if isinstance(item, dict) else {}
        if not all(isinstance(fields.get(k), str) for k in ("id", "file")):
            raise ValueError(
                f'manifest entry {i} must be an object with a string "id" and "file"'
            )
        _check_expectations(i, item)
        fx = Fixture(
            id=item["id"],
            mdl=(d / item["file"]).read_text(encoding="utf-8"),
            curated=item.get("curated", False),
            note=item.get("note"),
            expected=item.get("expected", {}),
        )
        if fx.id in out:
            raise ValueError(f"duplicate fixture id {fx.id!r}")
        if fx.curated and not fx.note:
            raise ValueError(f"curated fixture {fx.id!r} has no correction note")
        out[fx.id] = fx
    return out


def _check_expectations(i: int, item: dict) -> None:
    """The types of the flags and expectations that loading and verification
    read: a string "false" would count as curated, a string "5" as a wrong
    token count."""
    expected = item.get("expected", {})
    if not isinstance(expected, dict):
        raise ValueError(f'manifest entry {i} has an "expected" that is not an object')
    for fields, key in ((item, "curated"), (expected, "collision_free")):
        if not isinstance(fields.get(key, False), bool):
            raise ValueError(f'manifest entry {i} has a "{key}" that is not true or false')
    count = expected.get("token_count", 0)
    if type(count) is not int or count < 0:
        raise ValueError(f'manifest entry {i} has a "token_count" that is not an int >= 0')
    _check_tags(i, expected.get("tags", {}))


def _check_tags(i: int, tags) -> None:
    """The shape of the tags that verification and the stats read."""
    if not isinstance(tags, dict):
        raise ValueError(f'manifest entry {i} has "tags" that are not an object')
    helix = tags.get("helix", {"lead": 0, "unit": 1})
    if not isinstance(helix, dict) or not all(
        type(helix.get(key)) is int and helix[key] >= low
        for key, low in (("lead", 0), ("unit", 1))
    ):
        raise ValueError(
            f'manifest entry {i} has a "helix" that is not an object with'
            ' an int "lead" >= 0 and an int "unit" >= 1'
        )
    for key in ("mirror_of", "machine_role"):
        if not isinstance(tags.get(key, ""), str):
            raise ValueError(f'manifest entry {i} has a "{key}" that is not a string')


def load_fixture(fixture_id: str, directory: str | Path | None = None) -> Fixture:
    corpus = load_manifest(directory)
    try:
        return corpus[fixture_id]
    except KeyError:
        raise KeyError(
            f"no fixture {fixture_id!r}; corpus has {len(corpus)} entries"
        ) from None


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


class VerifyReport(NamedTuple):
    fixture_id: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _helix_strides(structure: FoldedStructure, lead: int, unit: int):
    """Net displacement between successive repeat-unit anchors."""
    from .geometry import sub

    cells = structure.cells_by_index()
    starts = list(range(lead, len(cells), unit))
    return [sub(cells[b], cells[a]) for a, b in zip(starts, starts[1:])]


def _coplanar(cells) -> bool:
    from .geometry import cross, dot, sub

    cells = list(cells)
    if len(cells) < 4:
        return True
    origin = cells[0]
    u = None
    normal = None
    for c in cells[1:]:
        v = sub(c, origin)
        if v == (0, 0, 0):
            continue
        if u is None:
            u = v
            continue
        n = cross(u, v)
        if n != (0, 0, 0):
            normal = n
            break
    if normal is None:
        return True  # collinear
    return all(dot(normal, sub(c, origin)) == 0 for c in cells)


def _mirrored_cells(structure: FoldedStructure) -> dict[int, tuple]:
    from .geometry import MIRROR_Z, apply, bounding_box, sub

    raw = {i: apply(MIRROR_Z, c) for i, c in structure.cells_by_index().items()}
    if not raw:
        return raw
    lo = bounding_box(raw.values())[0]
    return {i: sub(c, lo) for i, c in raw.items()}


def verify_fixture(fixture: Fixture, corpus: dict[str, Fixture]) -> VerifyReport:
    """Re-derive every recorded expectation, reading a `mirror_of` partner
    from `corpus`; failures are reported, not raised."""
    from .folding import CollisionError, fold

    checks: list[Check] = []
    try:
        chain = parse_mdl(fixture.mdl)
    except MdlError as exc:
        return VerifyReport(fixture.id, (Check("parses", False, str(exc)),))
    checks.append(Check("parses", True, f"{len(chain)} tokens"))

    want_count = fixture.expected.get("token_count")
    if want_count is not None:
        checks.append(
            Check(
                "token_count",
                len(chain) == want_count,
                f"{len(chain)} counted, {want_count} recorded",
            )
        )

    structure = fold(chain, permissive=True)
    free = not structure.collisions
    fold_detail = "collision-free"
    if not free:
        first = structure.collisions[0]
        fold_detail = str(CollisionError(first.chain_index, first.occupied_by))
    want_free = fixture.expected.get("collision_free")
    if want_free is None:
        checks.append(Check("folds", True, fold_detail))
    else:
        checks.append(Check("collision_free", free == want_free, fold_detail))

    tags = fixture.tags
    if "helix" in tags:
        strides = _helix_strides(structure, tags["helix"]["lead"], tags["helix"]["unit"])
        ok = len(set(strides)) == 1 and len(strides) >= 2
        checks.append(Check("helix", ok, f"strides {sorted(set(strides))}"))
    if tags.get("sheet"):
        ok = _coplanar(structure.occupancy.keys())
        checks.append(Check("sheet", ok, "coplanar" if ok else "not coplanar"))
    if "mirror_of" in tags:
        other_id = tags["mirror_of"]
        try:
            other = fold(corpus[other_id].chain)
            ok = _mirrored_cells(other) == structure.cells_by_index()
            detail = f"z-mirror of {other_id}" if ok else f"differs from mirrored {other_id}"
        except (KeyError, MdlError, CollisionError) as exc:
            ok, detail = False, f"cannot mirror against {other_id}: {exc}"
        checks.append(Check("mirror_of", ok, detail))
    return VerifyReport(fixture.id, tuple(checks))


def verify_corpus(
    directory: str | Path | None = None,
) -> dict[str, VerifyReport]:
    corpus = load_manifest(directory)
    return {fid: verify_fixture(fx, corpus) for fid, fx in corpus.items()}


def corpus_stats(directory: str | Path | None = None) -> dict:
    """Block counts per machine, the two headline ratios, and the paper's
    type-reduction counts.

    The genome estimate charges one codon per block across the machines a
    self-replicator must describe (copier, decoder, recyclers, sorter).
    `type_reduction` quotes the paper's own counts as constants; nothing
    in it is computed from the corpus, whose gluers glue across three
    different faces (`G0_`, `G1_`, `G2_`) where `gluer_directions` says 1.
    """
    corpus = load_manifest(directory)
    counts = {fid: len(fx.chain) for fid, fx in corpus.items()}

    per_machine: dict[str, dict] = {}
    for fid, fx in corpus.items():
        role = fx.tags.get("machine_role")
        if role is None:
            continue
        entry = per_machine.setdefault(role, {"fixtures": [], "blocks": 0})
        entry["fixtures"].append(fid)
        entry["blocks"] += counts[fid]
    for entry in per_machine.values():
        entry["fixtures"].sort()

    builder_ratio = (
        BUILD_VOLUME_BLOCKS / counts["fig11a"] if counts.get("fig11a") else None
    )
    genome = sum(
        per_machine.get(role, {"blocks": 0})["blocks"] for role in GENOME_ROLES
    )
    fig31_lengths = {
        fid: n for fid, n in sorted(counts.items()) if fid.startswith("fig31")
    }
    return {
        "fixture_count": len(corpus),
        "per_machine_blocks": per_machine,
        "builder_ratio": builder_ratio,
        "genome_estimate_codons": genome,
        "fig31_lengths": fig31_lengths,
        "type_reduction": {
            "gluer_directions": {"before": 6, "after": 1},
            "mover_type_factor": 3,
            "sorter_type_factor": 2,
            "census_74_to_31": "composition not derivable from corpus alone",
        },
    }

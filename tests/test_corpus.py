import json
import shutil

import pytest

from chainfold.corpus import (
    GENOME_ROLES,
    corpus_stats,
    fixtures_dir,
    load_fixture,
    load_manifest,
    verify_corpus,
    verify_fixture,
)
from chainfold.folding import CollisionError, fold
from chainfold.mdl import parse_mdl, write_canonical

# recounted by hand from the source strings; the manifest must agree
HAND_COUNTS = {
    "fig4a": 5, "fig5a": 7, "fig5b": 7, "fig5c": 7, "fig5d": 7,
    "fig7a": 22, "fig7b": 22, "fig7c": 22,
    "fig8a": 27, "fig8b": 26, "fig8c": 30,
    "fig9a": 5, "fig9b": 5, "fig9c": 6, "fig9d": 7,
    "fig9e": 12, "fig9f": 10, "fig9g": 11, "fig9h": 10,
    "fig11a": 27, "fig11b": 37,
    "fig13a": 39, "fig13b": 47,
    "fig15a": 46, "fig15b": 52, "fig15c": 52, "fig15d": 58,
    "fig16a": 26, "fig16b": 26,
    "fig17b": 14, "fig17c": 20, "fig17c2": 12,
    "fig18a": 14, "fig18b": 16, "fig18c": 16, "fig18d": 18,
    "fig19": 63, "fig20": 35, "fig21": 55,
    "fig22a": 49, "fig22c": 29, "fig23": 17,
    "fig31a": 33, "fig31b": 40, "fig31c": 32, "fig31d": 32, "fig31e": 46,
    "fig32": 6,
}


@pytest.fixture(scope="module")
def corpus():
    return load_manifest()


def test_manifest_complete_and_unique(corpus):
    assert set(corpus) == set(HAND_COUNTS)
    assert len(corpus) == 48


def test_every_fixture_parses_with_known_kinds_only(corpus):
    for fx in corpus.values():
        chain = parse_mdl(fx.mdl)  # raises on any unknown kind
        assert len(chain) > 0


def test_token_counts_match_hand_recount(corpus):
    for fid, fx in corpus.items():
        assert len(fx.chain) == HAND_COUNTS[fid], fid
        assert fx.expected["token_count"] == HAND_COUNTS[fid], fid


def test_token_counts_survive_reformatting(corpus):
    for fx in corpus.values():
        chain = fx.chain
        assert parse_mdl(write_canonical(chain)) == chain
        spaced = " ".join(t.canonical for t in chain)
        assert parse_mdl(spaced) == chain


def test_collision_triage_tally(corpus):
    uncurated = [fx for fx in corpus.values() if not fx.curated]
    free = [fx for fx in uncurated if fx.expected["collision_free"]]
    assert len(free) >= 0.9 * len(uncurated)
    # current transcription folds clean across the board
    assert len(free) == len(uncurated) == 48


def test_curated_fixtures_carry_notes(corpus):
    for fx in corpus.values():
        if fx.curated:
            assert fx.note


def test_loader_rejects_unexplained_curation(tmp_path):
    shutil.copytree(fixtures_dir(), tmp_path / "fx")
    mpath = tmp_path / "fx" / "manifest.json"
    raw = json.loads(mpath.read_text())
    raw["fixtures"][0]["curated"] = True
    raw["fixtures"][0]["note"] = None
    mpath.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="note"):
        load_manifest(tmp_path / "fx")


def test_verify_corpus_all_green(corpus):
    reports = verify_corpus()
    assert set(reports) == set(corpus)
    for fid, report in reports.items():
        assert report.ok, (fid, [c for c in report.checks if not c.ok])


def test_helix_and_sheet_and_mirror_checks_present(corpus):
    names = {
        fid: [c.name for c in verify_fixture(fx, corpus).checks]
        for fid, fx in corpus.items()
    }
    assert "helix" in names["fig7a"]
    assert "helix" in names["fig7c"]
    assert "mirror_of" in names["fig7b"]
    assert "sheet" in names["fig8a"]
    assert "sheet" in names["fig8b"]
    assert "sheet" in names["fig8c"]


def test_verify_reports_failures_instead_of_raising(tmp_path, corpus):
    shutil.copytree(fixtures_dir(), tmp_path / "fx")
    (tmp_path / "fx" / "fig4a.mdl").write_text("b_b_b_H_b_b_\n")
    broken = load_manifest(tmp_path / "fx")
    report = verify_fixture(broken["fig4a"], broken)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert failed == {"token_count"}


def _write_manifest(directory, entries):
    (directory / "manifest.json").write_text(json.dumps({"fixtures": entries}))


def test_loader_rejects_a_duplicate_fixture_id(tmp_path):
    (tmp_path / "a.mdl").write_text("b_b_\n")
    _write_manifest(tmp_path, [{"id": "twice", "file": "a.mdl"}] * 2)
    with pytest.raises(ValueError, match="^duplicate fixture id 'twice'$"):
        load_manifest(tmp_path)


def test_verify_reports_unparsable_text_and_unknown_mirror(tmp_path):
    (tmp_path / "bad.mdl").write_text("b_Q_b_\n")  # Q is no block kind
    (tmp_path / "ok.mdl").write_text("b_H_b_\n")
    _write_manifest(
        tmp_path,
        [
            {"id": "bad", "file": "bad.mdl"},
            {"id": "lost", "file": "ok.mdl", "expected": {"tags": {"mirror_of": "fig99z"}}},
        ],
    )
    reports = verify_corpus(tmp_path)
    (parses,) = reports["bad"].checks
    assert (parses.name, parses.ok) == ("parses", False) and "Q" in parses.detail
    failed = [c for c in reports["lost"].checks if not c.ok]
    assert [(c.name, c.detail) for c in failed] == [
        ("mirror_of", "cannot mirror against fig99z: 'fig99z'")
    ]


@pytest.mark.parametrize(
    "partner,detail",
    [
        ("", "differs from mirrored partner"),
        ("b_Q", "cannot mirror against partner: unknown kind 'Q' at position 2"),
    ],
    ids=["empty", "unparsable"],
)
def test_verify_fails_mirror_of_against_an_empty_or_unparsable_partner(tmp_path, partner, detail):
    (tmp_path / "ok.mdl").write_text("b_H_b_\n")
    (tmp_path / "partner.mdl").write_text(partner)
    _write_manifest(
        tmp_path,
        [
            {"id": "ok", "file": "ok.mdl", "expected": {"tags": {"mirror_of": "partner"}}},
            {"id": "partner", "file": "partner.mdl"},
        ],
    )
    failed = [c for c in verify_corpus(tmp_path)["ok"].checks if not c.ok]
    assert [(c.name, c.detail) for c in failed] == [("mirror_of", detail)]


def test_verify_reads_collisions_from_one_permissive_fold(tmp_path):
    # no bundled fixture collides, so a two-entry manifest supplies one
    (tmp_path / "loop.mdl").write_text("b_H_H_H_b_\n")
    entries = [
        {"id": f"loop_{want}", "file": "loop.mdl", "expected": {"collision_free": want}}
        for want in (False, True)
    ]
    _write_manifest(tmp_path, entries)
    reports = verify_corpus(tmp_path)
    with pytest.raises(CollisionError) as strict:
        fold("b_H_H_H_b_")
    assert str(strict.value).startswith("collision at index 4:")
    for fid, ok in (("loop_False", True), ("loop_True", False)):
        (check,) = [c for c in reports[fid].checks if c.name == "collision_free"]
        assert check.ok is ok
        assert check.detail == str(strict.value)
    assert reports["loop_False"].ok and not reports["loop_True"].ok


def test_load_fixture_reads_the_named_directory(tmp_path):
    shutil.copytree(fixtures_dir(), tmp_path / "alt")
    (tmp_path / "alt" / "fig4a.mdl").write_text("b_b_\n")
    assert len(load_fixture("fig4a", directory=tmp_path / "alt").chain) == 2
    assert len(load_fixture("fig4a").chain) == 5


def test_load_fixture_unknown_id(corpus):
    with pytest.raises(KeyError, match="fig99z"):
        load_fixture("fig99z")


def test_builder_ratio_beats_five(corpus):
    stats = corpus_stats()
    assert stats["builder_ratio"] == pytest.approx(140 / 27)
    assert stats["builder_ratio"] >= 5.0


def test_builder_ratio_is_none_when_fig11a_has_no_tokens(tmp_path):
    (tmp_path / "empty.mdl").write_text("")
    _write_manifest(tmp_path, [{"id": "fig11a", "file": "empty.mdl"}])
    assert corpus_stats(tmp_path)["builder_ratio"] is None


def test_genome_estimate_in_band(corpus):
    stats = corpus_stats()
    genome = stats["genome_estimate_codons"]
    per = stats["per_machine_blocks"]
    assert genome == sum(per[r]["blocks"] for r in GENOME_ROLES)
    assert genome == 47 + (46 + 52 + 52 + 58) + (26 + 26) + (20 + 12)
    assert 300 <= genome <= 1500


def test_fig31_lengths_recorded_not_corrected(corpus):
    stats = corpus_stats()
    assert stats["fig31_lengths"] == {
        "fig31a": 33, "fig31b": 40, "fig31c": 32, "fig31d": 32, "fig31e": 46,
    }
    in_claimed_band = [n for n in stats["fig31_lengths"].values() if 33 <= n <= 40]
    assert in_claimed_band  # at least one variant inside the stated 33..40
    # fig31e falls outside; kept verbatim rather than trimmed to fit
    assert stats["fig31_lengths"]["fig31e"] == 46


def test_type_reduction_ratios(corpus):
    tr = corpus_stats()["type_reduction"]
    assert tr["gluer_directions"] == {"before": 6, "after": 1}
    assert tr["mover_type_factor"] == 3
    assert tr["sorter_type_factor"] == 2


def test_stats_fixture_count(corpus):
    assert corpus_stats()["fixture_count"] == 48

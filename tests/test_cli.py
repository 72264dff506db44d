import json
import shutil
import subprocess
import sys

import pytest

from chainfold.cli import DEFAULT_SEED, main
from chainfold.corpus import fixtures_dir

FIG4A = str(fixtures_dir() / "fig4a.mdl")
TAPE8 = str(fixtures_dir() / "tape8.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def loop9(tmp_path):
    p = tmp_path / "loop9.mdl"
    p.write_text("b_H_b_H_b_H_b_H_b_")
    return str(p)


def test_fold_ascii_renders_layers(capsys):
    code, out, _ = run_cli(capsys, "fold", FIG4A, "--format", "ascii")
    assert code == 0
    assert out.startswith("z=0")
    assert "bH" in out


def test_fold_collision_exits_two_with_index(capsys, loop9):
    code, out, err = run_cli(capsys, "fold", loop9)
    assert code == 2
    assert "collision at index 8" in err
    assert out == ""


def test_fold_permissive_reports_collisions(capsys, loop9):
    code, out, _ = run_cli(capsys, "fold", loop9, "--permissive", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["collisions"] == [{"chain_index": 8, "occupied_by": 0}]


def test_fold_empty_file_is_fine(capsys, tmp_path):
    p = tmp_path / "empty.mdl"
    p.write_text("")
    code, out, _ = run_cli(capsys, "fold", str(p))
    assert code == 0
    assert "empty" in out


def test_fold_json_structure(capsys):
    code, out, _ = run_cli(capsys, "fold", FIG4A, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["blocks"]) == 5
    assert data["collisions"] == []


def test_fold_obj_mesh_counts(capsys):
    code, out, _ = run_cli(capsys, "fold", FIG4A, "--format", "obj")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 40
    assert sum(1 for l in lines if l.startswith("f ")) == 30


def test_fold_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fold", str(tmp_path / "nope.mdl"))
    assert code == 1
    assert err


def test_fold_parse_error_exits_one(capsys, tmp_path):
    p = tmp_path / "bad.mdl"
    p.write_text("b_Q_b_")
    code, _, err = run_cli(capsys, "fold", str(p))
    assert code == 1
    assert "Q" in err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as e:
        main(["fold", FIG4A, "--frobnicate"])
    assert e.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1


def test_corpus_verify_table(capsys):
    code, out, _ = run_cli(capsys, "corpus", "verify")
    assert code == 0
    assert "48/48 fixtures pass" in out
    assert "fig11a" in out and "PASS" in out


def test_corpus_verify_json_all_ok(capsys):
    code, out, _ = run_cli(capsys, "corpus", "verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["fixtures"]) == 48
    assert all(v["ok"] for v in data["fixtures"].values())


def test_corpus_verify_flags_damage(capsys, tmp_path):
    shutil.copytree(fixtures_dir(), tmp_path / "fx")
    (tmp_path / "fx" / "fig4a.mdl").write_text("b_b_\n")
    code, out, _ = run_cli(capsys, "corpus", "verify", "--fixtures", str(tmp_path / "fx"))
    assert code == 2
    assert "FAIL" in out


def test_corpus_stats_builder_ratio(capsys):
    code, out, _ = run_cli(capsys, "corpus", "stats")
    assert code == 0
    data = json.loads(out)
    assert data["builder_ratio"] >= 5.0
    assert data["genome_estimate_codons"] == 339


def test_copy_tape8_faithful(capsys):
    code, out, _ = run_cli(capsys, "copy", "--tape", TAPE8, "--sparing", "one_side")
    assert code == 0
    data = json.loads(out)
    assert data["mutation_count"] == 0
    assert data["faithful"] is True
    assert len(data["output"]["entries"]) == 8


def test_copy_accepts_mdl_tapes(capsys, tmp_path):
    p = tmp_path / "tape.mdl"
    p.write_text("G0_H__L__b__")
    code, out, _ = run_cli(capsys, "copy", "--tape", str(p))
    assert code == 0
    data = json.loads(out)
    assert len(data["output"]["entries"]) == 4
    assert data["cycles"] >= 4
    assert data["faithful"] is True


def test_copy_cycle_budget_maps_to_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "copy", "--tape", TAPE8, "--max-cycles", "1"
    )
    assert code == 2
    assert "cycle" in err.lower()


def test_evolve_reports_analytic_and_hits(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--trials", "200000", "--seed", "5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["analytic"] == "1/7776"
    assert data["hits"] >= 0
    assert data["trials"] == 200000
    assert data["config"]["seed"] == 5


def test_evolve_rejects_tiny_alphabet(capsys):
    code, _, err = run_cli(capsys, "evolve", "--alphabet-size", "3")
    assert code == 1
    assert err


def test_evolve_rejects_alphabet_beyond_three_character_fillers(capsys):
    code, out, err = run_cli(capsys, "evolve", "--alphabet-size", "300")
    assert code == 1 and out == ""
    assert err == (
        "chainfold: alphabet of 300 entries needs fillers longer than 3 characters; "
        "at most 46 fit\n"
    )


def test_scenario_summary_and_trace_file(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys,
        "scenario", "--name", "shuttle", "--length", "4",
        "--ticks", "40", "--trace-out", str(trace_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert "frames" not in summary
    assert summary["frame_count"] == 41
    assert summary["period"] == 10
    full = json.loads(trace_path.read_text())
    assert len(full["frames"]) == 41


def test_scenario_unknown_name_exits_two(capsys):
    code, _, err = run_cli(capsys, "scenario", "--name", "conveyor")
    assert code == 2
    assert "conveyor" in err


def test_scenario_negative_ticks_exits_one(capsys):
    code, out, err = run_cli(capsys, "scenario", "--name", "walker", "--ticks", "-3")
    assert code == 1 and out == ""
    assert err == "chainfold: ticks must not be negative, got -3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("fold", FIG4A, "--format", "json"),
        ("corpus", "stats"),
        ("copy", "--tape", TAPE8, "--seed", str(DEFAULT_SEED)),
        ("evolve", "--trials", "100000", "--seed", str(DEFAULT_SEED)),
        ("scenario", "--name", "walker", "--length", "6"),
    ],
)
def test_json_output_byte_identical_across_runs(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "chainfold.cli", "corpus", "stats"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fixture_count"] == 48

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

import chainfold
from chainfold import cli, kinematics
from chainfold.cli import DEFAULT_SEED, main
from chainfold.corpus import fixtures_dir
from conftest import child_env

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


@pytest.mark.parametrize(
    "argv", [["fold"], ["scenario", "--name", "walker", "--trace-out"]], ids=["fold", "scenario"]
)
def test_an_over_long_path_is_echoed_in_part(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "x" * 60_000)
    assert code == 1 and out == ""
    assert re.fullmatch(r"chainfold: \[Errno \d+\] File name too long: 'x+\.\.\.'\n", err)
    assert len(err) < 300


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


def test_corpus_verify_of_an_empty_corpus(capsys, tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"fixtures": []}))
    code, out, err = run_cli(capsys, "corpus", "verify", "--fixtures", str(tmp_path))
    assert (code, out, err) == (0, "0/0 fixtures pass\n", "")
    code, out, _ = run_cli(capsys, "corpus", "verify", "--json", "--fixtures", str(tmp_path))
    assert (code, json.loads(out)) == (0, {"fixtures": {}})


@pytest.fixture()
def three_fixtures(tmp_path):
    """A fixture directory whose manifest lists the first three bundled fixtures."""
    bundled = Path(chainfold.__file__).parent / "fixtures"
    entries = json.loads((bundled / "manifest.json").read_text())["fixtures"][:3]
    for e in entries:
        shutil.copy(bundled / e["file"], tmp_path / e["file"])
    (tmp_path / "manifest.json").write_text(json.dumps({"fixtures": entries}))
    return str(tmp_path)


def test_corpus_verify_reads_the_fixtures_directory(capsys, three_fixtures):
    code, out, err = run_cli(capsys, "corpus", "verify", "--fixtures", three_fixtures)
    assert (code, out.splitlines()[-1], err) == (0, "3/3 fixtures pass", "")


def test_corpus_fixtures_naming_a_missing_directory_exits_one(capsys, tmp_path):
    code, out, err = run_cli(capsys, "corpus", "verify", "--fixtures", str(tmp_path / "missing"))
    assert (code, out) == (1, "")
    assert err.startswith("chainfold: ") and err.count("\n") == 1 and "missing" in err


@pytest.mark.parametrize(
    "partner,report",
    [
        (
            "",
            "ok       FAIL  mirror_of: differs from mirrored partner\n"
            "partner  PASS\n"
            "1/2 fixtures pass\n",
        ),
        (
            "b_Q",
            "ok       FAIL  mirror_of: cannot mirror against partner:"
            " unknown kind 'Q' at position 2\n"
            "partner  FAIL  parses: unknown kind 'Q' at position 2\n"
            "0/2 fixtures pass\n",
        ),
    ],
    ids=["empty", "unparsable"],
)
def test_corpus_verify_reports_a_broken_mirror_partner_and_exits_two(
    capsys, tmp_path, partner, report
):
    (tmp_path / "ok.mdl").write_text("b_H_b_\n")
    (tmp_path / "partner.mdl").write_text(partner)
    entries = [
        {"id": "ok", "file": "ok.mdl", "expected": {"tags": {"mirror_of": "partner"}}},
        {"id": "partner", "file": "partner.mdl"},
    ]
    (tmp_path / "manifest.json").write_text(json.dumps({"fixtures": entries}))
    code, out, err = run_cli(capsys, "corpus", "verify", "--fixtures", str(tmp_path))
    assert (code, out, err) == (2, report, "")


def test_corpus_stats_with_an_empty_fig11a_has_no_builder_ratio(capsys, tmp_path):
    (tmp_path / "empty.mdl").write_text("")
    entries = [{"id": "fig11a", "file": "empty.mdl"}]
    (tmp_path / "manifest.json").write_text(json.dumps({"fixtures": entries}))
    code, out, err = run_cli(capsys, "corpus", "stats", "--fixtures", str(tmp_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["builder_ratio"] is None


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
    assert data["backend"] == "numpy"


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


def test_copy_negative_cycle_budget_exits_one(capsys):
    # refused at parse time, before the copier loads numpy
    code, out, err = usage_error(capsys, "copy", "--tape", TAPE8, "--max-cycles", "-5")
    assert code == 1 and out == ""
    assert err == "chainfold copy: error: argument --max-cycles: must not be negative, got -5\n"


def test_copy_rejects_a_json_file_that_is_not_a_tape(capsys):
    manifest = str(fixtures_dir() / "manifest.json")
    code, out, err = run_cli(capsys, "copy", "--tape", manifest)
    assert code == 1 and out == ""
    assert err == 'chainfold: a tape must be a JSON object with an "entries" list\n'


def test_copy_rejects_tape_entries_that_are_not_objects(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"entries": [["zz", True]]}))
    code, out, err = run_cli(capsys, "copy", "--tape", str(p))
    assert code == 1 and out == ""
    assert err == 'chainfold: tape entry 0 must be an object with a string "kind"\n'


def test_copy_rejects_a_flip_that_is_not_a_boolean(capsys, tmp_path):
    # "false" is truthy, so it used to copy a flipped slot
    p = tmp_path / "string_flip.json"
    p.write_text(json.dumps({"entries": [{"kind": "G0_", "flipped": "false"}]}))
    code, out, err = run_cli(capsys, "copy", "--tape", str(p))
    assert code == 1 and out == ""
    assert err == 'chainfold: tape entry 0 has a "flipped" that is not true or false\n'


def test_copy_of_a_deeply_nested_json_tape_exits_one(capsys, tmp_path):
    # the JSON decoder raises RecursionError, which used to escape as a traceback
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "copy", "--tape", str(p))
    assert code == 1 and out == ""
    assert err == f"chainfold: {p} nests JSON too deeply to read\n"


@pytest.fixture()
def tape512(tmp_path):
    p = tmp_path / "tape512.json"
    kinds = ["G0_", "H__", "L__", "R__", "M1x", "b__"]
    entries = [{"kind": kinds[i % 6], "flipped": i % 5 == 0} for i in range(512)]
    p.write_text(json.dumps({"entries": entries}))
    return str(p)


@pytest.mark.parametrize(
    "case",
    [
        "tape8",
        "tape8-both-seed-2^70",
        "fig4a",
        "empty",
        "zero-budget",
        "budget-in-chunk-1",
        "budget-in-chunk-2",
        "unknown-kind",
    ],
)
def test_copy_prints_what_run_copy_computes(capsys, tmp_path, tape512, case):
    # `copy` draws through `seeded_copy`; numpy's `run_copy` is the reference
    from chainfold.copier import Sparing, SubunitProfile, run_copy
    from chainfold.encoding import tape_to_json_dict
    from chainfold.errors import DomainError

    empty, unknown = tmp_path / "empty.json", tmp_path / "unknown.json"
    empty.write_text(json.dumps({"entries": []}))
    unknown.write_text(json.dumps({"entries": [{"kind": "G0_"}, {"kind": "a"}]}))
    argv = {
        "tape8": ["--tape", TAPE8],
        "tape8-both-seed-2^70": ["--tape", TAPE8, "--sparing", "both_sides", "--seed", str(2**70)],
        "fig4a": ["--tape", FIG4A, "--seed", "3"],
        "empty": ["--tape", str(empty)],
        "zero-budget": ["--tape", TAPE8, "--max-cycles", "0"],
        # one_side takes about 20 draws a slot, so both budgets run out
        "budget-in-chunk-1": ["--tape", TAPE8, "--max-cycles", "20"],
        "budget-in-chunk-2": ["--tape", tape512, "--max-cycles", "6000"],
        "unknown-kind": ["--tape", str(unknown)],
    }[case]
    printed = run_cli(capsys, "copy", *argv)
    opts = dict(zip(argv[::2], argv[1::2]))
    budget = opts.get("--max-cycles")
    try:
        run = run_copy(
            cli._load_tape_file(opts["--tape"]),
            SubunitProfile(sparing=Sparing[opts.get("--sparing", "one_side").upper()]),
            seed=int(opts.get("--seed", DEFAULT_SEED)),
            max_cycles=None if budget is None else int(budget),
        )
    except DomainError as exc:
        assert printed == (2, "", f"chainfold: {exc}\n")
        assert case.startswith(("zero", "budget", "unknown"))
        if case == "unknown-kind":
            assert printed[2] == "chainfold: kind 'a' is not in the type registry\n"
        return
    code, out, err = printed
    assert (code, err) == (0, "") and not case.startswith(("zero", "budget", "unknown"))
    fields = json.loads(out)
    assert fields["output"] == tape_to_json_dict(run.output)
    assert (fields["cycles"], fields["mutations"]) == (run.cycles, list(run.mutations))
    assert fields["backend"] == "numpy"


def test_copy_unknown_kind_message_has_no_key_error_quotes(capsys, tmp_path):
    p = tmp_path / "unknown.json"
    p.write_text(json.dumps({"entries": [{"kind": "a"}]}))
    code, out, err = run_cli(capsys, "copy", "--tape", str(p))
    assert code == 2 and out == ""
    assert err == "chainfold: kind 'a' is not in the type registry\n"


def test_corpus_fixtures_that_are_a_file_exit_one(capsys):
    code, out, err = run_cli(capsys, "corpus", "stats", "--fixtures", FIG4A)
    assert code == 1 and out == ""
    assert err.startswith("chainfold: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "stats"])
@pytest.mark.parametrize(
    "manifest,message",
    [
        ({}, 'a fixture manifest must be a JSON object with a "fixtures" list'),
        ([1], 'a fixture manifest must be a JSON object with a "fixtures" list'),
        (
            {"fixtures": [{"id": "x"}]},
            'manifest entry 0 must be an object with a string "id" and "file"',
        ),
        (
            {"fixtures": [{"id": "x", "file": "x.mdl", "expected": 5}]},
            'manifest entry 0 has an "expected" that is not an object',
        ),
        # "false" is truthy, so it used to count as curated
        (
            {"fixtures": [{"id": "x", "file": "x.mdl", "curated": "false"}]},
            'manifest entry 0 has a "curated" that is not true or false',
        ),
        (
            {"fixtures": [{"id": "x", "file": "x.mdl", "expected": {"collision_free": "true"}}]},
            'manifest entry 0 has a "collision_free" that is not true or false',
        ),
        (
            {"fixtures": [{"id": "x", "file": "x.mdl", "expected": {"collision_free": 1}}]},
            'manifest entry 0 has a "collision_free" that is not true or false',
        ),
        (
            {"fixtures": [{"id": "x", "file": "x.mdl", "expected": {"token_count": "5"}}]},
            'manifest entry 0 has a "token_count" that is not an int >= 0',
        ),
        (
            {"fixtures": [{"id": "x", "file": "x.mdl", "expected": {"token_count": -1}}]},
            'manifest entry 0 has a "token_count" that is not an int >= 0',
        ),
        (
            {"fixtures": [{"id": "x", "file": "x.mdl", "expected": {"token_count": True}}]},
            'manifest entry 0 has a "token_count" that is not an int >= 0',
        ),
    ],
)
def test_corpus_malformed_manifest_exits_one(capsys, tmp_path, command, manifest, message):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "corpus", command, "--fixtures", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"chainfold: {message}\n"


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_corpus_deeply_nested_manifest_exits_one(capsys, tmp_path, command):
    (tmp_path / "manifest.json").write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "corpus", command, "--fixtures", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"chainfold: {tmp_path / 'manifest.json'} nests JSON too deeply to read\n"


HELIX_MESSAGE = (
    'manifest entry 0 has a "helix" that is not an object with'
    ' an int "lead" >= 0 and an int "unit" >= 1'
)


@pytest.mark.parametrize("command", ["verify", "stats"])
@pytest.mark.parametrize(
    "tags,message",
    [
        (5, 'manifest entry 0 has "tags" that are not an object'),
        ({"helix": 1}, HELIX_MESSAGE),
        ({"helix": {"lead": "x", "unit": 2}}, HELIX_MESSAGE),
        ({"helix": {"lead": 0, "unit": 0}}, HELIX_MESSAGE),
        ({"helix": {"lead": -1, "unit": 2}}, HELIX_MESSAGE),
        ({"helix": {"lead": 0, "unit": True}}, HELIX_MESSAGE),
        ({"mirror_of": ["a"]}, 'manifest entry 0 has a "mirror_of" that is not a string'),
        ({"machine_role": ["copier"]}, 'manifest entry 0 has a "machine_role" that is not a string'),
    ],
)
def test_corpus_malformed_manifest_tags_exit_one(capsys, tmp_path, command, tags, message):
    (tmp_path / "x.mdl").write_text("b_H_b_b_b_")
    entry = {"id": "x", "file": "x.mdl", "expected": {"tags": tags}}
    (tmp_path / "manifest.json").write_text(json.dumps({"fixtures": [entry]}))
    code, out, err = run_cli(capsys, "corpus", command, "--fixtures", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"chainfold: {message}\n"


def test_scenario_help_calls_the_seed_inert(capsys):
    with pytest.raises(SystemExit) as e:
        main(["scenario", "--help"])
    assert e.value.code == 0
    assert "draw nothing" in " ".join(capsys.readouterr().out.split())


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
    assert data["backend"] == "numpy"


@pytest.mark.parametrize(
    "argv",
    [
        ("--alphabet-size", "16", "--trials", "3000000", "--seed", "2"),
        ("--alphabet-size", "46", "--separator", "--seed", "9"),
        ("--alphabet-size", "7", "--separator", "--trials", "2000000", "--seed", "2"),
    ],
    ids=["16", "46-separator", "7-separator"],
)
def test_evolve_prints_the_hits_of_numpys_integers(capsys, integers_hits, argv):
    from chainfold.protoevolution import StreamExperiment, build_alphabet

    code, out, _ = run_cli(capsys, "evolve", *argv)
    assert code == 0
    config = json.loads(out)["config"]
    alphabet = build_alphabet(config["alphabet_size"], include_separator=config["separator"])
    exp = StreamExperiment(alphabet, config["separator"], config["trials"], config["seed"])
    assert json.loads(out)["hits"] == integers_hits(exp)


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


def test_an_interrupt_exits_130_with_one_line(capsys, monkeypatch):
    # the interrupt arrives mid-command, as a SIGINT during the draws would
    from chainfold import protoevolution

    def interrupted(exp):
        raise KeyboardInterrupt

    monkeypatch.setattr(protoevolution, "mhbbg_probability", interrupted)
    code, out, err = run_cli(capsys, "evolve", "--trials", "100")
    assert (code, out, err) == (130, "", "chainfold: interrupted\n")


def test_running_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    def exhausted(name, **kwargs):
        raise MemoryError

    monkeypatch.setattr(kinematics, "run_scenario", exhausted)
    code, out, err = run_cli(capsys, "scenario", "--name", "shuttle")
    assert (code, out, err) == (1, "", "chainfold: out of memory\n")


def test_the_out_of_memory_line_waits_for_the_failed_frames_to_be_freed(capsys, monkeypatch):
    # writing the line needs memory that the failed command's frames may hold,
    # and an exception being handled holds them through its traceback
    held, still_held, report = [], [], cli._report

    def exhausted(name, **kwargs):
        allocated = set()
        held.append(weakref.ref(allocated))
        raise MemoryError

    def reporting(line, code):
        still_held.append(held[0]() is not None)
        return report(line, code)

    monkeypatch.setattr(kinematics, "run_scenario", exhausted)
    monkeypatch.setattr(cli, "_report", reporting)
    code, out, err = run_cli(capsys, "scenario", "--name", "shuttle")
    assert (code, out, err, still_held) == (1, "", "chainfold: out of memory\n", [False])


# a child that caps its own address space 64 MiB above what it has mapped
# once chainfold is loaded; a shuttle replaying its period for 10^8 ticks
# appends frames until an allocation fails, in about half a second
_OUT_OF_MEMORY = textwrap.dedent(
    """
    import resource, sys
    from chainfold import cli, kinematics  # both loaded before the cap
    with open("/proc/self/status") as fh:
        mapped = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
    cap = mapped * 1024 + 64 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
    sys.exit(cli.main(["scenario", "--name", "shuttle", "--length", "64", "--ticks", "100000000"]))
    """
)


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmSize from /proc/self/status"
)
def test_a_real_memory_error_exits_1_with_one_line():
    proc = _fresh(_OUT_OF_MEMORY)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "chainfold: out of memory\n")


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


@pytest.mark.parametrize(
    "name,length,ticks",
    [
        (name, length, ticks)
        for name in kinematics.SCENARIO_NAMES
        for length, ticks in [
            (kinematics._MIN_LENGTH[name], None),
            (8, None), (8, 0), (8, 1), (8, 9), (8, "default+50"),
            (32, None), (32, 0), (32, 9),
        ]
    ],
)
def test_scenario_output_matches_the_reference_loop(
    capsys, tmp_path, reference_scenario, name, length, ticks
):
    if ticks == "default+50":
        ticks = kinematics.build_scenario(name, length)[1]["default_ticks"] + 50
    trace_path = tmp_path / "trace.json"
    argv = ["scenario", "--name", name, "--length", str(length), "--trace-out", str(trace_path)]
    if ticks is not None:
        argv += ["--ticks", str(ticks)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    full = kinematics.trace_to_json_dict(
        reference_scenario(name, length, ticks=ticks, seed=DEFAULT_SEED)
    )
    written = trace_path.read_text(encoding="utf-8")
    assert written == json.dumps(full, indent=2, sort_keys=True) + "\n"
    summary = {k: v for k, v in full.items() if k != "frames"}
    summary["frame_count"] = len(full["frames"])
    assert out == json.dumps(summary, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("trace_out", [False, True])
def test_scenario_builds_frame_dicts_only_for_a_trace_file(
    capsys, tmp_path, monkeypatch, trace_out
):
    # the summary counts the frames; `write_trace` builds the one full dict
    seen, real = [], kinematics.trace_to_json_dict

    def spy(trace):
        seen.append(len(trace.frames))
        return real(trace)

    monkeypatch.setattr(kinematics, "trace_to_json_dict", spy)
    argv = ["scenario", "--name", "shuttle", "--length", "16"]
    if trace_out:
        argv += ["--trace-out", str(tmp_path / "trace.json")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["frame_count"] == 221
    assert seen == ([221] if trace_out else [])


def test_scenario_unknown_name_exits_two(capsys):
    code, _, err = run_cli(capsys, "scenario", "--name", "conveyor")
    assert code == 2
    assert "conveyor" in err


def test_scenario_negative_ticks_exits_one(capsys):
    code, out, err = usage_error(capsys, "scenario", "--name", "walker", "--ticks", "-3")
    assert code == 1 and out == ""
    assert err == "chainfold scenario: error: argument --ticks: must not be negative, got -3\n"


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
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fixture_count"] == 48


def _fresh(script: str, *args: str, **run) -> subprocess.CompletedProcess:
    """`script` run in a fresh interpreter that imports this chainfold,
    with a buffered stdout; `run` holds more `subprocess.run` options."""
    argv = [sys.executable, "-c", script, *args]
    return subprocess.run(argv, capture_output=True, text=True, env=child_env(), **run)


def _run_fresh(script: str, *args: str) -> str:
    """stdout of `_fresh`, which must exit 0."""
    proc = _fresh(script, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# (argv, exit code to writable streams, id); the first five take each exit
# path: a success, --help, a usage error, a domain error and a missing file
_EXIT_PATHS = [
    (("copy", "--tape", TAPE8), 0, "copy"),
    (("--help",), 0, "help"),
    (("frobnicate",), 1, "usage_error"),
    (("scenario", "--name", "nope"), 2, "scenario_unknown"),
    (("fold", "no-such-chain.mdl"), 1, "missing_file"),
]
_MORE_COMMANDS = [
    (("fold", FIG4A), 0, "fold"),
    (("corpus", "verify"), 0, "corpus_verify"),
    (("corpus", "stats"), 0, "corpus_stats"),
    (("evolve", "--trials", "1000"), 0, "evolve"),
    (("scenario", "--name", "walker"), 0, "scenario"),
    (("copy", "--help"), 0, "copy_help"),
]
# the line a command that gets as far as writing its output leaves on stderr
_UNWRITABLE = {
    "closed": "chainfold: [Errno 9] Bad file descriptor\n",
    "full": "chainfold: [Errno 28] No space left on device\n",
    "no_reader": "chainfold: [Errno 32] Broken pipe\n",
}


def _stream_cases():
    full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    for state, commands, marks in (
        ("closed", _EXIT_PATHS + _MORE_COMMANDS, ()),
        ("full", _EXIT_PATHS, full),
        ("no_reader", _EXIT_PATHS, ()),
    ):
        for fd, stream in ((1, "stdout"), (2, "stderr")):
            for argv, code, name in commands:
                yield pytest.param(
                    argv, code, fd, state, id=f"{name}-{stream}_{state}", marks=marks
                )


@pytest.mark.parametrize("argv,code,fd,state", _stream_cases())
def test_a_closed_standard_stream_keeps_the_contract(tmp_path, argv, code, fd, state):
    """A closed, full or reader-less stdout is an unwritable output: a
    command that gets as far as writing, --help included, exits 1 with one
    line, and an error before that keeps its code. Such a stderr changes no
    exit code, a usage error's included. The child's stdout is buffered, as
    on a user's pipe, so that a full one fails in `main`'s write of the
    output, not in the interpreter's exit flush."""
    run = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    stream = ("stdout", "stderr")[fd - 1]
    with contextlib.ExitStack() as stack:
        if state == "closed":
            run["preexec_fn"] = lambda: os.close(fd)
        elif state == "full":
            run[stream] = stack.enter_context(open("/dev/full", "wb"))
        else:
            read, run[stream] = os.pipe()
            os.close(read)
            stack.callback(os.close, run[stream])
        proc = subprocess.run(
            [sys.executable, "-m", "chainfold.cli", *argv],
            cwd=tmp_path, text=True, env=child_env(), **run,
        )
    if fd == 1:
        assert (proc.returncode, proc.stdout or "") == (code or 1, "")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert code or proc.stderr == _UNWRITABLE[state]
    else:
        assert (proc.returncode, proc.stderr or "") == (code, "")
        assert bool(proc.stdout) == (code == 0)


@pytest.mark.parametrize(
    "argv",
    [("copy", "--tape", TAPE8), ("scenario", "--name", "nope"), ("--help",), ("frobnicate",)],
    ids=["success", "domain_error", "help", "usage_error"],
)
def test_main_gives_an_in_process_caller_its_streams_back(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with contextlib.suppress(SystemExit):
            cli.main(list(argv))
        assert sys.stdout is out and sys.stderr is err
    # the output, or the one error line, reached the caller's stream
    assert bool(out.getvalue()) != bool(err.getvalue())


def test_commands_that_draw_nothing_never_load_numpy(tmp_path):
    # numpy costs about half of a short command's start-up; only evolve and
    # in-world runs with drawn mover phases need it
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        from chainfold import cli
        assert "numpy" not in sys.modules, "import chainfold.cli"
        for argv in (
            ["fold", {FIG4A!r}],
            ["corpus", "verify"],
            ["corpus", "stats"],
            ["scenario", "--name", "walker"],
            ["scenario", "--name", "shuttle"],
            ["scenario", "--name", "retainer"],
            ["frobnicate"],
            ["copy", "--tape", {TAPE8!r}],
            ["copy", "--tape", {FIG4A!r}, "--sparing", "both_sides"],
            ["copy", "--tape", {str(tmp_path / "no-such.json")!r}],
            ["copy", "--tape", {TAPE8!r}, "--seed", "-1"],
            ["copy", "--tape", {TAPE8!r}, "--max-cycles", "-5"],
            ["evolve", "--trials", "0"],
            ["evolve", "--alphabet-size", "3"],
            ["evolve", "--alphabet-size", "300"],
        ):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
            assert "numpy" not in sys.modules, argv
        from chainfold.kinematics import run_world, world_from_chain
        run_world(world_from_chain("b__H__b__"), 60)
        assert "numpy" not in sys.modules, "in-world run without drawn phases"
        """
    )
    _run_fresh(script)


# argv[1] is the caller's OPENBLAS_NUM_THREADS, "" for none; prints its value
# after `cli.main(["evolve", ...])` and the process's thread count (0 off Linux)
_BLAS_THREADS = textwrap.dedent(
    f"""
    import contextlib, io, os, sys
    os.environ.pop("OPENBLAS_NUM_THREADS", None)
    if sys.argv[1]:
        os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
    before = dict(os.environ)
    from chainfold import cli
    assert dict(os.environ) == before, "import chainfold.cli changed os.environ"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["evolve", "--trials", "1000"]) == 0
    assert "numpy" in sys.modules
    tasks = "/proc/self/task"
    print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir(tasks)) if os.path.isdir(tasks) else 0)
    """
)


@pytest.mark.parametrize("preset,expected", [("", "1"), ("2", "2")])
def test_cli_runs_numpy_with_one_blas_thread_unless_the_caller_sets_one(preset, expected):
    # pytest's own earlier main() calls set the variable in this process
    value, threads = _run_fresh(_BLAS_THREADS, preset).split()
    assert value == expected
    if preset == "" and threads != "0" and (os.cpu_count() or 1) >= 2:
        assert threads == "1"


# prints the modules loaded after `cli.main(argv)`; no argv, no call
_LOADED_BY = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from chainfold import cli
    if len(sys.argv) > 1:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(sys.argv[1:])
            except SystemExit:
                pass
    print(json.dumps(sorted(sys.modules)))
    """
)
CLI_ONLY = {"chainfold", "chainfold.cli", "chainfold.errors"}


def _modules_after(*argv: str) -> set[str]:
    return set(json.loads(_run_fresh(_LOADED_BY, *argv)))


def _chainfold_modules_after(*argv: str) -> set[str]:
    return {m for m in _modules_after(*argv) if m.startswith("chainfold")}


def test_importing_the_cli_loads_no_other_chainfold_module():
    assert _chainfold_modules_after() == CLI_ONLY


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # `fold`, `corpus`, `copy` and `evolve` load it with their records; a usage
    # error, --help or a missing file, and `scenario`, never do
    script = "import sys, chainfold.cli; print('dataclasses' in sys.modules)"
    assert _run_fresh(script) == "False\n"


@pytest.mark.parametrize("name", ["walker", "nosuch"])
def test_a_scenario_leaves_dataclasses_unloaded(name):
    # kinematics' records are NamedTuples, and it loads no module with dataclasses
    loaded = _modules_after("scenario", "--name", name, "--length", "8")
    assert not loaded & {"dataclasses", "chainfold.mdl", "chainfold.folding"}


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("frobnicate",),
        ("copy", "--help"),
        ("evolve", "--seed", "-3"),
        ("evolve", "--trials", "0"),
        ("fold", "no-such-chain.mdl"),
        ("copy", "--tape", "no-such-tape.json"),
        ("scenario", "--name", "walker", "--ticks", "-3"),
        ("scenario", "--name", "walker", "--length", "-5"),
    ],
)
def test_usage_errors_and_missing_files_load_no_command_module(argv):
    assert _chainfold_modules_after(*argv) == CLI_ONLY


@pytest.mark.parametrize(
    "argv,absent",
    [
        (("fold", FIG4A), {"kinematics", "corpus", "encoding", "copier"}),
        (("scenario", "--name", "walker"), {"corpus", "encoding", "copier", "mdl", "folding"}),
        (("corpus", "stats"), {"kinematics", "encoding", "copier"}),
        (("copy", "--tape", TAPE8), {"kinematics", "corpus", "mdl", "folding"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, absent):
    loaded = _chainfold_modules_after(*argv)
    assert loaded >= CLI_ONLY
    assert not loaded & {f"chainfold.{m}" for m in absent}, sorted(loaded)


def test_a_copy_leaves_fractions_unloaded():
    # only `analytic_cycle_stats` makes a Fraction; fractions brings decimal
    # and numbers, about 3 ms of a copy's start-up
    assert not _modules_after("copy", "--tape", TAPE8) & {"fractions", "decimal", "numbers"}


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    out = capsys.readouterr()
    return e.value.code, out.out, out.err


@pytest.mark.parametrize("command", ["copy", "evolve"])
def test_negative_seed_is_a_usage_error(capsys, command):
    argv = [command, "--seed", "-1"] + (["--tape", TAPE8] if command == "copy" else [])
    code, out, err = usage_error(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"chainfold {command}: error: argument --seed: must not be negative, got -1\n"


def test_evolve_trial_count_below_one_is_a_usage_error(capsys):
    code, out, err = usage_error(capsys, "evolve", "--trials", "0")
    assert code == 1 and out == ""
    assert err == "chainfold evolve: error: argument --trials: must be positive, got 0\n"


def test_non_integer_seed_keeps_the_argparse_message(capsys):
    code, out, err = usage_error(capsys, "evolve", "--seed", "abc")
    assert code == 1 and out == ""
    assert err == "chainfold evolve: error: argument --seed: invalid int value: 'abc'\n"


def test_scenario_negative_length_exits_one(capsys):
    code, out, err = usage_error(capsys, "scenario", "--name", "walker", "--length", "-5")
    assert code == 1 and out == ""
    assert err == "chainfold scenario: error: argument --length: must not be negative, got -5\n"


def test_scenario_short_length_stays_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "scenario", "--name", "walker", "--length", "0")
    assert code == 2 and out == ""
    assert err == "chainfold: walker needs length >= 5\n"

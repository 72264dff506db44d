"""Generated argv for every subcommand: the CLI ends in exit 0, 1 or 2.

Each example runs `cli.main` in-process. Any exception other than an
argparse `SystemExit` (0 for `--help`, 1 for a usage error) is a broken
contract, and so is a traceback or a multi-line message on stderr.
Sizes stay small: at most 10^4 trials, length 16 and 20 ticks.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold.cli import main
from chainfold.corpus import fixtures_dir

FIXTURES = fixtures_dir()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths an argument may name: good inputs, bad ones and non-files."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "empty").mkdir()
    (d / "bad_manifest").mkdir()
    (d / "bad_manifest" / "manifest.json").write_text(json.dumps({"fixtures": [{"id": "x"}]}))
    (d / "bad_tags").mkdir()
    (d / "bad_tags" / "x.mdl").write_text("b_H_b_b_b_")
    helix = {"id": "x", "file": "x.mdl", "expected": {"tags": {"helix": 1}}}
    (d / "bad_tags" / "manifest.json").write_text(json.dumps({"fixtures": [helix]}))
    (d / "deep_manifest").mkdir()
    (d / "deep_manifest" / "manifest.json").write_text("[" * 100_000)
    written = {
        "bad_entries.json": json.dumps({"entries": [["zz", True]]}),
        "unknown_kind.json": json.dumps({"entries": [{"kind": "a"}]}),
        "string_flip.json": json.dumps({"entries": [{"kind": "G0_", "flipped": "false"}]}),
        "empty_tape.json": json.dumps({"entries": []}),
        "list.json": "[]",
        "broken.json": "{",
        "deep.json": "[" * 100_000,
        "tape.mdl": "G0_H__L__b__",
        "loop9.mdl": "b_H_b_H_b_H_b_H_b_",
        "bad.mdl": "b_Q_b_",
        "empty.mdl": "",
    }
    for name, text in written.items():
        (d / name).write_text(text)
    (d / "binary.mdl").write_bytes(b"\xff\xfe\x00")
    inputs = [
        str(p)
        for p in (
            FIXTURES / "fig4a.mdl",
            FIXTURES / "tape8.json",
            FIXTURES / "manifest.json",
            *(d / name for name in written),
            d / "binary.mdl",
            d / "empty",
            d / "bad_manifest",
            d / "bad_tags",
            d / "deep_manifest",
            d / "missing.json",
            d / "missing.mdl",
        )
    ]
    # where --trace-out may write: a new file, a directory, a missing directory
    outputs = [str(d / "trace.json"), str(d / "empty"), str(d / "missing" / "t.json")]
    return inputs, outputs


def _int(lo, hi):
    return st.integers(lo, hi).map(str)


def _flag(name, values):
    """An optional `name value` pair."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _switch(name):
    return st.sampled_from([[], [name]])


@st.composite
def argvs(draw, files):
    inputs, outputs = files
    path = st.sampled_from(inputs)
    junk = st.sampled_from(["--help", "--frobnicate", "nonsense", "-1", ""])
    command = draw(st.sampled_from(["fold", "verify", "stats", "copy", "evolve", "scenario", "none"]))
    if command == "fold":
        argv = ["fold", draw(path)]
        argv += draw(_flag("--format", st.sampled_from(["ascii", "json", "obj", "png"])))
        argv += draw(_switch("--strict")) + draw(_switch("--permissive"))
    elif command in ("verify", "stats"):
        argv = ["corpus", command]
        argv += draw(_flag("--fixtures", st.sampled_from([str(FIXTURES), *inputs])))
        if command == "verify":
            argv += draw(_switch("--json"))
    elif command == "copy":
        argv = ["copy"] + draw(_flag("--tape", path))
        argv += draw(_flag("--sparing", st.sampled_from(["one_side", "both_sides", "none"])))
        argv += draw(_flag("--seed", _int(-3, 2**32)))
        argv += draw(_flag("--max-cycles", _int(-3, 10_000)))
    elif command == "evolve":
        argv = ["evolve", "--trials", draw(_int(-2, 10_000))]
        argv += draw(_flag("--alphabet-size", _int(-1, 60)))
        argv += draw(_flag("--seed", _int(-3, 2**32)))
        argv += draw(_switch("--separator"))
    elif command == "scenario":
        argv = ["scenario", "--ticks", draw(_int(-2, 20))]
        argv += draw(_flag("--name", st.sampled_from(["walker", "retainer", "shuttle", "conveyor"])))
        argv += draw(_flag("--length", _int(-2, 16)))
        argv += draw(_flag("--seed", _int(-3, 100)))
        argv += draw(_flag("--trace-out", st.sampled_from(outputs)))
    else:
        argv = []
    if draw(st.integers(0, 5)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


def test_any_argv_ends_in_a_contract_exit(files):
    @settings(max_examples=250, deadline=None)
    @given(argv=argvs(files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: --help, or a usage error
                assert exc.code in (0, 1), argv
                return
        assert code in (0, 1, 2), argv
        message = err.getvalue()
        assert "Traceback" not in message, argv
        assert message == "" or message.count("\n") == 1, (argv, message)

    check()

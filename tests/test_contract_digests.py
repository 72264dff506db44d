"""The CLI's output contract, checked against recorded digests.

`contract_digests.json` maps each argv of a fixed grid to its exit code,
the SHA-256 of its stdout and, for `scenario`, the SHA-256 of the file
its `--trace-out` writes. The grid:

- every argv of `workloads.cli_ops` for ten seeds;
- `scenario` for each template at its minimum length, 8, 32 and 128,
  with `--ticks` 0, 1, 9 and the default;
- `fold` of every fixture in ascii, json and obj;
- `corpus verify`, `corpus verify --json` and `corpus stats`;
- `copy` of the `fig4a.mdl` chain as a tape, in both sparings.

Each argv runs through `cli.main` in this process. A change that alters
an output on purpose rewrites the file with
`PYTHONPATH=src python tests/test_contract_digests.py` and names the
argv and the reason in CHANGES.md. The test only reads `perfbench/`.
"""

import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from chainfold import corpus, kinematics  # noqa: E402

RECORDED = Path(__file__).with_name("contract_digests.json")
SEEDS = (3, 11, 23, 41, 5, 13, 29, 37, 7, 19)
TRACE = "TRACE"  # stands for the --trace-out path in a recorded argv


def contract_argvs() -> list[list[str]]:
    argvs = [op.run() for seed in SEEDS for op in workloads.cli_ops(seed, invoke=list)]
    for name in kinematics.SCENARIO_NAMES:
        for length in (kinematics._MIN_LENGTH[name], 8, 32, 128):
            for ticks in (["--ticks", "0"], ["--ticks", "1"], ["--ticks", "9"], []):
                argvs.append(
                    ["scenario", "--name", name, "--length", str(length), *ticks,
                     "--trace-out", TRACE]
                )
    for fid in sorted(corpus.load_manifest()):
        for fmt in ("ascii", "json", "obj"):
            argvs.append(["fold", f"{workloads.FIXTURES}/{fid}.mdl", "--format", fmt])
    fig4a = f"{workloads.FIXTURES}/fig4a.mdl"
    argvs += [["copy", "--tape", fig4a, "--sparing", s] for s in ("one_side", "both_sides")]
    return argvs + [["corpus", "verify"], ["corpus", "verify", "--json"], ["corpus", "stats"]]


def contract_digests(scratch: Path) -> dict[str, dict]:
    """Run the grid from the repo root; `scratch` holds the trace files."""
    trace = scratch / "trace.json"
    digests = {}
    for argv in contract_argvs():
        key = " ".join(argv)
        if key in digests:
            continue
        trace.unlink(missing_ok=True)
        code, out, _ = workloads.run_inprocess([str(trace) if a == TRACE else a for a in argv])
        entry = {"exit": code, "stdout": hashlib.sha256(out).hexdigest()}
        if TRACE in argv:
            entry["trace_out"] = hashlib.sha256(trace.read_bytes()).hexdigest()
        digests[key] = entry
    return digests


def test_cli_outputs_match_the_recorded_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(workloads.ROOT)  # argvs name fixtures from the repo root
    assert contract_digests(tmp_path) == json.loads(RECORDED.read_text())


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(workloads.ROOT)
    with tempfile.TemporaryDirectory() as scratch:
        digests = contract_digests(Path(scratch))
    RECORDED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

"""Every seed-7 benchmark output, checked against its recorded digest.

`perfbench/digests.json` pins the SHA-256 of each operation's canonical
output bytes for one seed. A benchmark run checks them too, but only
when someone runs it; here each operation of `replicate`, `simulate` and
`cli_mix` runs once, in this process (the CLI through `cli.main`), so a
change to any output fails tier-1. The test only reads `perfbench/`.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", ["replicate", "simulate", "cli_mix"])
def test_outputs_match_the_recorded_digests(workload, monkeypatch):
    assert RECORDED["seed"] == 7
    monkeypatch.chdir(workloads.ROOT)  # the CLI operations name fixtures from the repo root
    if workload == "cli_mix":
        ops = workloads.cli_ops(RECORDED["seed"], invoke=workloads.run_inprocess)
    else:
        ops = workloads.WORKLOAD_OPS[workload](RECORDED["seed"])
    digests, problems = {}, {}
    for op in ops:
        checked = op.check(op.run())
        digests[op.label] = hashlib.sha256(checked.blob).hexdigest()
        if checked.problems or checked.violation:
            problems[op.label] = (checked.problems, checked.violation)
    assert problems == {}
    assert digests == RECORDED[workload]

"""The committed `BENCH_*.json` baselines: each is a `perfbench/run.py`
record copied unedited from `perfbench/out/`, so a perf claim can cite the
run it was measured against, with the revision and the machine it ran on.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ENV_FIELDS = ("cpu_count", "cpus_usable", "python", "numpy", "backend", "host_start", "host_end")


def test_every_benchmarked_workload_has_a_record():
    names = {path.name for path in RECORDS}
    assert {f"BENCH_{w['name']}.json" for w in BENCHMARK["workloads"]} <= names


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_record_names_its_run_and_machine_and_every_end_to_end_metric(path):
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['workload']}.json"
    assert isinstance(record["seed"], int)
    env = record["env"]
    assert re.fullmatch("[0-9a-f]{40}", env["commit"])
    assert [name for name in ENV_FIELDS if env.get(name) is None] == []
    for metric in BENCHMARK["end_to_end"]:
        value = record["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"]), metric["name"]

import os
import sys
from pathlib import Path

import pytest

import chainfold

# Make the sibling oracles (fig6_reference, mdl_reference and
# kinematics_reference) importable from any cwd.
sys.path.insert(0, str(Path(__file__).parent))


def child_env(**extra: str) -> dict:
    """The environment of a child interpreter that imports this chainfold:
    this one's without PYTHONUNBUFFERED, so that the child's stdout is
    block-buffered as it is on a user's pipe or file, and `extra` on top."""
    src = str(Path(chainfold.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **extra}
    env.pop("PYTHONUNBUFFERED", None)
    return env


class CountedDraws(bytes):
    """A chunk of flat draws that logs what `kernels.copier_chunk` does with
    it: a `translate` through the class map as None, then each `find` in
    the translated chunk as the position it starts from."""

    def __new__(cls, draws: bytes, log: list):
        self = super().__new__(cls, draws)
        self.log = log
        return self

    def translate(self, table):
        self.log.append(None)
        return _LoggedFinds(super().translate(table), self.log)


class _LoggedFinds:
    def __init__(self, mapped: bytes, log: list):
        self.mapped, self.log = mapped, log

    def find(self, sub, start):
        self.log.append(start)
        return self.mapped.find(sub, start)


@pytest.fixture(scope="session")
def reference_scenario():
    """`kinematics_reference.run_scenario`, run once per (name, length, ticks,
    seed) in a session; the test files that compare with it share the runs."""
    import kinematics_reference

    runs = {}

    def run(name, length=8, ticks=None, seed=0):
        key = (name, length, ticks, seed)
        if key not in runs:
            runs[key] = kinematics_reference.run_scenario(*key)
        return runs[key]

    return run


@pytest.fixture(scope="session")
def integers_hits():
    """The hits of an evolve experiment as numpy's `Generator.integers`
    draws them: one `integers(0, |A|, size=(m, k), dtype=np.uint8)` call
    per 10^6-trial chunk, each row compared with the target in full."""
    import numpy as np

    def hits(exp):
        rng = np.random.default_rng(exp.seed)
        target = exp.target_indices()
        found, left = 0, exp.trials
        while left:
            m = min(left, 1_000_000)
            draws = rng.integers(0, len(exp.alphabet), size=(m, exp.target_length), dtype=np.uint8)
            found += int((draws == target).all(axis=1).sum())
            left -= m
        return found

    return hits

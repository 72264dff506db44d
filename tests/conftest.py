import sys
from pathlib import Path

import pytest

# Make the sibling oracles (fig6_reference, mdl_reference and
# kinematics_reference) importable from any cwd.
sys.path.insert(0, str(Path(__file__).parent))


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

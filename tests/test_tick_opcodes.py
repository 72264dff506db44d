"""How many opcodes a kinematics tick executes, pinned exactly.

A tick's work is a pure function of its world, so the opcodes its Python
frames execute are the same on any host, where a timing on a shared host
spreads more than most changes it would judge. Each count is taken with
`sys.settrace` and `f_trace_opcodes` over 100 ticks, after 20 warm-up ticks
from `build_scenario`; C work counts as the opcode that calls it. The counts
grow linearly with the track's length, so an idle tick still pays for the
whole world.

The counts belong to one CPython minor version, so the test skips on any
other rather than be re-pinned silently. A change that moves a count on
purpose edits its row and gives the old and new values in CHANGES.md.
"""

import json
import subprocess
import sys
import textwrap

import pytest
from conftest import child_env


# (template, length) -> opcodes over the 100 counted ticks
OPCODES_PER_100_TICKS = {
    ("walker", 64): 248_668,
    ("walker", 256): 895_708,
    ("retainer", 64): 502_998,
    ("retainer", 256): 1_797_078,
    ("shuttle", 64): 704_068,
    ("shuttle", 256): 2_750_788,
}

# argv[1]: a JSON list of [template, length]; prints their counts as JSON
_COUNT = textwrap.dedent(
    """
    import json, sys
    from chainfold.kinematics import build_scenario, step_world

    def run(world, ticks):
        for _ in range(ticks):
            world = step_world(world)
        return world

    def opcodes(name, length):
        world = run(build_scenario(name, length)[0], 20)
        n = 0

        def local(frame, event, arg):
            nonlocal n
            if event == "opcode":
                n += 1
            return local

        def start(frame, event, arg):
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
            return local

        sys.settrace(start)
        try:
            run(world, 100)
        finally:
            sys.settrace(None)
        return n

    print(json.dumps([opcodes(name, length) for name, length in json.loads(sys.argv[1])]))
    """
)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the counts are pinned for CPython 3.11's bytecode",
)
def test_tick_opcodes_under_two_hash_seeds():
    keys = json.dumps(list(OPCODES_PER_100_TICKS))
    # the two children run side by side, each in its own hash seed
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _COUNT, keys],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    outputs = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0, 0], outputs
    want = list(OPCODES_PER_100_TICKS.values())
    assert [json.loads(out) for out, _ in outputs] == [want, want]

"""How many opcodes the fold path executes per stage, pinned exactly.

The fold path is parse → fold → JSON: `mdl.parse_mdl`, `folding.fold`,
and the CLI's `json.dumps(to_json_dict(s), indent=2, sort_keys=True)`,
which runs CPython's pure-Python encoder. Each stage's work is a pure
function of its input, so the opcodes its Python frames execute are the
same on any host. Each count is taken with `sys.settrace` and
`f_trace_opcodes` over one call, after one warm-up call of the same
stage; C work counts as the opcode that calls it. The input is fig7a's
18-character helix unit (six tokens), repeated as perfbench's fold ops
repeat it.

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

# (stage, repeats of the unit) -> opcodes of one call; per token past the
# first 60 tokens, parse takes 105, fold 405 and json 1,993
FOLD_PATH_OPCODES = {
    ("parse", 10): 6_314,
    ("parse", 100): 63_014,
    ("fold", 10): 24_492,
    ("fold", 100): 243_192,
    ("json", 10): 121_447,
    ("json", 100): 1_197_667,
}

# argv[1]: a JSON list of [stage, repeats]; prints their counts as JSON
_COUNT = textwrap.dedent(
    """
    import json, sys
    from chainfold import corpus, folding, mdl

    unit = mdl.write_canonical(corpus.load_manifest()["fig7a"].chain)[:18]

    def stage(name, repeats):
        text = unit * repeats
        if name == "parse":
            return mdl.parse_mdl, text
        chain = mdl.parse_mdl(text)
        if name == "fold":
            return folding.fold, chain
        structure = folding.fold(chain)
        return lambda s: json.dumps(folding.to_json_dict(s), indent=2, sort_keys=True), structure

    def opcodes(name, repeats):
        run, arg = stage(name, repeats)
        run(arg)
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
            run(arg)
        finally:
            sys.settrace(None)
        return n

    print(json.dumps([opcodes(name, repeats) for name, repeats in json.loads(sys.argv[1])]))
    """
)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the counts are pinned for CPython 3.11's bytecode",
)
def test_fold_path_opcodes_under_two_hash_seeds():
    keys = json.dumps(list(FOLD_PATH_OPCODES))
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
    want = list(FOLD_PATH_OPCODES.values())
    assert [json.loads(out) for out, _ in outputs] == [want, want]

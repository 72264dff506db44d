"""Parity of the numpy kernels with plain-Python loop oracles.

Every kernel takes pre-drawn inputs, so each must agree with its loop
version element for element, not just statistically.
"""

import numpy as np
import pytest

from chainfold import kernels
from chainfold.copier import Sparing, _tables
from chainfold.encoding import default_registry


def _count_matches_py(draws, target):
    hits = 0
    m, k = draws.shape
    for i in range(m):
        ok = True
        for j in range(k):
            if draws[i, j] != target[j]:
                ok = False
                break
        if ok:
            hits += 1
    return hits


def _copy_chunk_py(
    stick_tab,
    mut_tab,
    slot_codes,
    head,
    kinds,
    cases,
    out_kinds,
    out_flips,
    out_mut,
    stick_log,
):
    n = slot_codes.shape[0]
    m = kinds.shape[0]
    pos = 0
    while pos < m and head < n:
        s = slot_codes[head]
        k = kinds[pos]
        c = cases[pos]
        st = stick_tab[s, k, c]
        stick_log[pos] = st
        if st == 0:
            out_kinds[head] = k
            out_flips[head] = (s & 1) ^ mut_tab[s, k, c]
            out_mut[head] = mut_tab[s, k, c]
            head += 1
        pos += 1
    return head, pos


def _random_draws(seed, m=2_000, k=3, high=4):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=(m, k), dtype=np.uint8)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_count_matches_backends_agree(seed):
    draws = _random_draws(seed)
    target = draws[1234].copy()
    plain = _count_matches_py(draws, target)
    assert kernels.count_matches(draws, target) == plain
    assert plain >= 1


def test_count_matches_exact_on_small_input():
    draws = np.array([[1, 2], [1, 2], [2, 1], [1, 3]], dtype=np.uint8)
    target = np.array([1, 2], dtype=np.uint8)
    assert _count_matches_py(draws, target) == 2
    assert kernels.count_matches(draws, target) == 2


def _chunk_inputs(seed, n_slots=40, m=1200, sparing=Sparing.BOTH_SIDES):
    tables = _tables(sparing, default_registry())
    rng = np.random.default_rng(seed)
    slot_codes = rng.integers(0, 12, size=n_slots).astype(np.int64)
    kinds = rng.integers(0, 6, size=m, dtype=np.uint8)
    cases = rng.integers(0, 4, size=m, dtype=np.uint8)
    return tables, slot_codes, kinds, cases


def _outputs(n, m):
    """Fresh (out_kinds, out_flips, out_mut, stick_log) arrays."""
    return (
        np.full(n, -1, dtype=np.int8),
        np.zeros(n, dtype=np.uint8),
        np.zeros(n, dtype=np.uint8),
        np.full(m, 255, dtype=np.uint8),
    )


def _run_chunk(chunk, tables, slot_codes, kinds, cases):
    outs = _outputs(slot_codes.shape[0], kinds.shape[0])
    head, used = chunk(*tables, slot_codes, 0, kinds, cases, *outs)
    return (head, used, *outs)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_copier_chunk_backends_agree(seed):
    tables, slot_codes, kinds, cases = _chunk_inputs(seed)
    plain = _run_chunk(_copy_chunk_py, tables, slot_codes, kinds, cases)
    fast = _run_chunk(kernels.copier_chunk, tables, slot_codes, kinds, cases)
    assert plain[:2] == fast[:2]
    for a, b in zip(plain[2:], fast[2:]):
        assert np.array_equal(a, b)
    # slots glued, some of them as mutations, so every output column counted
    assert plain[0] > 0 and plain[4].any()


def test_copier_chunk_resumes_mid_tape():
    tables, slot_codes, kinds, cases = _chunk_inputs(5, n_slots=8, m=600)
    n = slot_codes.shape[0]
    whole = _run_chunk(_copy_chunk_py, tables, slot_codes, kinds, cases)
    # split the draw stream in two; state carries across the boundary
    outs = _outputs(n, kinds.shape[0])
    out_kinds, out_flips, out_mut, log = outs
    cut = 40
    head, used = kernels.copier_chunk(
        *tables, slot_codes, 0, kinds[:cut], cases[:cut],
        out_kinds, out_flips, out_mut, log[:cut],
    )
    assert 0 < head < n and used == cut
    head, rest = kernels.copier_chunk(
        *tables, slot_codes, head, kinds[cut:], cases[cut:],
        out_kinds, out_flips, out_mut, log[cut:],
    )
    assert (head, cut + rest) == whole[:2]
    for a, b in zip(outs, whole[2:]):
        assert np.array_equal(a, b)


def test_stick_log_matches_table_lookup():
    tables, slot_codes, kinds, cases = _chunk_inputs(9, n_slots=6, m=500)
    head, used, _, _, _, log = _run_chunk(
        kernels.copier_chunk, tables, slot_codes, kinds, cases
    )
    stick = tables[0]
    # replay by hand
    h = 0
    for pos in range(used):
        st = stick[slot_codes[h], kinds[pos], cases[pos]]
        assert log[pos] == st
        if st == 0:
            h += 1
    assert h == head


def test_tables_built_once_and_read_only():
    reg = default_registry()
    for sparing in Sparing:
        stick, mut = _tables(sparing, reg)
        assert _tables(sparing, reg)[0] is stick
        for tab in (stick, mut):
            with pytest.raises(ValueError):
                tab[0, 0, 0] = 1
        # a mutation is always a glue, and only both-sides sparing has any
        assert not np.any(mut.astype(bool) & (stick != 0))
        assert mut.any() == (sparing is Sparing.BOTH_SIDES)

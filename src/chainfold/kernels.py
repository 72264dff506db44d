"""Array kernels for the two hot loops: stream-trial counting and the
copier cycle walk. Both consume pre-drawn numpy arrays, so a run is a
pure function of its inputs; `tests/test_kernels.py` holds plain-Python
loop versions of each as the reference they must match.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """The kernel implementation, as reported in run records."""
    return "numpy"


def count_matches(draws: np.ndarray, target: np.ndarray) -> int:
    """Rows of `draws` equal to `target`, counted."""
    return int(np.sum(np.all(draws == target[np.newaxis, :], axis=1)))


def copier_chunk(
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
) -> tuple[int, int]:
    """Walk one chunk of candidate draws; returns (new_head, draws_used).

    Every draw costs a cycle; a zero stick-out glues the drawn kind and
    advances the head. The glued block lies in the slot's flip frame
    (bit 0 of the slot code) unless the glue is a mutation, which sits
    the other way up. Output arrays are written in place.
    """
    # per slot, jump to the first accepting draw in the chunk
    n = slot_codes.shape[0]
    m = kinds.shape[0]
    pos = 0
    while pos < m and head < n:
        s = slot_codes[head]
        sticks = stick_tab[s, kinds[pos:], cases[pos:]]
        acc = sticks == 0
        idx = int(np.argmax(acc))
        if not acc[idx]:
            stick_log[pos:m] = sticks
            pos = m
            break
        stick_log[pos : pos + idx + 1] = sticks[: idx + 1]
        p = pos + idx
        mut = mut_tab[s, kinds[p], cases[p]]
        out_kinds[head] = kinds[p]
        out_flips[head] = (s & 1) ^ mut
        out_mut[head] = mut
        head += 1
        pos = p + 1
    return head, pos

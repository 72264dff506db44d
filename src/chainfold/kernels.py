"""Array kernels for the two hot loops: stream-trial counting and the
copier cycle walk. Both consume pre-drawn numpy arrays, so a run is a
pure function of its inputs, and both cost time linear in their input:

- `count_matches` narrows the candidate rows one column at a time, so
  each later column is compared only on the rows still in the running.
- `copier_chunk` walks each draw once against the acceptance row of the
  slot under the head, then fills every output with vectorised gathers.

`tests/test_kernels.py` holds plain-Python loop versions of each as the
reference they must match element for element.
"""

from __future__ import annotations

import functools

import numpy as np


def active_backend() -> str:
    """The kernel implementation, as reported in run records."""
    return "numpy"


def count_matches(draws: np.ndarray, target: np.ndarray) -> int:
    """Rows of `draws` equal to `target`, counted.

    Column 0 picks the candidate rows; every later column only filters
    the rows that matched so far, which shrink by the alphabet size at
    each step.
    """
    if not len(target):
        return draws.shape[0]
    rows = np.flatnonzero(draws[:, 0] == target[0])
    for j in range(1, len(target)):
        rows = rows[draws[rows, j] == target[j]]
    return int(rows.size)


@functools.lru_cache(maxsize=16)
def _accept_rows(stick: bytes, width: int) -> tuple[tuple[bool, ...], ...]:
    """Per slot code, whether each flat draw index glues (stick-out 0)."""
    return tuple(
        tuple(b == 0 for b in stick[i : i + width]) for i in range(0, len(stick), width)
    )


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

    A draw is one flat index, kind * cases + case, into the acceptance
    row of the slot code under the head. The walk visits each draw once
    and swaps the row only when a block is glued; the glued outputs and
    the stick-out of every used draw are then gathered in whole arrays,
    so a call costs time linear in the draws it reads.
    """
    n = slot_codes.shape[0]
    m = kinds.shape[0]
    if head >= n:
        return head, 0
    _, n_kinds, n_cases = stick_tab.shape
    width = n_kinds * n_cases
    accept = _accept_rows(stick_tab.astype(np.uint8, copy=False).tobytes(), width)
    flat = (kinds * n_cases + cases).astype(np.uint8, copy=False)
    slot_codes = slot_codes.astype(np.intp, copy=False)
    # m draws glue at most m blocks, so at most m + 1 slots meet the head
    codes = slot_codes[head : head + m + 1].tolist()
    start = head
    glued: list[int] = []  # the draw that glued each slot, in order
    row = accept[codes[0]]
    for p, f in enumerate(flat.tobytes()):
        if row[f]:
            glued.append(p)
            head += 1
            if head == n:
                break
            row = accept[codes[head - start]]
    used = glued[-1] + 1 if head == n else m
    if glued:
        at = np.array(glued)
        slots = slot_codes[start:head]
        mut = mut_tab.ravel()[slots * width + flat[at]]
        out_kinds[start:head] = kinds[at]
        out_flips[start:head] = (slots & 1) ^ mut
        out_mut[start:head] = mut
        # a draw meets the slot after every glue that came before it
        met = slot_codes[start + np.searchsorted(at, np.arange(used))]
    else:
        met = slot_codes[start]
    stick_log[:used] = stick_tab.ravel()[met * width + flat[:used]]
    return head, used

"""Kernels for the two hot loops: stream-trial counting and the
copier cycle walk. Both read pre-drawn inputs, so a run is a pure
function of them, and both cost time linear in their input:

- `count_matches` compares the first four bytes of each row as one
  `uint32`, then checks only the few rows that match on the later
  columns. It serves evolve, which hands it one piece of C-contiguous
  uint8 draws at a time, in rows of 5 or 6 columns.
- `copier_chunk` only walks: it maps a chunk's draws to their glue
  classes with one `bytes.translate`, then one `bytes.find` per glue
  skips the rejected draws between glues, which cost no Python step,
  and it records the run-wide cycle of each glue into the caller's
  `array('q')`. Once the tape is finished, both copier entry points
  gather the copy from the draws at those cycles in one function,
  `copier._gather`, which reads the copier's one rule table.

`tests/test_kernels.py` holds plain-Python loop versions of each as the
reference they must match element for element. numpy loads inside
`count_matches`, so `copier_chunk` runs without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def active_backend() -> str:
    """The kernel implementation, as `copy`, `evolve` and the benchmark
    report it."""
    return "numpy"


def count_matches(draws: np.ndarray, target: np.ndarray) -> int:
    """Rows of `draws` equal to `target`, counted, for C-contiguous uint8
    `draws` and `target` of 4 or more columns.

    Each row's first four bytes are compared as one `uint32` through a
    zero-copy view; each later column only filters the few rows that
    matched, about one in |alphabet|^4.
    """
    import numpy as np

    key = target[:4].view(np.uint32)[0]
    rows = np.flatnonzero(draws[:, :4].view(np.uint32)[:, 0] == key)
    for j in range(4, len(target)):
        rows = rows[draws[rows, j] == target[j]]
    return rows.size


def copier_chunk(classes, slot_keys, head, flat, cycles, glued) -> tuple[int, int]:
    """Walk one chunk of draws from slot `head`; returns (new_head,
    draws_used) and appends to `glued` the run-wide cycle of each draw
    that glued, where `cycles` is the run's cycle count before `flat`.

    A draw is one flat byte, kind * cases + case. `classes` is a
    `bytes.translate` table that maps each draw to its glue class, the
    one set of draws with stick-out 0 at the slots where it glues, and
    `slot_keys` holds one byte per slot, the class that glues there, so
    a draw glues at a slot exactly where the two bytes are equal. Every
    draw costs a cycle; a glue advances the head, and the walk stops at
    the draw that finishes the tape. `flat` is translated once per call,
    then each glue costs one `bytes.find` (memchr), plus one that finds
    none when the chunk ends first, and each find reads each byte it
    passes once, so a call costs time linear in the draws it reads.
    """
    n = len(slot_keys)
    find = flat.translate(classes).find
    base = cycles - 1  # `p` is one past the draw found, where the next find starts
    p = 0
    while head < n:
        p = find(slot_keys[head], p) + 1
        if not p:  # found none
            return head, len(flat)
        glued.append(base + p)
        head += 1
    return head, p

"""Monte-Carlo coalescence kernel (numpy) on windowed randomness.

The kernel steps one block of trajectories (see ``coalescence_tail_mc`` in
:mod:`qcoupling.coupling`) and draws the block's randomness itself, one
window at a time, for the trajectories that are still apart. A coalesced
pair never reads randomness again, so no word is drawn for it after the
window in which it met.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BACKEND = "numpy"  # the only kernel; reported in run provenance
# 64-bit words a window aims at: the k trajectories still apart take
# max(1, DRAW_CHUNK_WORDS // k) steps each. Part of the stream's definition.
DRAW_CHUNK_WORDS = 1 << 15


def coalescence_counts(table, r_idx, x0, y0, grid, draw):
    """Count trajectories with X_m != Y_m at each m in ``grid``.

    Parameters
    ----------
    table : (N, |R|) integer successor table f(x, r)
    r_idx : (rows, m_max) integer array, one row per trajectory; filled here
    x0, y0 : start states
    grid : sorted integer report times, each <= m_max
    draw : ``draw(out)`` fills the 2-D array ``out`` with the block's next
        ``out.size`` randomness indices, in row-major order

    Both components take the same randomness, so a coalesced pair stays
    together forever. The steps run in windows: at each window start the k
    trajectories still apart, in row order, each take W = min(max(1,
    DRAW_CHUNK_WORDS // k), steps left) consecutive indices from ``draw``, and
    those that have met by the window's end are dropped there. The loop stops
    when no trajectory is apart.

    ``r_idx[t, m]`` ends up holding the index trajectory t read at step m,
    for every step of every window that t started apart, so for every step at
    which it was still apart; a replay of those entries gives the same
    counts. Other entries are left as they were.
    """
    rows, m_max = r_idx.shape
    grid = np.asarray(grid, dtype=np.intp)
    apart_at = np.zeros(m_max + 1, dtype=np.int64)
    if x0 != y0 and rows:
        n_r = table.shape[1]
        # succ[x * |R| + r] = f(x, r) * |R|: one gather per step for both components
        succ = (np.asarray(table, dtype=np.intp) * n_r).ravel()
        report = np.zeros(m_max + 1, dtype=bool)
        report[grid] = True
        # pair[0] = X, pair[1] = Y of the trajectories still apart, which are
        # the rows `active` of r_idx (a slice while that is all of them)
        pair = np.repeat(np.array([[x0], [y0]], dtype=np.intp) * n_r, rows, axis=1)
        active = slice(None)
        # every window's indices: k * W <= max(DRAW_CHUNK_WORDS, k) <= size
        buffer = np.empty(max(DRAW_CHUNK_WORDS, rows), dtype=r_idx.dtype)
        apart_at[0] = rows
        step = 0
        while step < m_max and pair.shape[1]:
            k = pair.shape[1]
            w = min(max(1, DRAW_CHUNK_WORDS // k), m_max - step)
            window = buffer[:w * k].reshape(w, k)  # row j: every trajectory's step j
            draw(window.T)
            r_idx[active, step:step + w] = window.T
            for r in window:
                pair += r
                pair = succ.take(pair)
                step += 1
                if report[step]:
                    apart_at[step] = np.count_nonzero(pair[0] != pair[1])
            pair, active = _still_apart(pair, active)
    return apart_at[grid]


def _still_apart(pair, active):
    """The pair state and the rows of the trajectories whose components differ.

    A function of its own, so that its temporaries are freed before the next
    window draws."""
    keep = np.flatnonzero(pair[0] != pair[1])
    if keep.size == pair.shape[1]:
        return pair, active
    return np.take(pair, keep, axis=1), keep if isinstance(active, slice) else active[keep]

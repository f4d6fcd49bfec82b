"""Monte-Carlo coalescence kernel (numpy).

The kernel consumes one block of precomputed randomness indices at a time (see
``coalescence_tail_mc`` in :mod:`qcoupling.coupling`), so the randomness is
never held in full.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BACKEND = "numpy"  # the only kernel; reported in run provenance


def coalescence_counts(table, r_idx, x0, y0, grid):
    """Count trajectories with X_m != Y_m at each m in ``grid``.

    Parameters
    ----------
    table : (N, |R|) integer successor table f(x, r)
    r_idx : (samples, m_max) integer randomness indices, one row per trajectory
    x0, y0 : start states
    grid : sorted integer report times, each <= m_max

    Both components take the same randomness, so a coalesced pair stays
    together forever. Coalesced trajectories are therefore dropped from the
    active set, in batches once they make up a quarter of it (compacting on
    every step costs more than it saves), and the loop stops when none are
    apart.
    """
    samples, m_max = r_idx.shape
    apart_at = np.zeros(m_max + 1, dtype=np.int64)
    if x0 != y0 and samples:
        n_r = table.shape[1]
        # succ[x * |R| + r] = f(x, r) * |R|: one gather per component and step
        succ = (np.asarray(table, dtype=np.intp) * n_r).ravel()
        # column `step` is contiguous; blocks from the MC draw already are, so no copy
        columns = np.asfortranarray(r_idx)
        active = None  # rows of r_idx still carried; None while that is all of them
        X = np.full(samples, int(x0) * n_r, dtype=np.intp)
        Y = np.full(samples, int(y0) * n_r, dtype=np.intp)
        apart_at[0] = samples
        for step in range(m_max):
            r = columns[:, step] if active is None else columns[:, step][active]
            X = succ[X + r]
            Y = succ[Y + r]
            apart = X != Y
            apart_at[step + 1] = n_apart = np.count_nonzero(apart)
            if not n_apart:
                break
            if 4 * n_apart <= 3 * X.size:
                keep = np.flatnonzero(apart)
                active = keep if active is None else active[keep]
                X, Y = X[keep], Y[keep]
    return apart_at[np.asarray(grid, dtype=np.intp)]

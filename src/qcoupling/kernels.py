"""Monte-Carlo coalescence kernel (numpy) on windowed counter-stream randomness.

The kernel steps one block of trajectories (see ``coalescence_tail_mc`` in
:mod:`qcoupling.coupling`) and asks for the block's randomness itself, one
window at a time, for the trajectories that are still apart. A coalesced
pair never reads randomness again, so no word is drawn for it after the
window in which it met.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BACKEND = "numpy"  # the only kernel; reported in run provenance
# 64-bit words a window aims at: the k trajectories still apart take
# max(1, DRAW_CHUNK_WORDS // k) steps each. It bounds memory and shapes no result.
DRAW_CHUNK_WORDS = 1 << 15
# 64-bit words the stream mixes at a time (17 bytes each while mapped): the most
# the MC path's memory bound (tests/test_mc_stream.py) leaves room for. Memory only.
DRAW_PIECE_WORDS = 3 * DRAW_CHUNK_WORDS // 8
GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, odd, near 2**64 / golden ratio
# SplitMix64's finalizer: z = (z ^ z >> shift) * factor mod 2**64, three times
SPLITMIX_STAGES = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1))


def coalescence_counts(table, r_idx, x0, y0, grid, draw):
    """Count trajectories with X_m != Y_m at each m in ``grid``.

    Parameters
    ----------
    table : (N, |R|) integer successor table f(x, r)
    r_idx : (rows, m_max) integer array, one row per trajectory; filled here
    x0, y0 : start states
    grid : sorted integer report times, each <= m_max
    draw : ``draw(out, rows, step)`` fills the (w, k) ``out[j, i]`` with the
        index that row ``rows[i]`` reads at step ``step + j`` (``rows`` is
        ``slice(None)`` while every row is apart)

    Both components take the same randomness, so a coalesced pair stays
    together forever. The steps run in windows: at each window start the k
    trajectories still apart, in row order, each take the indices of the next
    W = min(max(1, DRAW_CHUNK_WORDS // k), steps left) steps from ``draw``, and
    those that have met by the window's end are dropped there. The loop stops
    when no trajectory is apart. A ``draw`` whose index is a function of the
    row and step gives counts that do not depend on DRAW_CHUNK_WORDS.

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
        # flat[x * |R| + r] = f(x, r): a view of the model's int64 table, no copy
        flat = np.asarray(table, dtype=np.intp).reshape(-1)
        report = np.zeros(m_max + 1, dtype=bool)
        report[grid] = True
        # pair[0] = X |R|, pair[1] = Y |R| of the trajectories still apart, which
        # are the rows `active` of r_idx (a slice while that is all of them)
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
            draw(window, active, step)
            r_idx[active, step:step + w] = window.T
            for r in window:
                pair += r
                flat.take(pair, out=pair, mode="clip")  # in place; no index needs the clip
                pair *= n_r
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


def splitmix64(z: int) -> int:
    """SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA 2014) of z mod 2**64."""
    z &= (1 << 64) - 1
    for shift, factor in SPLITMIX_STAGES:
        z = (z ^ z >> shift) * factor & (1 << 64) - 1
    return z


class CounterStream:
    """The MC randomness: trajectory t of start-pair slot ``slot`` reads at step s
    the index ``inverse_cdf`` gives w(t, s) = splitmix64(key + GOLDEN_GAMMA (t 2**32 + s)),
    key = splitmix64(splitmix64(seed + GOLDEN_GAMMA) + GOLDEN_GAMMA (slot + 1)).

    A counter-based stream (Salmon et al., SC 2011): no split into blocks,
    windows or pieces changes a word. ``draw(slot, first)`` is the kernel's
    draw for the block whose row 0 is trajectory ``first``; it mixes words in
    place, DRAW_PIECE_WORDS at a time. ``words`` counts the words drawn.
    """

    def __init__(self, inverse_cdf, seed: int):
        self.inverse_cdf, self.words = inverse_cdf, 0
        self.seed_key = splitmix64(seed + GOLDEN_GAMMA)
        self.mixed, self.scratch = np.empty((2, DRAW_PIECE_WORDS), dtype=np.uint64)
        self.stages = [tuple(map(np.uint64, stage)) for stage in SPLITMIX_STAGES]

    def draw(self, slot: int, first: int):
        key = np.uint64(splitmix64(self.seed_key + GOLDEN_GAMMA * (slot + 1)))
        return lambda out, rows, step: self._fill(out, key, first, rows, step)

    def _fill(self, out, key, first, rows, step):
        w, k = out.shape
        cols = -(-k // -(-k // max(1, DRAW_PIECE_WORDS // w)))  # even column split
        steps = DRAW_PIECE_WORDS // cols  # a piece: `steps` steps of `cols` trajectories
        gamma_s = np.arange(step, step + w, dtype=np.uint64)[:, None] * np.uint64(GOLDEN_GAMMA)
        for a in range(0, k, cols):
            t = np.arange(a, min(a + cols, k)) if isinstance(rows, slice) else rows[a:a + cols]
            t = (t + first).astype(np.uint64)
            t *= np.uint64(GOLDEN_GAMMA << 32 & (1 << 64) - 1)
            t += key
            for j in range(0, w, steps):
                z = self.mixed[:min(steps, w - j) * t.size]
                np.add(gamma_s[j:j + steps], t, out=z.reshape(-1, t.size))
                # the last stage, z ^= z >> 31, leaves the top 31 bits as they
                # are, so only the words of straddling buckets need it
                self._mix(z, self.scratch[:z.size], self.stages[:-1])
                out[j:j + steps, a:a + cols] = self.inverse_cdf(
                    z, self.scratch[:z.size], self._last_stage).reshape(-1, t.size)
        self.words += out.size

    def _last_stage(self, z):
        return z ^ z >> self.stages[-1][0]

    @staticmethod
    def _mix(z, scratch, stages):
        for shift, factor in stages:
            np.bitwise_xor(z, np.right_shift(z, shift, out=scratch), out=z)
            z *= factor
        return z

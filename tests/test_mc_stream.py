"""Windowed Monte-Carlo tails against a pure-Python reference of the stream.

The reference follows the stream's definition one trajectory at a time:
block b of start-pair slot s draws 64-bit words from PCG64DXSM keyed by
(seed, s, b); at each window start the k trajectories still apart, in row
order, each take W = min(max(1, DRAW_CHUNK_WORDS // k), steps left)
consecutive words; a word w gives the index searchsorted(cum, u, "right") of
the uniform u = (w >> 11) * 2**-53; pairs that have met by a window's end
are dropped there. The kernel and ``coalescence_tail_mc`` must reproduce its
counts, its words and its record of the indices read, bit for bit.
"""

import bisect
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mappings, probs_from, weights
from qcoupling import coupling, kernels
from qcoupling.coupling import (
    CDF_BUCKET_BITS,
    DRAW_CHUNK_WORDS,
    MC_BLOCK_ELEMENTS,
    _BlockStream,
    _InverseCDF,
    coalescence_tail_mc,
    mc_block_rows,
)
from qcoupling.errors import InvalidInputError
from qcoupling.kernels import coalescence_counts
from qcoupling.models import hypercube_model


def reference_block(probs, table, x0, y0, rows, m_max, grid, words):
    """(counts at ``grid``, words drawn, {(row, step): index read}) of one block.

    ``words(n)`` returns the block's next n 64-bit words as Python ints.
    """
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    cum = cum.tolist()
    apart_at = [0] * (m_max + 1)
    record, drawn = {}, 0
    if x0 != y0 and rows:
        states = {t: (int(x0), int(y0)) for t in range(rows)}  # rows still apart
        apart_at[0] = rows
        step = 0
        while step < m_max and states:
            k = len(states)
            w = min(max(1, kernels.DRAW_CHUNK_WORDS // k), m_max - step)
            block_words = words(k * w)
            drawn += k * w
            for i, t in enumerate(sorted(states)):
                x, y = states[t]
                for j in range(w):
                    r = bisect.bisect_right(cum, (block_words[i * w + j] >> 11) * 2.0**-53)
                    record[t, step + j] = r
                    x, y = int(table[x][r]), int(table[y][r])
                    apart_at[step + j + 1] += x != y
                states[t] = (x, y)
            states = {t: xy for t, xy in states.items() if xy[0] != xy[1]}
            step += w
    return [apart_at[int(m)] for m in grid], drawn, record


def pcg_words(seed, slot, block):
    bits = np.random.PCG64DXSM(np.random.SeedSequence(entropy=seed, spawn_key=(slot, block)))
    return lambda n: [int(v) for v in bits.random_raw(n)]


def reference_report(rmr, pairs, grid, samples, seed):
    """(per-pair tails, words drawn) of ``coalescence_tail_mc`` by the reference."""
    m_max = int(grid[-1])
    rows = mc_block_rows(m_max)
    per_pair = np.empty((len(grid), len(pairs)))
    drawn = 0
    for slot, (x0, y0) in enumerate(pairs):
        total = np.zeros(len(grid), dtype=np.int64)
        for block, start in enumerate(range(0, samples, rows)):
            counts, words, _ = reference_block(
                rmr.probs, rmr.table, x0, y0, min(rows, samples - start), m_max, grid,
                pcg_words(seed, slot, block),
            )
            total += counts
            drawn += words
        per_pair[:, slot] = total / samples
    return per_pair, drawn


def replay(table, r_idx, x0, y0, grid):
    """Counts at ``grid`` from stepping each row of ``r_idx`` while it is apart."""
    rows, m_max = r_idx.shape
    apart_at = [0] * (m_max + 1)
    for t in range(rows if x0 != y0 else 0):
        x, y = int(x0), int(y0)
        apart_at[0] += 1
        for step in range(m_max):
            r = r_idx[t, step]
            x, y = int(table[x][r]), int(table[y][r])
            if x == y:
                break
            apart_at[step + 1] += 1
    return [apart_at[int(m)] for m in grid]


M_MAX_CHOICES = [0, 1, 7, 33, 64, 160]
# mocked MC_BLOCK_ELEMENTS: 7 and 1001 give odd block rows (7 // 7 = 1, 1001 // 7
# = 143, 1001 // 33 = 30 ...)
BLOCK_CHOICES = [4, 7, 100, 1000, 1001, MC_BLOCK_ELEMENTS]
# mocked window budgets: one step per window, a few steps, and the real rule
WINDOW_CHOICES = [1, 5, 64, DRAW_CHUNK_WORDS]


@st.composite
def mc_problems(draw):
    rmr = draw(mappings())
    m_max = draw(st.sampled_from(M_MAX_CHOICES))
    grid = sorted(set(draw(st.lists(st.integers(0, m_max), max_size=5))) | {m_max})
    pairs = draw(st.lists(st.tuples(st.integers(0, rmr.n - 1), st.integers(0, rmr.n - 1)),
                          min_size=1, max_size=3))
    block = draw(st.sampled_from(BLOCK_CHOICES))
    with mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", block):
        rows = mc_block_rows(m_max)
    # sample counts that are and are not multiples of the block rows
    samples = min(draw(st.sampled_from([1, 3, rows, rows + 1, 2 * rows + 3, 257])), 3_000)
    seed = draw(st.integers(0, 2**32))
    window = draw(st.sampled_from(WINDOW_CHOICES))
    return rmr, pairs, grid, samples, seed, block, window


class TestInverseCDF:
    @settings(max_examples=100, deadline=None)
    @given(weights, st.integers(0, 2**32))
    def test_matches_searchsorted_on_adversarial_words(self, w, salt):
        probs = probs_from(w)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        # uniforms u = k * 2**-53 at and next to the CDF values and the bucket edges
        buckets = 1 << CDF_BUCKET_BITS
        points = np.concatenate([cum, np.arange(buckets + 1) / buckets, [0.0]])
        k = np.floor(points * 2.0**53).astype(np.int64)
        k = np.clip(np.concatenate([k - 1, k, k + 1]), 0, 2**53 - 1).astype(np.uint64)
        low = np.random.default_rng(salt).integers(0, 2**11, size=k.size, dtype=np.uint64)
        words = np.concatenate([k << np.uint64(11), (k << np.uint64(11)) | low,
                                (k << np.uint64(11)) | np.uint64(2**11 - 1)])
        want = np.searchsorted(cum, (words >> np.uint64(11)) * 2.0**-53, side="right")
        np.testing.assert_array_equal(_InverseCDF(probs)(words), want)

    def test_edge_free_buckets_need_no_search(self):
        # every CDF value sits on a bucket edge, so no bucket straddles one
        assert _InverseCDF(np.full(4, 0.25)).straddle is None
        assert _InverseCDF(np.array([0.3, 0.7])).straddle == 2


def run_kernel(rmr, x0, y0, rows, m_max, grid, seed, slot=0, block=0):
    """(counts, words drawn, filled r_idx) of one kernel call on a block's
    stream; the entries no trajectory read keep the marker 255."""
    inverse_cdf = _InverseCDF(rmr.probs)
    r_idx = np.full((rows, m_max), 255, dtype=inverse_cdf.code.dtype, order="F")
    draw = _BlockStream(inverse_cdf, seed, slot, block)
    counts = coalescence_counts(rmr.table, r_idx, x0, y0, grid, draw)
    return [int(c) for c in counts], draw.words, r_idx


def random_start(rmr, m_max, seed):
    rng = np.random.default_rng(seed)
    grid = np.unique(np.append(rng.integers(0, m_max + 1, size=3), [0, m_max]))
    x0, y0 = (int(v) for v in rng.integers(0, rmr.n, size=2))
    return grid, x0, y0


class TestBlockStream:
    @settings(max_examples=40, deadline=None)
    @given(weights, st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32),
           st.integers(0, 3), st.integers(0, 3))
    def test_blocks_draw_from_own_streams(self, w, rows, width, seed, slot, block):
        probs = probs_from(w)
        out = np.empty((rows, width), dtype=np.uint8)
        _BlockStream(_InverseCDF(probs), seed, slot, block)(out)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        words = np.array(pcg_words(seed, slot, block)(rows * width), dtype=np.uint64)
        want = np.searchsorted(cum, (words >> np.uint64(11)) * 2.0**-53, side="right")
        np.testing.assert_array_equal(out, want.reshape(rows, width))

    # pieces below one row, odd word counts, and calls whose last piece is short
    @settings(max_examples=40, deadline=None)
    @given(weights, st.sampled_from([1, 3, 4, 7, 1 << 14]),
           st.lists(st.tuples(st.integers(1, 30), st.integers(1, 9)), min_size=1, max_size=4),
           st.integers(0, 2**32))
    def test_pieces_continue_one_stream(self, w, piece, shapes, seed):
        inverse_cdf = _InverseCDF(probs_from(w))
        drawn = []
        for words in (piece, coupling.DRAW_PIECE_WORDS):
            with mock.patch.object(coupling, "DRAW_PIECE_WORDS", words):
                draw = _BlockStream(inverse_cdf, seed, 1, 2)
                outs = [np.empty(shape, dtype=np.uint8) for shape in shapes]
                for out in outs:
                    draw(out)
            assert draw.words == sum(r * c for r, c in shapes)
            drawn.append(np.concatenate([out.ravel() for out in outs]))
        np.testing.assert_array_equal(drawn[0], drawn[1])


class TestKernel:
    @settings(max_examples=100, deadline=None)
    @given(mappings(), st.sampled_from(M_MAX_CHOICES), st.integers(1, 300),
           st.sampled_from(WINDOW_CHOICES), st.integers(0, 2**32))
    def test_matches_reference_loop(self, rmr, m_max, rows, window, seed):
        grid, x0, y0 = random_start(rmr, m_max, seed)
        for start in ((x0, y0), (x0, x0)):
            with mock.patch.object(kernels, "DRAW_CHUNK_WORDS", window):
                counts, words, r_idx = run_kernel(rmr, *start, rows, m_max, grid, seed)
                want, want_words, record = reference_block(
                    rmr.probs, rmr.table, *start, rows, m_max, grid, pcg_words(seed, 0, 0))
            assert (counts, words) == (want, want_words)
            read = np.full(r_idx.shape, 255, dtype=r_idx.dtype)
            for (t, step), r in record.items():
                read[t, step] = r
            np.testing.assert_array_equal(r_idx, read)

    @settings(max_examples=60, deadline=None)
    @given(mappings(), st.sampled_from(M_MAX_CHOICES), st.integers(1, 300),
           st.sampled_from(WINDOW_CHOICES), st.integers(0, 2**32))
    def test_counts_equal_replay_of_filled_record(self, rmr, m_max, rows, window, seed):
        grid, x0, y0 = random_start(rmr, m_max, seed)
        with mock.patch.object(kernels, "DRAW_CHUNK_WORDS", window):
            counts, _, r_idx = run_kernel(rmr, x0, y0, rows, m_max, grid, seed)
        assert counts == replay(rmr.table, r_idx, x0, y0, grid)

    def test_windows_skip_coalesced_trajectories(self):
        # hypercube3 from all-zeros to all-ones: the first window gives each of
        # the 3000 rows 32768 // 3000 = 10 steps, and a row that met within it
        # reads no index after it
        rmr = hypercube_model(3).rmr
        counts, words, r_idx = run_kernel(rmr, 0, 7, 3000, 64, [0, 10, 64], seed=9)
        assert (r_idx[:, :10] != 255).all()
        still_apart = r_idx[:, 10] != 255
        assert still_apart.sum() == counts[1] > 0
        assert (r_idx[~still_apart, 10:] == 255).all()
        assert words < 3000 * 64


class TestStreamedTails:
    @settings(max_examples=150, deadline=None)
    @given(mc_problems())
    def test_counts_match_reference(self, problem):
        rmr, pairs, grid, samples, seed, block, window = problem
        with mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", block), \
                mock.patch.object(kernels, "DRAW_CHUNK_WORDS", window):
            report = coalescence_tail_mc(rmr, pairs, grid, samples=samples, seed=seed)
            per_pair, drawn = reference_report(rmr, pairs, np.array(grid), samples, seed)
        np.testing.assert_array_equal(report.per_pair, per_pair)
        assert report.words_drawn == drawn

    def test_peak_memory_bounded_by_block(self):
        """Traced peak bytes of a 100k-trajectory hypercube8 run stay bounded.

        The run holds one block's record of 1-byte indices. While it draws
        it also holds one window of 1-byte indices (at most DRAW_CHUNK_WORDS of
        them here), the kernel's pair state (16 bytes a row) and one draw piece
        of DRAW_CHUNK_WORDS / 2 words: 8-byte random words, their 8-byte bucket
        shift and 1-byte indices. That stays within 17 bytes per
        DRAW_CHUNK_WORDS word plus 64 KiB, which also covers the model's tables
        and the per-pair results. The full-array path held about 256 MB at this
        size.
        """
        m_max = 160
        bound = mc_block_rows(m_max) * m_max + 17 * DRAW_CHUNK_WORDS + 64 * 1024
        model = hypercube_model(8)
        # the first run imports numpy.random, about 0.7 MB of module objects
        # that are not the MC path's own memory
        coalescence_tail_mc(model.rmr, [(0, 255)], [m_max], samples=10, seed=2)
        tracemalloc.start()
        try:
            coalescence_tail_mc(model.rmr, [(0, 255)], [m_max], samples=100_000, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("kwargs, flag", [
        ({"seed": -1}, "--seed"),
    ])
    def test_bad_seed_or_workers_rejected(self, kwargs, flag):
        model = hypercube_model(3)
        with pytest.raises(InvalidInputError, match=flag):
            coalescence_tail_mc(model.rmr, [(0, 7)], [4], samples=10, **kwargs)

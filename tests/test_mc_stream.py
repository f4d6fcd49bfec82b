"""Windowed Monte-Carlo tails against a pure-Python reference of the stream.

The reference follows the stream's definition one word at a time:
trajectory t of start-pair slot s reads at step m the word
w(t, m) = mix(key + GAMMA * (t * 2**32 + m)) mod 2**64, where mix is
SplitMix64's finalizer, GAMMA its increment and
key = mix(mix(seed + GAMMA) + GAMMA * (s + 1)); a word w gives the index
searchsorted(cum, u, "right") of the uniform u = (w >> 11) * 2**-53. The
kernel's windows decide which words are drawn and recorded: at each window
start the k trajectories still apart, in row order, each take the next
W = min(max(1, DRAW_CHUNK_WORDS // k), steps left) steps, and pairs that
have met by a window's end are dropped there. The kernel and
``coalescence_tail_mc`` must reproduce the reference's counts, its words
drawn and its record of the indices read, bit for bit, and no block, window
or piece size may change a tail.
"""

import bisect
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from conftest import mappings, probs_from, weights
from qcoupling import coupling, kernels
from qcoupling.coupling import (
    CDF_BUCKET_BITS,
    MC_BLOCK_ELEMENTS,
    _InverseCDF,
    coalescence_tail_mc,
    mc_block_rows,
)
from qcoupling.errors import GuardExceededError, InvalidInputError
from qcoupling.kernels import DRAW_CHUNK_WORDS, CounterStream, coalescence_counts, splitmix64
from qcoupling.models import hypercube_model

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def mix(z):
    """SplitMix64's finalizer of the 64-bit z, written out."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def word_of(seed, slot, first=0):
    """w(first + t, m) of start-pair slot ``slot``, as a function of (t, m)."""
    key = mix(mix((seed + GAMMA) & MASK) + GAMMA * (slot + 1) & MASK)
    return lambda t, m: mix(key + GAMMA * ((first + t << 32) + m) & MASK)


def index_of(probs):
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    cum = cum.tolist()
    return lambda w: bisect.bisect_right(cum, (w >> 11) * 2.0**-53)


def reference_block(probs, table, x0, y0, rows, m_max, grid, word):
    """(counts at ``grid``, words drawn, {(row, step): index read}) of one
    block whose row t reads ``word(t, m)`` at step m."""
    index = index_of(probs)
    apart_at = [0] * (m_max + 1)
    record, drawn = {}, 0
    if x0 != y0 and rows:
        states = {t: (int(x0), int(y0)) for t in range(rows)}  # rows still apart
        apart_at[0] = rows
        step = 0
        while step < m_max and states:
            w = min(max(1, kernels.DRAW_CHUNK_WORDS // len(states)), m_max - step)
            drawn += len(states) * w
            for t in sorted(states):
                x, y = states[t]
                for j in range(w):
                    r = record[t, step + j] = index(word(t, step + j))
                    x, y = int(table[x][r]), int(table[y][r])
                    apart_at[step + j + 1] += x != y
                states[t] = (x, y)
            states = {t: xy for t, xy in states.items() if xy[0] != xy[1]}
            step += w
    return [apart_at[int(m)] for m in grid], drawn, record


def reference_report(rmr, pairs, grid, samples, seed):
    """(per-pair tails, words drawn) of ``coalescence_tail_mc`` by the reference."""
    m_max = int(grid[-1])
    rows = mc_block_rows(m_max)
    per_pair = np.empty((len(grid), len(pairs)))
    drawn = 0
    for slot, (x0, y0) in enumerate(pairs):
        total = np.zeros(len(grid), dtype=np.int64)
        for start in range(0, samples, rows):
            counts, words, _ = reference_block(
                rmr.probs, rmr.table, x0, y0, min(rows, samples - start), m_max, grid,
                word_of(seed, slot, start),
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
seeds = st.integers(0, 2**64 - 1)


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
    window = draw(st.sampled_from(WINDOW_CHOICES))
    return rmr, pairs, grid, samples, draw(seeds), block, window


class TestSplitMix64:
    def test_known_answers(self):
        # SplitMix64 from state 1234567: the state steps by GAMMA before each
        # output, which is the finalizer of the new state
        want = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert [splitmix64(1234567 + GAMMA * i) for i in (1, 2, 3)] == want
        assert [mix(1234567 + GAMMA * i & MASK) for i in (1, 2, 3)] == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**70))
    def test_reduces_mod_2_64(self, z):
        assert splitmix64(z) == mix(z & MASK)


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
        # the stream hands over words without SplitMix64's last stage, z ^= z >> 31,
        # and finishes only those in straddling buckets: the same indices
        shift = np.uint64(31)
        unfinished = words ^ (words >> shift) ^ (words >> np.uint64(62))
        np.testing.assert_array_equal(unfinished ^ (unfinished >> shift), words)
        got = _InverseCDF(probs)(unfinished, finish=lambda z: z ^ (z >> shift))
        np.testing.assert_array_equal(got, want)

    def test_edge_free_buckets_need_no_search(self):
        # every CDF value sits on a bucket edge, so no bucket straddles one
        assert _InverseCDF(np.full(4, 0.25)).straddle is None
        assert _InverseCDF(np.array([0.3, 0.7])).straddle == 2


def fill(probs, seed, slot, first, rows, step, shape):
    """One draw of the stream into a (steps, trajectories) array of ``shape``."""
    inverse_cdf = _InverseCDF(probs)
    out = np.empty(shape, dtype=inverse_cdf.code.dtype)
    CounterStream(inverse_cdf, seed).draw(slot, first)(out, rows, step)
    return out


class TestCounterStream:
    @settings(max_examples=60, deadline=None)
    @given(weights, st.integers(1, 40), st.integers(1, 40), seeds, st.integers(0, 3),
           st.integers(0, 2**32 - 100), st.integers(0, 2**32 - 41), st.data())
    def test_words_match_reference(self, w, k, width, seed, slot, first, step, data):
        probs = probs_from(w)
        # every row of a block, or some of them (the trajectories still apart)
        rows = data.draw(st.one_of(
            st.just(slice(None)),
            st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True).map(sorted)))
        out = fill(probs, seed, slot, first,
                   rows if isinstance(rows, slice) else np.array(rows), step, (width, k))
        word, index = word_of(seed, slot, first), index_of(probs)
        t_of = range(k) if isinstance(rows, slice) else rows
        want = [[index(word(t, step + j)) for t in t_of] for j in range(width)]
        np.testing.assert_array_equal(out, want)

    @settings(max_examples=40, deadline=None)
    @given(weights, st.sampled_from([1, 3, 7, 64, 1 << 14]), st.integers(1, 300),
           st.integers(1, 9), seeds)
    def test_pieces_do_not_change_words(self, w, piece, k, width, seed):
        probs = probs_from(w)
        args = (probs, seed, 1, 2000, slice(None), 5, (width, k))
        with mock.patch.object(kernels, "DRAW_PIECE_WORDS", piece):
            pieces = fill(*args)
        np.testing.assert_array_equal(pieces, fill(*args))

    def test_word_next_to_an_edge_is_read_whole(self):
        # the stream leaves SplitMix64's last stage, which moves only bits 0..32,
        # to the words of straddling buckets. With a CDF edge between the
        # unfinished and the whole word of trajectory 5 at step 3, only the
        # whole word reads the side of the edge the definition gives
        whole = word_of(4, 1)(5, 3)
        unfinished = whole ^ (whole >> 31) ^ (whole >> 62)
        assert unfinished ^ (unfinished >> 31) == whole
        lo, edge = sorted((w >> 11) * 2.0**-53 for w in (whole, unfinished))
        assert lo < edge
        probs = np.array([edge, 1 - edge])
        out = fill(probs, 4, 1, 0, slice(None), 3, (1, 6))
        assert out[0, 5] == index_of(probs)(whole) != index_of(probs)(unfinished)

    def test_slot_and_seed_key_their_own_words(self):
        # a key that drops the slot or the seed would give two start pairs, or
        # two seeds, one stream
        probs = np.full(256, 1 / 256)  # the index is the word's top 8 bits
        draws = [fill(probs, seed, slot, 0, slice(None), 0, (64, 64))
                 for seed, slot in ((7, 0), (7, 1), (8, 0))]
        for a in range(3):
            for b in range(a):
                assert np.mean(draws[a] == draws[b]) < 0.02

    def test_top_bits_pass_chi_square(self):
        # 4096 equal probabilities: the index is a word's top 12 bits. Over the
        # 2**20 words of 4096 trajectories x 256 steps, their counts must pass
        # a chi-square test of uniformity at level 1e-4 (4095 degrees of freedom)
        buckets = 1 << CDF_BUCKET_BITS
        draws = fill(np.full(buckets, 1 / buckets), 11, 2, 123, slice(None), 17, (256, 4096))
        counts = np.bincount(draws.ravel(), minlength=buckets)
        expected = draws.size / buckets
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2.isf(1e-4, buckets - 1)


def run_kernel(rmr, x0, y0, rows, m_max, grid, seed, slot=0):
    """(counts, words drawn, filled r_idx) of one kernel call on block 0 of
    a slot's stream; the entries no trajectory read keep the marker 255."""
    inverse_cdf = _InverseCDF(rmr.probs)
    r_idx = np.full((rows, m_max), 255, dtype=inverse_cdf.code.dtype, order="F")
    stream = CounterStream(inverse_cdf, seed)
    counts = coalescence_counts(rmr.table, r_idx, x0, y0, grid, stream.draw(slot, 0))
    return [int(c) for c in counts], stream.words, r_idx


def random_start(rmr, m_max, seed):
    rng = np.random.default_rng(seed)
    grid = np.unique(np.append(rng.integers(0, m_max + 1, size=3), [0, m_max]))
    x0, y0 = (int(v) for v in rng.integers(0, rmr.n, size=2))
    return grid, x0, y0


class TestKernel:
    @settings(max_examples=100, deadline=None)
    @given(mappings(), st.sampled_from(M_MAX_CHOICES), st.integers(1, 300),
           st.sampled_from(WINDOW_CHOICES), seeds)
    def test_matches_reference_loop(self, rmr, m_max, rows, window, seed):
        grid, x0, y0 = random_start(rmr, m_max, seed)
        for start in ((x0, y0), (x0, x0)):
            with mock.patch.object(kernels, "DRAW_CHUNK_WORDS", window):
                counts, words, r_idx = run_kernel(rmr, *start, rows, m_max, grid, seed)
                want, want_words, record = reference_block(
                    rmr.probs, rmr.table, *start, rows, m_max, grid, word_of(seed, 0))
            assert (counts, words) == (want, want_words)
            read = np.full(r_idx.shape, 255, dtype=r_idx.dtype)
            for (t, step), r in record.items():
                read[t, step] = r
            np.testing.assert_array_equal(r_idx, read)

    @settings(max_examples=60, deadline=None)
    @given(mappings(), st.sampled_from(M_MAX_CHOICES), st.integers(1, 300),
           st.sampled_from(WINDOW_CHOICES), seeds)
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


def assert_mc_peak_within_block_bound(d):
    """Trace a 100k-trajectory hypercube`d` run; its peak stays within the block bound."""
    m_max = 160
    bound = mc_block_rows(m_max) * m_max + 17 * DRAW_CHUNK_WORDS + 64 * 1024
    model = hypercube_model(d)
    tracemalloc.start()
    try:
        coalescence_tail_mc(model.rmr, [(0, 2**d - 1)], [m_max], samples=100_000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


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

    @settings(max_examples=20, deadline=None)
    @given(mc_problems())
    def test_tails_same_under_every_chunking(self, problem):
        rmr, pairs, grid, samples, seed, _, _ = problem
        tails = []
        for block in BLOCK_CHOICES:
            for window in WINDOW_CHOICES:
                with mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", block), \
                        mock.patch.object(kernels, "DRAW_CHUNK_WORDS", window):
                    tails.append(coalescence_tail_mc(rmr, pairs, grid, samples, seed).per_pair)
        for per_pair in tails[1:]:
            np.testing.assert_array_equal(per_pair, tails[0])

    def test_peak_memory_bounded_by_block(self):
        """Traced peak bytes of a 100k-trajectory hypercube8 run stay bounded.

        The run holds one block's record of 1-byte indices. While it draws
        it also holds one window of 1-byte indices (at most DRAW_CHUNK_WORDS of
        them here), the kernel's pair state (16 bytes a row) and the stream's
        pieces of 3 DRAW_CHUNK_WORDS / 8 words: the 64-bit counters, their
        64-bit scratch and 1-byte indices. That stays within 17 bytes per
        DRAW_CHUNK_WORDS word plus 64 KiB, which also covers the per-pair
        results. The model is built before tracing starts, and the kernel
        steps on its successor table, so no term grows with the table: a copy
        of hypercube12's 8 N |R| bytes = 768 KiB would break the bound.
        The full-array path held about 256 MB at hypercube8.
        """
        assert_mc_peak_within_block_bound(8)

    def test_peak_memory_bounded_by_block_hypercube12(self):
        """The same bound holds on hypercube12, whose table is 16 times larger."""
        assert_mc_peak_within_block_bound(12)

    @pytest.mark.parametrize("kwargs, flag", [
        ({"seed": -1}, "--seed"),
    ])
    def test_bad_seed_or_workers_rejected(self, kwargs, flag):
        model = hypercube_model(3)
        with pytest.raises(InvalidInputError, match=flag):
            coalescence_tail_mc(model.rmr, [(0, 7)], [4], samples=10, **kwargs)

    @pytest.mark.parametrize("samples, seed, message", [
        (10, 2**64, r"--seed must be < 2\*\*64"),
        (2**32, 1, r"--samples must be < 2\*\*32"),
    ])
    def test_counters_past_their_bits_rejected(self, samples, seed, message):
        # t and the key are 32 and 64 bits: a larger seed or sample count would
        # give some trajectories another's words
        model = hypercube_model(3)
        coalescence_tail_mc(model.rmr, [(0, 7)], [4], samples=10, seed=2**64 - 1)
        with pytest.raises(InvalidInputError, match=message):
            coalescence_tail_mc(model.rmr, [(0, 7)], [4], samples=samples, seed=seed)

    def test_step_past_32_bits_meets_the_byte_guard(self):
        model = hypercube_model(3)
        with pytest.raises(GuardExceededError, match="MC tails"):
            coalescence_tail_mc(model.rmr, [(0, 7)], [2**32], samples=10, seed=1)

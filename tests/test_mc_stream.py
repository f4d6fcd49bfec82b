"""Streamed Monte-Carlo tails against the full-array reference.

The reference is the earlier MC path: draw the whole (samples, m_max) array of
uniforms from one PCG64DXSM stream per start pair, map it with ``searchsorted``
and step every trajectory for every m. The streamed path must reproduce its
indices and counts bit for bit.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoupling import coupling
from qcoupling.coupling import (
    CDF_BUCKET_BITS,
    DRAW_CHUNK_WORDS,
    MC_BLOCK_ELEMENTS,
    RandomMappingRep,
    _draw_block,
    _InverseCDF,
    coalescence_tail_mc,
    mc_block_rows,
)
from qcoupling.errors import InvalidInputError
from qcoupling.kernels import coalescence_counts
from qcoupling.models import hypercube_model


def reference_draw(probs, samples, m_max, seed, pair_slot):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(pair_slot,))
    u = np.random.Generator(np.random.PCG64DXSM(ss)).random((samples, m_max))
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right").astype(np.int64)


def reference_counts(table, r_idx, x0, y0, grid):
    samples, m_max = r_idx.shape
    counts = np.zeros(len(grid), dtype=np.int64)
    slot = {int(m): i for i, m in enumerate(grid)}
    X = np.full(samples, x0, dtype=np.int64)
    Y = np.full(samples, y0, dtype=np.int64)
    if 0 in slot:
        counts[slot[0]] = samples if x0 != y0 else 0
    for step in range(m_max):
        r = r_idx[:, step]
        X = table[X, r]
        Y = table[Y, r]
        if step + 1 in slot:
            counts[slot[step + 1]] = int(np.count_nonzero(X != Y))
    return counts


def reference_per_pair(rmr, pairs, grid, samples, seed):
    per_pair = np.empty((len(grid), len(pairs)))
    for slot, (x0, y0) in enumerate(pairs):
        r_idx = reference_draw(rmr.probs, samples, int(grid[-1]), seed, slot)
        per_pair[:, slot] = reference_counts(rmr.table, r_idx, x0, y0, grid) / samples
    return per_pair


# Weights whose CDF lands exactly on bucket edges (sum 4 or 4096), with zeros,
# and generic weights whose CDF values fall inside buckets.
on_edges = st.lists(st.integers(0, 3), min_size=1, max_size=6).filter(
    lambda w: 0 < sum(w) <= 4
).map(lambda w: w + [4 - sum(w)])
dyadic = st.lists(st.integers(0, 4096), min_size=1, max_size=6).filter(
    lambda w: 0 < sum(w) <= 4096
).map(lambda w: w + [4096 - sum(w)])
generic = st.lists(st.integers(0, 1000), min_size=1, max_size=7).filter(lambda w: sum(w) > 0)
weights = st.one_of(on_edges, dyadic, generic)


def probs_from(w):
    w = np.asarray(w, dtype=float)
    return w / w.sum()


@st.composite
def mappings(draw):
    probs = probs_from(draw(weights))
    n = draw(st.integers(1, 6))
    table = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=n * len(probs), max_size=n * len(probs))),
        dtype=np.int64,
    ).reshape(n, len(probs))
    labels = tuple(f"r{i}" for i in range(len(probs)))
    return RandomMappingRep(base=None, r_labels=labels, probs=probs, table=table)


M_MAX_CHOICES = [0, 1, 7, 33, 64, 160]
# mocked MC_BLOCK_ELEMENTS: 7 and 1001 give odd block rows (7 // 7 = 1, 1001 // 7
# = 143, 1001 // 33 = 30 ...), so blocks start at odd word offsets
BLOCK_CHOICES = [4, 7, 100, 1000, 1001, MC_BLOCK_ELEMENTS]


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
    return rmr, pairs, grid, samples, seed, block


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




def draw_in_blocks(probs, samples, m_max, seed, slot):
    inverse_cdf = _InverseCDF(probs)
    rows = mc_block_rows(m_max)
    blocks = [
        _draw_block(inverse_cdf, seed, slot, start, min(rows, samples - start), m_max)
        for start in range(0, samples, rows)
    ]
    assert all(block.flags.f_contiguous for block in blocks)  # the kernel's column layout
    assert all(block.dtype == np.uint8 for block in blocks)  # fewer than 256 values
    return np.concatenate(blocks)


class TestStreamedDraw:
    @settings(max_examples=40, deadline=None)
    @given(weights, st.sampled_from(M_MAX_CHOICES), st.sampled_from(BLOCK_CHOICES),
           st.integers(1, 40), st.integers(0, 2**32), st.integers(0, 3))
    def test_blocks_reproduce_full_draw(self, w, m_max, block, extra, seed, slot):
        probs = probs_from(w)
        with mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", block):
            samples = mc_block_rows(m_max) + extra  # a partial last block
            drawn = draw_in_blocks(probs, samples, m_max, seed, slot)
        np.testing.assert_array_equal(drawn, reference_draw(probs, samples, m_max, seed, slot))

    # chunks below one trajectory, odd word counts, and blocks whose last
    # chunk is short
    @settings(max_examples=60, deadline=None)
    @given(weights, st.sampled_from(M_MAX_CHOICES),
           st.sampled_from([1, 3, 4, 7, "m_max - 1", DRAW_CHUNK_WORDS]),
           st.sampled_from([7, 1001, 4_000]),
           st.integers(1, 40), st.integers(0, 2**32), st.integers(0, 3))
    def test_chunks_reproduce_full_draw(self, w, m_max, chunk, small_block, extra, seed, slot):
        probs = probs_from(w)
        if chunk == "m_max - 1":
            chunk = max(m_max - 1, 1)
        # small blocks keep one-word chunks quick; the default chunk keeps the
        # default block, which it splits into several chunks
        block = MC_BLOCK_ELEMENTS if chunk == DRAW_CHUNK_WORDS else small_block
        with mock.patch.object(coupling, "DRAW_CHUNK_WORDS", chunk), \
                mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", block):
            samples = mc_block_rows(m_max) + extra
            drawn = draw_in_blocks(probs, samples, m_max, seed, slot)
        np.testing.assert_array_equal(drawn, reference_draw(probs, samples, m_max, seed, slot))


class TestKernel:
    @settings(max_examples=100, deadline=None)
    @given(mappings(), st.sampled_from([0, 1, 7, 33]), st.integers(1, 300),
           st.integers(0, 2**32), st.booleans())
    def test_matches_reference_loop(self, rmr, m_max, samples, seed, fortran):
        rng = np.random.default_rng(seed)
        r_idx = rng.integers(0, rmr.n_r, size=(samples, m_max))
        if fortran:
            r_idx = np.asfortranarray(r_idx)
        grid = np.unique(np.append(rng.integers(0, m_max + 1, size=3), [0, m_max]))
        x0, y0 = rng.integers(0, rmr.n, size=2)
        for start in ((x0, y0), (x0, x0)):
            np.testing.assert_array_equal(
                coalescence_counts(rmr.table, r_idx, *start, grid),
                reference_counts(rmr.table, r_idx, *start, grid),
            )


class TestStreamedTails:
    @settings(max_examples=150, deadline=None)
    @given(mc_problems())
    def test_counts_match_reference(self, problem):
        rmr, pairs, grid, samples, seed, block = problem
        with mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", block):
            report = coalescence_tail_mc(rmr, pairs, grid, samples=samples, seed=seed)
        np.testing.assert_array_equal(
            report.per_pair, reference_per_pair(rmr, pairs, np.array(grid), samples, seed)
        )

    def test_worker_counts_give_identical_reports(self):
        model = hypercube_model(6)
        pairs = [(0, 63), (5, 40)]
        with mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", 4_000):
            reports = [
                coalescence_tail_mc(model.rmr, pairs, [5, 10, 33], samples=3_001, seed=4,
                                    workers=w).to_csv(include_pairs=True)
                for w in (1, 2, 3)
            ]
        assert reports[0] == reports[1] == reports[2]

    @staticmethod
    def _traced_mc_peak(workers, m_max=160):
        """Traced peak bytes of a 100k-trajectory hypercube8 run, and its bound.

        Each worker holds one block of 1-byte indices and one draw chunk:
        8-byte random words, their 8-byte bucket shift and 1-byte indices, 17
        bytes per chunk word. 64 KiB covers the model's tables, the kernel's
        per-row state and the per-pair results. The full-array path held about
        256 MB at this size, the unchunked draw about 17.8 MB per worker.
        """
        bound = workers * (mc_block_rows(m_max) * m_max + 17 * DRAW_CHUNK_WORDS + 64 * 1024)
        model = hypercube_model(8)
        # the first run imports numpy.random (and the thread pool), about 0.7 MB
        # of module objects that are not the MC path's own memory
        coalescence_tail_mc(model.rmr, [(0, 255)], [m_max], samples=10, seed=2, workers=workers)
        tracemalloc.start()
        try:
            coalescence_tail_mc(model.rmr, [(0, 255)], [m_max], samples=100_000, seed=2,
                                workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, bound

    def test_peak_memory_bounded_by_block(self):
        peak, bound = self._traced_mc_peak(workers=1)
        assert peak <= bound

    def test_peak_memory_bounded_per_worker(self):
        peak, bound = self._traced_mc_peak(workers=2)
        assert peak <= bound

    @pytest.mark.parametrize("kwargs, flag", [
        ({"seed": -1}, "--seed"),
        ({"seed": 1, "workers": 0}, "--workers"),
    ])
    def test_bad_seed_or_workers_rejected(self, kwargs, flag):
        model = hypercube_model(3)
        with pytest.raises(InvalidInputError, match=flag):
            coalescence_tail_mc(model.rmr, [(0, 7)], [4], samples=10, **kwargs)

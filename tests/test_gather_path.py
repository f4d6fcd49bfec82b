"""Differential tests: a random mapping's pair space read off its successor
table against the sparse pair-space routes it replaced.

- the gather tails against the row-vector recursion on the ``Csr`` grand
  coupling (``conftest.csr_tail_rows``), on every bundled mapping with
  N <= 64 and on hypothesis mappings, within a stated rounding bound; the
  tails stay within [0, 1];
- the row-block assembly (``Csr.from_coo_blocks``) bit for bit against
  ``Csr.from_coo`` of the whole entry sequence, and the three table-built
  matrices (the grand coupling, the Kraus superoperator and Choi(C*)) against
  the ``from_coo`` constructions they replaced, at budgets down to one row
  group a block;
- a table with one misrouted successor fails the tails comparison and the
  Laplacian check;
- the trace identity's two sides are separate constructions: a successor
  misrouted in the gather alone, and a scatter that drives the two
  components by different draws (f(x, r), f(y, s)), r != s, fail it on every
  bundled mapping, and honest mappings pass it;
- ``coalesce``, ``evolve`` and ``verify`` build no pair-space operator.
"""

import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csr_tail_rows, mappings, tail_rows
from qcoupling import coupling as coupling_module
from qcoupling import csr, evolve
from qcoupling.cli import main, resolve_model
from qcoupling.coupling import (
    RandomMappingRep,
    coalescence_tail_exact,
    grand_coupling_operator,
    pair_step,
)
from qcoupling.csr import Csr
from qcoupling.evolve import coalescence_trace_identity_check, laplacian_preservation_check
from qcoupling.quantize import c_star_superop, choi_matrix, kraus_from_grand, superop_from_kraus

# every bundled random-mapping model family, up to the N = 64 guard
BUNDLED = [
    "hypercube1", "hypercube2", "hypercube3", "hypercube4", "hypercube5", "hypercube6",
    "colorings-k3-q4", "colorings-k3-q5", "colorings-path2-q3", "colorings-path2-q4",
    "colorings-path3-q4", "hardcore-path2", "hardcore-path3", "hardcore-path5",
    "hardcore-path8",
]
EPS = np.finfo(float).eps


def _rmr(name, fugacity=2.0) -> RandomMappingRep:
    return resolve_model(name, SimpleNamespace(bias=0.5, fugacity=fugacity)).rmr


def _rounding_bound(rmr, m_max: int) -> np.ndarray:
    """Largest gap, per row m, between two routes that each add at most |R|
    rounded products per step: a step of either route is within |R| eps of
    the exact step of its input, and a stochastic step does not enlarge a gap
    it is given, so after m steps the routes are within 2 m |R| eps."""
    return 2 * np.arange(m_max + 1)[:, None] * rmr.n_r * EPS


def _assert_tails_match_csr(rmr, m_max: int):
    got = tail_rows(rmr, m_max)
    want = csr_tail_rows(rmr, m_max)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= _rounding_bound(rmr, m_max))
    assert got.min(initial=0.0) >= 0.0
    # the report's worst tails are the vectors' row maxima, bit for bit
    tail_max = coalescence_tail_exact(rmr, m_max).tail_max
    assert tail_max.tobytes() == got.max(axis=1, initial=0.0).tobytes()


class TestGatherTails:
    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("fugacity", [2.0, 0.5])
    def test_bundled_mappings(self, name, fugacity):
        _assert_tails_match_csr(_rmr(name, fugacity), 40)

    @settings(max_examples=60, deadline=None)
    @given(mappings())
    def test_property(self, rmr):
        _assert_tails_match_csr(rmr, 12)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_within_unit_interval(self, name):
        # a step adds its |R| terms in r order from 0.0, each at most Pr(r),
        # so tails stay at most the r-order float sum of Pr(r), which is 1 or
        # less on these mappings; the Csr route printed 1.0000000000000002
        # for hypercube6 at m = 1 to 5
        rmr = _rmr(name)
        total = 0.0
        for p in rmr.probs:
            total += p
        assert total <= 1.0
        tails = tail_rows(rmr, 40)
        assert tails.min() >= 0.0 and tails.max() <= 1.0

    def test_step_reads_the_table_in_r_order(self):
        # hypercube6 from the off-diagonal indicator: a pair that cannot meet
        # in one step adds Pr(r) = 1/12 twelve times from 0.0
        rmr = _rmr("hypercube6")
        n = rmr.n
        v = pair_step(rmr)((~np.eye(n, dtype=bool)).ravel().astype(float))
        total = 0.0
        for p in rmr.probs:
            total += p
        assert v.max() == total == 1.0


def _misrouted(rmr: RandomMappingRep):
    """The pair (x, y) most likely to meet in one step, a value r at which it
    meets, and the mapping with f(x, r) moved to another state, so that the
    pair stays apart under r."""
    n = rmr.n
    rows = csr_tail_rows(rmr, 1)
    x, y = divmod(int(np.flatnonzero(~np.eye(n, dtype=bool).ravel())[np.argmin(rows[1])]), n)
    r = int(np.flatnonzero((rmr.table[x] == rmr.table[y]) & (rmr.probs > 0))[0])
    table = rmr.table.copy()
    table[x, r] = (table[x, r] + 1) % n
    return x, y, r, RandomMappingRep(None, rmr.r_labels, rmr.probs, table)


class TestMisroutedTable:
    @pytest.mark.parametrize("name", ["hypercube3", "hardcore-path5", "colorings-path3-q4"])
    def test_fails_the_tails_comparison(self, name):
        rmr = _rmr(name)
        x, y, r, mutant = _misrouted(rmr)
        got = tail_rows(mutant, 6)
        gap = np.abs(got - csr_tail_rows(rmr, 6))
        assert np.any(gap > _rounding_bound(rmr, 6))
        assert gap.max() >= rmr.probs[r] - 1e-15  # the pair now stays apart under r

    @pytest.mark.parametrize("name", ["hypercube3", "hardcore-path5", "colorings-path3-q4"])
    def test_fails_the_laplacian_check(self, name, monkeypatch):
        # the left side scatters through the misrouted table, the right side
        # reads the true column
        rmr = _rmr(name)
        x, y, r, mutant = _misrouted(rmr)
        assert laplacian_preservation_check(rmr, x, y).passed
        assert laplacian_preservation_check(mutant, x, y).passed  # any table is consistent
        scatter = evolve._pair_scatter
        monkeypatch.setattr(evolve, "_pair_scatter", lambda _, M: scatter(mutant, M))
        result = laplacian_preservation_check(rmr, x, y)
        assert not result.passed and result.lhs >= rmr.probs[r] / 2 - 1e-15


# ---------------------------------------------------------------------------
# The trace identity: the gather's tails against the scatter's traces


def _gather_off(monkeypatch, table):
    """Make every gather read ``table``; the scatter keeps the mapping's own."""
    gather = csr.table_gather
    monkeypatch.setattr(coupling_module, "table_gather", lambda probs, _: gather(probs, table))


def _scatter_r_s(rmr, M):
    """The mutant scatter: M[a, b] goes to (f(a, r), f(b, s)), s = r + 1 mod |R|,
    so the two components no longer share a draw."""
    a, b = np.nonzero(M)
    out = np.zeros(M.shape)
    f, g = rmr.table, np.roll(rmr.table, -1, axis=1)
    np.add.at(out, (f[a], g[b]), np.multiply.outer(M[a, b], rmr.probs))
    return out


def _identity(rmr, m=10):
    return coalescence_trace_identity_check(rmr, coalescence_tail_exact(rmr, m))


class TestTraceIdentityMutants:
    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("fugacity", [2.0, 0.5])
    def test_honest_mappings_pass(self, name, fugacity):
        result = _identity(_rmr(name, fugacity))
        assert result.passed and result.lhs <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(mappings())
    def test_property_honest_mappings_pass(self, rmr):
        assert _identity(rmr).passed

    @pytest.mark.parametrize("name", BUNDLED)
    def test_gather_only_misrouted_successor_fails(self, name, monkeypatch):
        # the scatter reads the true table, so the sides part; before, both
        # sides gathered through the one misrouted table and agreed
        rmr = _rmr(name)
        x, y, r, mutant = _misrouted(rmr)
        _gather_off(monkeypatch, mutant.table)
        result = _identity(rmr)
        assert not result.passed and result.lhs > 1e-3

    @pytest.mark.parametrize("name", ["hypercube2", "hypercube3", "hardcore-path3",
                                      "colorings-path2-q3"])
    def test_every_single_successor_gather_mutant_fails(self, name, monkeypatch):
        rmr = _rmr(name)
        for x in range(rmr.n):
            for r in range(rmr.n_r):
                table = rmr.table.copy()
                table[x, r] = (table[x, r] + 1) % rmr.n
                _gather_off(monkeypatch, table)
                assert not _identity(rmr).passed, (x, r)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_scatter_with_two_draws_fails(self, name, monkeypatch):
        monkeypatch.setattr(evolve, "_pair_scatter", _scatter_r_s)
        result = _identity(_rmr(name))
        if name == "hypercube1":
            # f(., r) is the constant r: every pair meets at step 1, and the
            # mutant sends all of the Laplacian's mass off the diagonal, so
            # both sides read 0 from k = 1 and no trace can tell them apart
            assert result.passed
        else:
            assert not result.passed and result.lhs > 0.1


# ---------------------------------------------------------------------------
# Row-block assembly


def _assert_same_csr(a: Csr, b: Csr):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()  # bit for bit, -0.0 and NaN included


def _whole_grand_coupling(rmr) -> Csr:
    """The grand coupling by one Csr.from_coo of the whole (r, x, y) sequence."""
    n, f = rmr.n, rmr.table.T
    rows = (f[:, :, None] * n + f[:, None, :]).ravel()
    cols = np.tile(np.arange(n * n), rmr.n_r)
    return Csr.from_coo(np.repeat(rmr.probs, n * n), rows, cols, (n * n, n * n)).without_zeros()


def _whole_kraus_superop(ks) -> Csr:
    n = ks.dim
    a, f = ks.amplitudes.T, ks.table.T
    data = (a[:, :, None] * a[:, None, :]).ravel()
    cols = ((f * n)[:, :, None] + f[:, None, :]).ravel()
    rows = np.tile(np.arange(n * n), f.shape[0])
    return Csr.from_coo(data, rows, cols, (n * n, n * n)).without_zeros()


def _permuted_choi(S) -> Csr:
    """Choi(S) by scattering S's stored entries: the route of a map without a table."""
    n, M = S.dim, S.matrix
    return Csr.from_coo(M.data, M.indices % n * n + M.rows % n,
                        M.indices // n * n + M.rows // n, (n * n, n * n))


def _assert_table_builds_match(rmr, pi=None):
    C = grand_coupling_operator(rmr)
    _assert_same_csr(C, _whole_grand_coupling(rmr))
    S = c_star_superop(rmr)
    _assert_same_csr(choi_matrix(S).matrix, _permuted_choi(S))
    if pi is not None:
        ks = kraus_from_grand(rmr, pi)
        _assert_same_csr(superop_from_kraus(ks).matrix, _whole_kraus_superop(ks))


class TestRowBlocks:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), seed=st.integers(0, 2**32 - 1),
           size=st.integers(0, 40), cuts=st.lists(st.integers(0, 6), max_size=4))
    def test_blocks_equal_from_coo(self, shape, seed, size, cuts):
        # random triplets with repeats, split into ascending row ranges
        rng = np.random.Generator(np.random.Philox(seed))
        rows = np.sort(rng.integers(0, shape[0], size=size))
        cols = rng.integers(0, shape[1], size=size)
        data = rng.choice([0.0, -0.0, 0.1, 0.2, 0.3, 1e300, -1e300, np.nan], size=size)
        order = rng.permutation(size)  # any input order within a block
        bounds = [0, *sorted(set(np.searchsorted(rows, cuts).tolist())), size]
        blocks = []
        for a, b in zip(bounds, bounds[1:]):
            at = np.sort(order[(order >= a) & (order < b)])
            blocks.append((data[at], rows[at], cols[at]))
        with np.errstate(over="ignore", invalid="ignore"):
            whole = Csr.from_coo(np.concatenate([d for d, _, _ in blocks]),
                                 np.concatenate([r for _, r, _ in blocks]),
                                 np.concatenate([c for _, _, c in blocks]), shape)
            _assert_same_csr(Csr.from_coo_blocks(iter(blocks), shape, size + 3), whole)

    def test_rejects_blocks_out_of_row_order(self):
        blocks = [([1.0], [1], [0]), ([1.0], [0], [0])]
        with pytest.raises(ValueError, match="ascending, disjoint row ranges"):
            Csr.from_coo_blocks(iter(blocks), (2, 2), 2)

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("budget", [24, 24 * 50, csr.BLOCK_BYTES])
    def test_bundled_mappings(self, name, budget):
        m = resolve_model(name, SimpleNamespace(bias=0.5, fugacity=2.0))
        with mock.patch.object(csr, "BLOCK_BYTES", budget):
            _assert_table_builds_match(m.rmr, m.pi)

    @settings(max_examples=60, deadline=None)
    @given(mappings(), st.sampled_from([24, 24 * 7, csr.BLOCK_BYTES]))
    def test_property(self, rmr, budget):
        # zero probabilities and repeated successors included; one row group
        # a block at the smallest budget
        with mock.patch.object(csr, "BLOCK_BYTES", budget):
            _assert_table_builds_match(rmr)

    def test_blocks_are_sized_by_the_budget(self):
        rmr = _rmr("hypercube6")
        n = rmr.n
        sizes = [r.size * n for r, _ in csr.table_row_blocks(rmr.table)]
        assert sum(sizes) == rmr.table.size * n and len(sizes) > 1
        assert max(sizes) <= csr.BLOCK_BYTES // 24


# ---------------------------------------------------------------------------
# No pair-space operator outside quantize


def test_only_quantize_builds_the_pair_operator(monkeypatch, tmp_path, capsys):
    # a build is a call on a mapping whose operator is not cached yet; every
    # qcoupling module that holds the builder gets the counting one
    builds = []
    build = coupling_module.grand_coupling_operator

    def counting(rmr):
        builds.append(rmr._operator is None)
        return build(rmr)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "qcoupling" and vars(module).get(
                "grand_coupling_operator") is build:
            monkeypatch.setattr(module, "grand_coupling_operator", counting)
    for argv in (["coalesce", "--m-max", "40"], ["evolve"], ["verify", "--m-max", "20"]):
        assert main([*argv, "--model", "hypercube6", "--out", str(tmp_path)]) == 0
        assert builds == [], argv
    assert main(["quantize", "--model", "hypercube6", "--out", str(tmp_path)]) == 0
    assert sum(builds) == 1 and len(builds) > 1  # built once, then read from the cache

"""Differential tests: a random mapping's pair space read off its successor
table against the sparse pair-space routes it replaced.

- the gather tails against the row-vector recursion on the ``Csr`` grand
  coupling (``conftest.csr_tail_rows``), on every bundled mapping with
  N <= 64 and on hypothesis mappings, within a stated rounding bound; the
  tails stay within [0, 1];
- the table assembler (``csr.table_csr``) bit for bit against
  ``Csr.from_coo`` of the whole (r, u, v) entry sequence, and the three
  matrices it reads off a table (the grand coupling, the Kraus superoperator
  and Choi(C*)) against the ``from_coo`` constructions they replaced, at
  budgets down to one row group a block, each sort holding one block;
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


def _shaped(a: np.ndarray, kind: int) -> np.ndarray:
    """a, its first column (N x 1) or its first row (|R|): the shapes a
    factor broadcasts from."""
    return (a, a[:, :1], a[0])[kind]


def _whole_table_csr(n, rows, cols, values) -> Csr:
    """table_csr's contract: Csr.from_coo of the whole (r, u, v) sequence."""
    shape = np.broadcast_shapes((n, 1), *(np.shape(a) for a in (*rows, *cols, *values)))
    (r0, r1), (c0, c1), (v0, v1) = (
        [np.broadcast_to(a, shape).T for a in pair] for pair in (rows, cols, values))
    return Csr.from_coo((v0[:, :, None] * v1[:, None, :]).ravel(),
                        (r0[:, :, None] + r1[:, None, :]).ravel(),
                        (c0[:, :, None] + c1[:, None, :]).ravel(), (n * n, n * n)).without_zeros()


class TestRowBlocks:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 5), n_r=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.integers(0, 2), min_size=6, max_size=6),
           budget=st.sampled_from([24, 24 * 7, csr.BLOCK_BYTES]))
    def test_table_csr_equals_from_coo(self, n, n_r, seed, kinds, budget):
        # every entry of cell (u, r) falls in row group rows[0][u, r] // N:
        # rows[0] % N <= k and rows[1] < N - k. Factors below `spread` make
        # cells repeat, and three rounded terms at a cell show their order
        rng = np.random.Generator(np.random.Philox(seed))
        k, spread = rng.integers(0, n), rng.integers(1, n + 1)
        table = (n, n_r)
        rows = (rng.integers(0, spread, table) * n + rng.integers(0, k + 1, table),
                rng.integers(0, n - k, table))
        cols = (rng.integers(0, spread, table) * n, rng.integers(0, spread, table))
        special = [0.0, -0.0, np.nan, 1e300, -1e300]
        values = tuple(np.where(rng.random(table) < 0.3, rng.choice(special, table),
                                rng.uniform(-1.0, 1.0, table)) for _ in "uv")
        rows, cols, values = ((_shaped(a, kind), _shaped(b, kind_b))
                              for (a, b), kind, kind_b in zip((rows, cols, values),
                                                              kinds[::2], kinds[1::2]))
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(csr, "BLOCK_BYTES", budget):
            _assert_same_csr(csr.table_csr(n, rows, cols, values),
                             _whole_table_csr(n, rows, cols, values))

    def test_rejects_an_entry_outside_its_row_group(self):
        # both cells lead row group 0, but their v = 1 entries fall in row 2,
        # of group 1
        rows = (np.zeros((2, 1), dtype=np.int64), np.array([[0], [2]]))
        with mock.patch.object(csr, "BLOCK_BYTES", 24), \
                pytest.raises(ValueError, match="outside the row group"):
            csr.table_csr(2, rows, (0, 0), (1.0, 1.0))

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
        # every sort in the builds of C, Choi(C*) and T holds one block, and
        # the blocks hold the |R| N^2 entries of each
        m = resolve_model("hypercube6", SimpleNamespace(bias=0.5, fugacity=2.0))
        sizes, cells = [], csr._cells

        def recording(data, *args):
            sizes.append(np.size(data))
            return cells(data, *args)

        with mock.patch.object(csr, "_cells", recording):
            choi_matrix(c_star_superop(m.rmr))
            superop_from_kraus(kraus_from_grand(m.rmr, m.pi))
        assert sum(sizes) == 3 * m.rmr.table.size * m.rmr.n and len(sizes) > 3
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

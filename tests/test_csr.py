"""Differential tests: every Csr operation against scipy.sparse, bit for bit.

scipy is the oracle here only. Each test builds a ``scipy.sparse.csr_array``
from the same entries and compares data, indices, indptr and every product
by their bytes, so -0.0 counts; NaN is compared by position. scipy sums
duplicate entries in input order only where a row holds at most 16 of them
(it sorts each row with an unstable sort beyond that), so the drawn
matrices keep to that; a sequential reference checks the order on longer
rows.
"""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoupling.cli import resolve_model
from qcoupling.csr import Csr, as_csr
from qcoupling.quantize import (
    c_star_superop,
    choi_matrix,
    kraus_from_grand,
    quantized_coupling,
    superop_from_kraus,
)

MODELS = [
    "hypercube2", "hypercube3", "colorings-k3-q4", "colorings-path2-q4", "hardcore-path4",
    "cycle3-prose", "cycle5-prose", "cycle3-printed",
]
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e300, 1.0]

# inf - inf, 0 * inf and overflow are drawn on purpose; numpy warns, scipy's C does not
pytestmark = pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")

values = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    SPECIAL)


def _bits(a, b):
    """a and b hold the same bits, but for the payload of a NaN: which NaN an
    operation on two NaNs returns depends on the operand order compiled code picks."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, (a.shape, b.shape, a.dtype, b.dtype)
    if a.dtype.kind == "f":
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b))
        a, b = a[~nan], b[~nan]
    assert a.tobytes() == b.tobytes()


def _oracle(M: Csr) -> scipy.sparse.csr_array:
    return scipy.sparse.csr_array((M.data, M.indices, M.indptr), shape=M.shape)


def _assert_same(M: Csr, ref):
    ref = scipy.sparse.csr_array(ref)
    assert M.shape == ref.shape and M.nnz == ref.nnz
    _bits(M.data, ref.data)
    _bits(M.indices, ref.indices.astype(np.int64))
    _bits(M.indptr, ref.indptr.astype(np.int64))


def _vector(rng, size: int, special: bool) -> np.ndarray:
    v = rng.standard_normal(size)
    if special and size:
        v[rng.integers(0, size, size=2)] = rng.choice(SPECIAL, size=2)
    return v


def _assert_operations_match(M: Csr, rng, special: bool = False):
    """Every operation of M against scipy on the same arrays."""
    ref = _oracle(M)
    _bits(M.toarray(), ref.toarray())
    _assert_same(M.T, ref.T.tocsr())
    _bits(M.rows, ref.tocoo().row.astype(np.int64))
    v, w = _vector(rng, M.shape[1], special), _vector(rng, M.shape[0], special)
    _bits(M @ v, ref @ v)
    _bits(w @ M, w @ ref)
    _bits(M.T @ w, ref.T @ w)
    rows = rng.permutation(M.shape[0])[: max(1, M.shape[0] // 2)]
    cols = rng.permutation(M.shape[1])[: max(1, M.shape[1] // 2)]
    _bits(M.block(rows, cols), ref[np.ix_(rows, cols)].toarray())
    j = int(rng.integers(0, M.shape[1]))
    _bits(M.block(np.arange(M.shape[0]), [j]), ref[:, [j]].toarray())
    assert M.nbytes == M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


@st.composite
def triplets(draw, max_entries=16):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, max_entries))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=k, max_size=k))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=k, max_size=k))
    data = draw(st.lists(values, min_size=k, max_size=k))
    return np.array(data, dtype=float), np.array(rows, dtype=np.int64), np.array(
        cols, dtype=np.int64), (n_rows, n_cols)


class TestConstruction:
    @settings(max_examples=300, deadline=None)
    @given(triplets())
    def test_from_coo_sums_duplicates_in_input_order(self, t):
        data, rows, cols, shape = t
        _assert_same(Csr.from_coo(data, rows, cols, shape),
                     scipy.sparse.csr_array((data, (rows, cols)), shape=shape))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(values, min_size=17, max_size=60), st.integers(0, 2**32 - 1))
    def test_long_duplicate_runs_add_one_by_one(self, data, seed):
        # beyond scipy's stable range: each cell is its first entry, then the
        # others added one at a time in input order
        rng = np.random.Generator(np.random.Philox(seed))
        cols = rng.integers(0, 3, size=len(data))
        M = Csr.from_coo(data, np.zeros(len(data), dtype=np.int64), cols, (1, 3))
        for j, got in zip(M.indices, M.data):
            run = [v for v, c in zip(data, cols) if c == j]
            want = run[0]
            for v in run[1:]:
                want += v
            _bits(np.float64(got), np.float64(want))

    def test_zeros_and_empty_rows_kept_as_scipy_keeps_them(self):
        data = np.array([0.0, -0.0, 1.0, -1.0, np.nan, 0.0])
        rows = np.array([0, 2, 2, 2, 4, 4])
        cols = np.array([1, 0, 3, 3, 2, 2])
        M = Csr.from_coo(data, rows, cols, (5, 4))
        _assert_same(M, scipy.sparse.csr_array((data, (rows, cols)), shape=(5, 4)))
        assert M.nnz == 4  # (0, 1) 0.0, (2, 0) -0.0, (2, 3) 1 - 1, (4, 2) NaN
        _bits(M.data[:2], np.array([0.0, -0.0]))

    @settings(max_examples=300, deadline=None)
    @given(triplets())
    def test_without_zeros_as_eliminate_zeros(self, t):
        data, rows, cols, shape = t
        ref = scipy.sparse.csr_array((data, (rows, cols)), shape=shape)
        ref.eliminate_zeros()
        M = Csr.from_coo(data, rows, cols, shape).without_zeros()
        _assert_same(M, ref)
        assert M.without_zeros() is M

    def test_without_zeros_drops_signed_zeros_keeps_nan(self):
        data = np.array([0.0, -0.0, np.nan, 1.0, 2.0, -2.0])
        rows = np.array([0, 0, 1, 1, 2, 2])
        cols = np.array([0, 1, 0, 2, 1, 1])
        M = Csr.from_coo(data, rows, cols, (3, 3)).without_zeros()
        assert M.nnz == 2 and np.isnan(M.data[0]) and M.data[1] == 1.0  # 2 - 2 went too
        _bits(M.indptr, np.array([0, 0, 2, 2]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_from_dense(self, n_rows, n_cols, data):
        M = np.array(data.draw(st.lists(values, min_size=n_rows * n_cols,
                                        max_size=n_rows * n_cols))).reshape(n_rows, n_cols)
        _assert_same(Csr.from_dense(M), scipy.sparse.csr_array(M))
        assert as_csr(M).nnz == np.count_nonzero(M)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 2)])
    def test_empty(self, shape):
        M = Csr.from_coo([], [], [], shape)
        _assert_same(M, scipy.sparse.csr_array(shape))
        _bits(M @ np.ones(shape[1]), np.zeros(shape[0]))
        _bits(np.ones(shape[0]) @ M, np.zeros(shape[1]))
        _bits(M.toarray(), np.zeros(shape))

    @pytest.mark.parametrize("side", [100, 300, 3000, 100_000])
    def test_from_coo_memory_per_entry(self, side):
        # the stable order, the sorted key and the sorted data hold 8 bytes per
        # entry each; the repeats' positions and terms, the output and the row
        # starts come on top. Gathering rows, columns and data by the order,
        # then their first entries, took 50-62 bytes per entry
        n = 200_000
        rng = np.random.default_rng(side)
        rows, cols = rng.integers(0, side, n), rng.integers(0, side, n)
        data = rng.standard_normal(n)
        tracemalloc.start()
        try:
            Csr.from_coo(data, rows, cols, (side, side))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * n + 24 * (side + 1) + (64 << 10), f"{peak / n:.1f} bytes per entry"

    def test_as_csr_keeps_a_csr(self):
        M = Csr.from_dense(np.eye(3))
        assert as_csr(M) is M

    @pytest.mark.parametrize("data,indices,indptr,shape", [
        ([1.0, 2.0], [1, 0], [0, 2], (1, 2)),  # unsorted columns
        ([1.0, 2.0], [1, 1], [0, 2], (1, 2)),  # a duplicate
        ([1.0], [2], [0, 1], (1, 2)),  # column out of range
        ([1.0], [-1], [0, 1], (1, 2)),
        ([1.0], [0], [0, 1], (2, 2)),  # indptr too short
        ([1.0], [0], [0, 2, 1], (2, 2)),  # indptr not ending at nnz
        ([1.0, 2.0], [0, 1], [0, 2, 1, 2], (3, 2)),  # indptr decreasing
        ([1.0, 2.0], [0], [0, 1], (1, 2)),  # data and indices differ in length
    ])
    def test_non_canonical_arrays_rejected(self, data, indices, indptr, shape):
        with pytest.raises(ValueError):
            Csr(np.array(data), np.array(indices), np.array(indptr), shape)

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Csr.from_coo([1.0], [2], [0], (2, 2))
        with pytest.raises(ValueError, match="out of range"):
            Csr.from_coo([1.0], [0], [-1], (2, 2))

    def test_product_shape_mismatch_rejected(self):
        M = Csr.from_dense(np.ones((2, 3)))
        for bad in (np.ones(2), np.ones((2, 2))):
            with pytest.raises(ValueError, match="cannot multiply"):
                M @ bad
        with pytest.raises(ValueError, match="cannot multiply"):
            np.ones(3) @ M


class TestImmutable:
    def test_arrays_are_read_only(self):
        M = Csr.from_dense(np.arange(6.0).reshape(2, 3))
        for a in (M.data, M.indices, M.indptr, M.rows):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            M.data = np.zeros(5)
        with pytest.raises(TypeError):
            M[0, 0] = 1.0

    def test_no_base_attribute(self):
        # byte counters walk .base to an array's owner; a Csr is counted itself
        M = Csr.from_dense(np.eye(4))
        assert not hasattr(M, "base")
        assert M.nbytes == 4 * 8 + 4 * 8 + 5 * 8

    def test_caller_array_left_writable(self):
        data = np.array([1.0, 2.0])
        M = Csr(data, np.array([0, 1]), np.array([0, 1, 2]), (2, 2))
        assert data.flags.writeable and not M.data.flags.writeable


class TestOperations:
    @settings(max_examples=300, deadline=None)
    @given(triplets(), st.integers(0, 2**32 - 1), st.booleans())
    def test_drawn_matrices(self, t, seed, special):
        data, rows, cols, shape = t
        rng = np.random.Generator(np.random.Philox(seed))
        _assert_operations_match(Csr.from_coo(data, rows, cols, shape), rng, special)

    @pytest.mark.parametrize("name", MODELS)
    def test_bundled_operators(self, name):
        m = resolve_model(name, SimpleNamespace(bias=0.7, fugacity=2.0))
        rng = np.random.Generator(np.random.Philox(7))
        S = c_star_superop(m.coupling())
        mats = [m.coupling().entries, S.matrix]
        if m.rmr is not None:
            mats.append(superop_from_kraus(kraus_from_grand(m.rmr, m.pi)).matrix)
            mats += [M.matrix for M in quantized_coupling(S, m.pi)]
        mats.append(choi_matrix(S).matrix)
        for M in mats:
            _assert_operations_match(M, rng)
            _assert_same(Csr.from_coo(M.data, M.rows, M.indices, M.shape), _oracle(M))

    def test_product_with_2d_operand_rejected(self):
        # products take 1-D operands only; no caller multiplies by a matrix
        M = Csr.from_dense(np.ones((2, 3)))
        for bad in (np.ones((3, 1)), np.ones((3, 2)), np.ones((3, 2, 2))):
            with pytest.raises(ValueError, match="cannot multiply"):
                M @ bad

    def test_hypercube6_products(self):
        M = c_star_superop(resolve_model("hypercube6", SimpleNamespace()).rmr).matrix
        assert M.nnz == 40_896
        _assert_operations_match(M, np.random.Generator(np.random.Philox(3)))

"""Compressed sparse row matrices in numpy: the storage of every pair-space
operator, superoperator and Choi matrix, and a random mapping's pair-space
matrices and pair step read off its successor table.

A :class:`Csr` is immutable and canonical: within each row the column indices
are strictly ascending, so a cell is stored at most once. Every matrix is
assembled by :meth:`Csr.from_coo` or, read off a successor table in row
blocks, by :func:`table_csr`, which gives ``from_coo``'s bits. ``from_coo``
keeps stored zeros, as scipy's canonical form does;
:meth:`Csr.without_zeros` is the one place they go.
Each operation gives the bits that the same operation on a
``scipy.sparse.csr_array`` with these arrays gives: the products ``M @ v``
and ``v @ M`` take 1-D operands only and add a row's or a column's terms in
storage order, starting from 0.0, as scipy's ``csr_matvec`` and
``csc_matvec`` do. scipy is not imported: the tests use it as the oracle for
every operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BLOCK_BYTES = 1 << 18  # COO bytes (24 an entry) per row block of a table-built Csr; memory only


@dataclass(frozen=True, eq=False)
class Csr:
    """float64 ``data`` with int64 ``indices`` and ``indptr``, held as
    read-only views: arrays of these dtypes are taken over, not copied, so a
    caller must not write to them afterwards."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    __array_ufunc__ = None  # ndarray @ Csr calls Csr.__rmatmul__

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        for name, dtype in (("data", float), ("indices", np.int64), ("indptr", np.int64)):
            a = np.asarray(getattr(self, name), dtype=dtype).view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "shape", shape)
        data, indices, indptr = self.data, self.indices, self.indptr
        nnz = data.size
        if len(shape) != 2 or min(shape) < 0 or data.ndim != 1 or indices.shape != (nnz,):
            raise ValueError("need 1-D data and indices of one length and a 2-D shape")
        if indptr.shape != (shape[0] + 1,) or indptr[0] != 0 or indptr[-1] != nnz:
            raise ValueError(f"indptr must run from 0 to nnz = {nnz} over {shape[0]} rows")
        ascending = np.diff(indices) > 0
        starts = indptr[1:-1]
        ascending[starts[(starts > 0) & (starts < nnz)] - 1] = True  # a new row starts
        if np.any(np.diff(indptr) < 0) or not ascending.all():
            raise ValueError("column indices must ascend strictly within each row")
        if nnz and (indices.min() < 0 or indices.max() >= shape[1]):
            raise ValueError(f"column index out of range for {shape[1]} columns")

    @classmethod
    def from_coo(cls, data, rows, cols, shape) -> Csr:
        """``data[k]`` at (rows[k], cols[k]). Entries at one cell are summed in
        input order, starting from the first; stored zeros are kept."""
        data, key = _cells(data, rows, cols, shape)
        n_rows, n_cols = shape
        indptr = np.searchsorted(key, np.arange(n_rows + 1) * n_cols)
        return cls(data, key % max(n_cols, 1), indptr, shape)

    @classmethod
    def from_dense(cls, M) -> Csr:
        """The cells of M that compare unequal to zero (NaN is kept, -0.0 is not)."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ValueError(f"need a 2-D array, got shape {M.shape}")
        rows, cols = np.nonzero(M)
        return cls.from_coo(M[rows, cols], rows, cols, M.shape)

    def __repr__(self) -> str:
        return f"Csr(shape={self.shape}, nnz={self.nnz})"

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of each stored entry."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    @property
    def T(self) -> Csr:
        """The transpose: entries stably sorted by column, as scipy's CSR to CSC."""
        return Csr.from_coo(self.data, self.indices, self.rows, self.shape[::-1])

    def without_zeros(self) -> Csr:
        """This matrix without its stored zeros, as scipy's ``eliminate_zeros``:
        -0.0 goes, NaN stays. A matrix that stores no zero is returned itself."""
        keep = self.data != 0
        if keep.all():
            return self
        return Csr.from_coo(self.data[keep], self.rows[keep], self.indices[keep], self.shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.indices] += self.data  # 0.0 + v: a stored -0.0 reads 0.0, as in scipy
        return out

    def block(self, rows, cols) -> np.ndarray:
        """Dense ``M[np.ix_(rows, cols)]`` for index lists without repeats."""
        at_row = np.full(self.shape[0], -1)
        at_row[rows] = np.arange(len(rows))
        at_col = np.full(self.shape[1], -1)
        at_col[cols] = np.arange(len(cols))
        i, j = at_row[self.rows], at_col[self.indices]
        inside = (i >= 0) & (j >= 0)
        out = np.zeros((len(rows), len(cols)))
        out[i[inside], j[inside]] += self.data[inside]
        return out

    def __matmul__(self, other):
        other = np.asarray(other)
        if other.shape != self.shape[1:]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        return sums_by_key(self.rows, _products(other, self.indices, self.data), self.shape[0])

    def __rmatmul__(self, other):
        other = np.asarray(other)
        if other.shape != self.shape[:1]:
            raise ValueError(f"cannot multiply {other.shape} by {self.shape}")
        return sums_by_key(self.indices, _products(other, self.rows, self.data), self.shape[1])


def table_csr(n: int, rows, cols, values) -> Csr:
    """The N^2 x N^2 matrix read off an N x |R| table: for each cell (u, r)
    and each v < N, values[0][u, r] * values[1][v, r] at row
    rows[0][u, r] + rows[1][v, r] and column cols[0][u, r] + cols[1][v, r].
    Each argument is a (u-factor, v-factor) pair of arrays that broadcast to
    N x |R|, and every entry of a cell falls in row group rows[0][u, r] // N.

    The entries are made in (r, u, v) order, in runs of row groups with at
    most BLOCK_BYTES of entries (or one group), and each run is sorted alone,
    so a cell's entries are added in r order and the matrix is
    ``Csr.from_coo`` of the whole sequence, ``without_zeros``, bit for bit.
    The cells are written into arrays as long as the |R| N^2 entries, whose
    pages past the last are never touched, and then cut to length.
    """
    shape = (n * n, n * n)
    table_shape = np.broadcast_shapes((n, 1), *(np.shape(a) for a in (*rows, *cols, *values)))
    lead = np.broadcast_to(rows[0] // n, table_shape)
    factors = [(op, np.broadcast_to(a, table_shape), np.broadcast_to(b, table_shape).T)
               for op, (a, b) in zip((np.add, np.add, np.multiply), (rows, cols, values))]
    data = np.empty(lead.size * n)
    indices = np.empty(lead.size * n, dtype=np.int64)
    counts = np.zeros(shape[0] + 1, dtype=np.int64)  # counts[i + 1]: entries of row i
    ends = np.cumsum(np.bincount(lead.ravel(), minlength=n) * n)  # entries up to each group
    nnz = lo = 0
    while lo < ends.size:
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + BLOCK_BYTES // 24, "right")))
        r, u = np.nonzero((lead.T >= lo) & (lead.T < hi))
        block_rows, block_cols, block_data = (op(a[u, r][:, None], b[r]).ravel()
                                              for op, a, b in factors)
        block_data, key = _cells(block_data, block_rows, block_cols, shape)
        if key.size and not lo * n <= key[0] // shape[1] <= key[-1] // shape[1] < hi * n:
            raise ValueError("an entry falls outside the row group of its table cell")
        np.add.at(counts, key // shape[1] + 1, 1)
        data[nnz:nnz + key.size] = block_data
        np.remainder(key, shape[1], out=indices[nnz:nnz + key.size])
        nnz += key.size
        lo = hi
    data.resize(nnz, refcheck=False)  # in place: only this function refers to them
    indices.resize(nnz, refcheck=False)
    return Csr(data, indices, np.cumsum(counts, out=counts), shape).without_zeros()


def table_gather(probs: np.ndarray, table: np.ndarray):
    """The step u -> u C of the pair chain of a random mapping, C = sum_r Pr(r)
    kron(F_r, F_r), without C: (u C)[x, y] = sum_r Pr(r) u[f(x, r), f(y, r)]
    for an N^2 vector u (pair x*N + y), gathered off the N x |R| ``table``
    with two ``take`` buffers, as ``KrausSet.apply`` gathers. The terms are
    added in r order from 0.0, each at most Pr(r) max u, so 0 <= u <= 1 steps
    to within the r-order float sum of Pr(r)."""
    n = table.shape[0]
    columns = np.ascontiguousarray(table.T)
    rows, term = np.empty((n, n)), np.empty((n, n))

    def gather(u: np.ndarray) -> np.ndarray:
        U, out = u.reshape(n, n), np.zeros((n, n))
        for p, f in zip(probs, columns):  # f is in range: "clip" clips nothing, unbuffered
            U.take(f, axis=0, out=rows, mode="clip").take(f, axis=1, out=term, mode="clip")
            out += np.multiply(term, p, out=term)
        return out.reshape(-1)

    return gather


def _cells(data, rows, cols, shape) -> tuple[np.ndarray, np.ndarray]:
    """(sums, keys): each distinct cell's entries summed in input order from
    the first, at ascending int64 keys row * n_cols + col."""
    n_rows, n_cols = shape
    data = np.asarray(data, dtype=float)
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    if rows.size and (min(rows.min(), cols.min()) < 0
                      or rows.max() >= n_rows or cols.max() >= n_cols):
        raise ValueError(f"entry index out of range for shape {tuple(shape)}")
    # one int64 key per entry, sorted stably and gathered once with the
    # data, each array replacing its predecessor
    key = rows * n_cols
    key += cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    data = data[order]
    del order
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if not first.all():
        repeat = np.flatnonzero(~first)
        terms = data[repeat]
        key = key[first]
        data = data[first]
        repeat -= np.arange(1, repeat.size + 1)  # the k-th repeat, at p, adds to cell p - k - 1
        np.add.at(data, repeat, terms)  # one by one, in order
    return data, key


def _products(v: np.ndarray, at: np.ndarray, data: np.ndarray) -> np.ndarray:
    """``data * v[at]`` in one nnz-sized array: the float gather, multiplied in
    place (``np.take`` would copy the read-only ``at`` first)."""
    terms = v[at].astype(float, copy=False)
    terms *= data
    return terms


def sums_by_key(keys: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Sum of ``terms`` per key in 0 .. size - 1, each added in storage order,
    starting from 0.0. ``np.add.at`` reads the keys in place, where
    ``np.bincount`` would copy a read-only key array first."""
    out = np.zeros(size)
    np.add.at(out, keys, terms)
    return out


def as_csr(M) -> Csr:
    """M itself if it is a :class:`Csr`, else the Csr of M as a dense array."""
    return M if isinstance(M, Csr) else Csr.from_dense(M)

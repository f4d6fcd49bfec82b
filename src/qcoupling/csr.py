"""Compressed sparse row matrices in numpy: the storage of every pair-space
operator, superoperator and Choi matrix.

A :class:`Csr` is immutable and canonical: within each row the column indices
are strictly ascending, so a cell is stored at most once. Stored zeros are
kept, as in scipy's canonical form. Each operation gives the bits that the
same operation on a ``scipy.sparse.csr_array`` with these arrays gives: the
1-D products add a row's or a column's terms in storage order, starting from
0.0, as scipy's ``csr_matvec`` and ``csc_matvec`` do, and the product with a
2-D array is scipy's compiled ``csr_matvecs`` itself. That product is the only
place scipy is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
        n_rows, n_cols = shape
        data = np.asarray(data, dtype=float)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if rows.size and (min(rows.min(), cols.min()) < 0
                          or rows.max() >= n_rows or cols.max() >= n_cols):
            raise ValueError(f"entry index out of range for shape {tuple(shape)}")
        order = np.argsort(rows * n_cols + cols, kind="stable")
        rows, cols, data = rows[order], cols[order], data[order]
        first = np.ones(data.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        summed = data[first]
        np.add.at(summed, np.cumsum(first)[~first] - 1, data[~first])  # one by one, in order
        indptr = np.searchsorted(rows[first], np.arange(n_rows + 1))
        return cls(summed, cols[first], indptr, shape)

    @classmethod
    def from_dense(cls, M) -> Csr:
        """The cells of M that compare unequal to zero (NaN is kept, -0.0 is not)."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ValueError(f"need a 2-D array, got shape {M.shape}")
        rows, cols = np.nonzero(M)
        return cls(M[rows, cols], cols, np.searchsorted(rows, np.arange(M.shape[0] + 1)), M.shape)

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
        order = np.argsort(self.indices, kind="stable")
        cols = self.indices[order]
        indptr = np.searchsorted(cols, np.arange(self.shape[1] + 1))
        return Csr(self.data[order], self.rows[order], indptr, self.shape[::-1])

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
        if other.shape[:1] != self.shape[1:]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        if other.ndim == 1:
            return sums_by_key(self.rows, self.data * other[self.indices], self.shape[0])
        import scipy.sparse  # the compiled multi-column product; the arrays are not copied

        wrapped = scipy.sparse.csr_array(
            (self.data, self.indices, self.indptr), shape=self.shape, copy=False)
        return wrapped @ other

    def __rmatmul__(self, other):
        other = np.asarray(other)
        if other.shape != self.shape[:1]:
            raise ValueError(f"cannot multiply {other.shape} by {self.shape}")
        return sums_by_key(self.indices, self.data * other[self.rows], self.shape[1])


def sums_by_key(keys: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Sum of ``terms`` per key in 0 .. size - 1, each added in storage order."""
    return np.bincount(keys, weights=terms, minlength=size).astype(float, copy=False)


def as_csr(M) -> Csr:
    """M itself if it is a :class:`Csr`, else the Csr of M as a dense array."""
    return M if isinstance(M, Csr) else Csr.from_dense(M)

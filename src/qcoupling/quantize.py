"""Superoperators, Kraus sets, and Choi matrices for quantized couplings.

Vectorization convention (fixed globally): column stacking,
``vec(M)[i + N*j] = M[i, j]``, with left-factor-major tensor products, so that
``vec(A M B) = kron(B.T, A) vec(M)`` and the matrix of the map C* equals the
coupling transition matrix C entrywise. Every Choi matrix has one layout,
basis first: J = sum_{x,y} E_xy (x) S(E_xy). All arithmetic is real double
precision; the maps built here have real matrix representations throughout.
A Kraus set is a successor table (:class:`KrausSet`), never N x N matrices.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from qcoupling.chain import ATOL_COMPUTED, ATOL_INPUT, Distribution
from qcoupling.checks import CheckResult
from qcoupling.coupling import (
    CouplingMatrix,
    RandomMappingRep,
    _successor_table,
    grand_coupling_operator,
    independent_coupling,
    validate_coupling,
)
from qcoupling.csr import Csr, as_csr, table_csr
from qcoupling.errors import InvalidInputError

CP_TOL_REL = 1e-9  # CP tolerance relative to max |J| entry
CSV_CHUNK_ENTRIES = 1 << 10  # matrix_to_csv formats this many entries at a time


def vec(M: np.ndarray) -> np.ndarray:
    """Column-stack M into a vector: vec(M)[i + N*j] = M[i, j]."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise InvalidInputError(f"cannot unvec a length-{v.size} vector")
    return np.asarray(v).reshape(n, n, order="F")


@dataclass(frozen=True)
class TableKraus:
    """Kraus operators read off a successor table: operator r holds the
    amplitude sqrt(Pr(r)) * weights[x, r] of each state x at (x, f(x, r)),
    as :class:`KrausSet` orients it, or at the transposed positions for the
    adjoint map. ``weights`` None means all ones: the operators F_r of a
    random mapping's C*.

    The Choi matrix of the map is sum_r u_r u_r^T, with u_r the operator's
    entries (Choi 1975), so its nonzero eigenvalues are those of the
    |R| x |R| Gram matrix G_rs = u_r . u_s, equal for the map and its adjoint.
    """

    probs: np.ndarray
    table: np.ndarray
    weights: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    @property
    def amplitudes(self) -> np.ndarray:
        """N x |R| read-only array of sqrt(Pr(r)) * weights[x, r]."""
        w = 1.0 if self.weights is None else self.weights
        return np.broadcast_to(np.sqrt(self.probs) * w, self.table.shape)

    def choi_spectrum(self) -> np.ndarray:
        """Ascending Choi spectrum: eigvalsh of the Gram matrix, padded with
        exact zeros to N^2 entries.

        G_rs = sqrt(Pr(r) Pr(s)) * sum over x with f(x, r) = f(x, s) of
        weights[x, r] * weights[x, s]. The Choi matrix has rank at most N^2,
        so where |R| > N^2 the |R| - N^2 eigenvalues of G nearest 0 are left
        out.
        """
        f = self.table
        w = np.ones(f.shape) if self.weights is None else self.weights
        n_r, n2 = f.shape[1], f.shape[0] ** 2
        G = np.empty((n_r, n_r))
        for r in range(n_r):
            G[r] = np.sum((f == f[:, r, None]) * (w * w[:, r, None]), axis=0)
        G *= np.sqrt(np.outer(self.probs, self.probs))
        gram = np.linalg.eigvalsh(G)
        if n_r > n2:
            gram = gram[np.sort(np.argsort(np.abs(gram))[n_r - n2:])]
        eigs = np.zeros(n2)
        eigs[: gram.size] = gram
        return np.sort(eigs)


@dataclass(frozen=True)
class Superoperator:
    """Linear map on N x N matrices in the column-stacking vectorization.

    ``matrix`` is always a :class:`~qcoupling.csr.Csr` (a dense input is
    converted), and ``apply`` is a sparse mat-vec. ``kraus``, set by the
    constructions from a random mapping (its C* and its channel T), is the
    map's :class:`TableKraus`, from which :func:`verify_cp` takes its Choi
    spectrum.
    """

    dim: int
    matrix: Csr
    kraus: TableKraus | None = field(default=None, repr=False)

    def __post_init__(self):
        m = as_csr(self.matrix)
        object.__setattr__(self, "matrix", m)
        n2 = self.dim * self.dim
        if m.shape != (n2, n2):
            raise InvalidInputError(f"superoperator matrix must be {n2}x{n2}")

    def apply(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.shape != (self.dim, self.dim):
            raise InvalidInputError(
                f"dimension mismatch: map dim {self.dim}, matrix shape {M.shape}"
            )
        return unvec(self.matrix @ vec(M))


@dataclass(frozen=True)
class KrausSet(TableKraus):
    """Kraus operators of a channel rho -> sum_r T_r rho T_r^T, one per table
    column: T_r[x, f(x, r)] = sqrt(Pr(r)) * weights[x, r], the only nonzero
    of row x. Its arrays are made read-only (an input of the right dtype is
    shared, not copied), and the Kraus condition sum_r T_r^T T_r = I, the
    N-vector identity sum_r sum_{f(x, r) = z} (sqrt(Pr(r)) weights[x, r])^2 = 1,
    is checked within ATOL_COMPUTED on construction.
    """

    def __post_init__(self):
        w = None if self.weights is None else np.asarray(self.weights, dtype=float)
        f, p = _successor_table(self.table, "Kraus table"), np.asarray(self.probs, dtype=float)
        for name, arr in (("table", f), ("probs", p), ("weights", w)):
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if (f.ndim != 2 or f.size == 0 or f.min() < 0 or f.max() >= f.shape[0]
                or p.shape != f.shape[1:] or not p.min() >= 0  # NaN fails
                or (w is not None and w.shape != f.shape)):
            raise InvalidInputError("Kraus set needs a nonempty N x |R| table of successors "
                                    "in range, one Pr(r) >= 0 per column and N x |R| weights")
        a = self.amplitudes
        if not np.isfinite(a).all():  # the Choi matrix sum_r u_r u_r^T is PSD only then
            raise InvalidInputError("Kraus operators must be finite")
        err = np.max(np.abs(np.bincount(f.ravel(), (a * a).ravel(), f.shape[0]) - 1.0))
        if not err <= ATOL_COMPUTED:  # NaN where the squares overflow
            raise InvalidInputError(f"Kraus condition sum T_r^T T_r = I violated by {err:.3g}")

    def apply(self, M: np.ndarray) -> np.ndarray:
        """sum_r T_r M T_r^T as a gather: entry (x, y) adds
        a_r(x) a_r(y) M[f(x, r), f(y, r)] over r, a the amplitudes.

        ``M`` is one N x N matrix or a (..., N, N) stack, each matrix mapped
        with the same bits as on its own."""
        M = np.asarray(M, dtype=float)
        if M.shape[-2:] != (self.dim, self.dim):
            raise InvalidInputError("dimension mismatch in Kraus application")
        out, rows, term = np.zeros(M.shape), np.empty(M.shape), np.empty(M.shape)
        for a, f in zip(self.amplitudes.T, self.table.T):
            # the table is in range, so "clip" clips nothing and takes unbuffered
            M.take(f, axis=-2, out=rows, mode="clip").take(f, axis=-1, out=term, mode="clip")
            term *= a[:, None]
            term *= a
            out += term
        return out


@dataclass
class ChoiMatrix:
    """Choi-Jamiolkowski matrix J = sum_{x,y} E_xy (x) S(E_xy) of a map S.

    This basis-first layout, the order of the bundled 3-cycle fixture, is the
    only one built; the map-first layout sum S(E_xy) (x) E_xy is its
    tensor-swap permutation and shares its spectrum. ``matrix`` is always a
    :class:`~qcoupling.csr.Csr` (a dense input is converted): J permutes the
    entries of its superoperator, so it has the same number of nonzeros.
    ``kraus`` is that superoperator's :class:`TableKraus`, when it has one.
    """

    dim: int
    matrix: Csr
    kraus: TableKraus | None = field(default=None, repr=False)
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = self.matrix = as_csr(self.matrix)
        n2 = self.dim * self.dim
        if m.shape != (n2, n2):
            raise InvalidInputError(f"Choi matrix must be {n2}x{n2}")

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum: from the Gram matrix of ``kraus`` when J has
        one (:meth:`TableKraus.choi_spectrum`), else computed on the support
        of J.

        An index i whose row and column hold no nonzero splits off a zero
        block, so ``eigvalsh`` runs only on the dense submatrix of the rows
        and columns that do, and every other eigenvalue is an exact 0. The
        asymmetry check runs on the same submatrix: outside it, J[i, j] and
        J[j, i] are both zero. A J with ``kraus`` is symmetric by construction.
        """
        if self._spectrum is None and self.kraus is not None:
            object.__setattr__(self, "_spectrum", self.kraus.choi_spectrum())
        elif self._spectrum is None:
            J = self.matrix
            nonzero = J.data != 0
            used = np.zeros(J.shape[0], dtype=bool)
            used[J.rows[nonzero]] = used[J.indices[nonzero]] = True
            support = np.flatnonzero(used)
            sub = J.block(support, support)
            # two support-sized arrays at a time: the block and the work array
            # that holds |sub - sub^T| and then the symmetrized block
            work = np.subtract(sub, sub.T)
            asym = np.max(np.abs(work, out=work), initial=0.0)
            if asym > ATOL_COMPUTED:
                raise InvalidInputError(f"Choi matrix asymmetric by {asym:.3g}")
            np.add(sub, sub.T, out=work)
            del sub
            work *= 0.5
            eigs = np.zeros(J.shape[0])
            eigs[: support.size] = np.linalg.eigvalsh(work)
            object.__setattr__(self, "_spectrum", np.sort(eigs))
        return self._spectrum


# ---------------------------------------------------------------------------
# Constructions


def c_star_superop(C: CouplingMatrix | RandomMappingRep) -> Superoperator:
    """Superoperator of C*(M) = sum c_{(x',y'),(x,y)} |x'><x| M |y><y'|.

    By the map definition C's entry at (x'N + y', xN + y) lands at
    (x' + Ny', x + Ny), the pair swap of both indices, so under condition 3
    (symmetry) the matrix of C* is the coupling's own matrix: a dense
    coupling's C* holds ``C.entries`` itself, taken to equal its swap within
    condition 3's tolerance. An asymmetric input (by the cached
    :func:`validate_coupling` report) is rejected with that report's
    condition-3 issue, since the identity, and everything downstream, breaks
    without it. A random mapping's grand coupling is symmetric by
    construction, so its C* is :func:`grand_coupling_operator` itself, with
    the mapping's table as its :class:`TableKraus`.
    """
    if isinstance(C, RandomMappingRep):
        return Superoperator(dim=C.n, matrix=grand_coupling_operator(C),
                             kraus=TableKraus(C.probs, C.table))
    report = validate_coupling(C)
    if not report.details["symmetry"]:
        [issue] = (i for i in report.issues if i.startswith("condition 3"))
        raise InvalidInputError(f"{issue}; the vectorized identity matrix(C*) = C requires it")
    return Superoperator(dim=C.n, matrix=C.entries)


def quantized_coupling(
    c_star: Superoperator, pi: Distribution
) -> tuple[Superoperator, Superoperator]:
    """Quantized coupling (T, T*) via the similarity transform by D = diag(pi).

    T*(M) = D^{-1/2} C*(D^{1/2} M D^{1/2}) D^{-1/2}; T is the Hilbert-Schmidt
    adjoint. Verifies T*(I) = I and :func:`check_fixed_point`. ``c_star`` is
    :func:`c_star_superop` of a dense coupling; its entries are rescaled into
    a new matrix. A random mapping's T is built from its table instead, by
    ``superop_from_kraus(kraus_from_grand(rmr, pi))``.
    """
    n = c_star.dim
    _check_pi(pi, n)
    s = np.sqrt(np.outer(pi.weights, pi.weights)).reshape(-1, order="F")
    S = c_star.matrix
    S_tstar = Csr(S.data * (s[S.indices] / s[S.rows]), S.indices, S.indptr, S.shape)
    T_star = Superoperator(dim=n, matrix=S_tstar)
    T = Superoperator(dim=n, matrix=S_tstar.T)

    err_tp = np.max(np.abs(T_star.apply(np.eye(n)) - np.eye(n)))
    if err_tp > ATOL_COMPUTED:
        raise InvalidInputError(f"T*(I) = I violated by {err_tp:.3g}")
    check_fixed_point(T, pi)
    return T, T_star


def check_fixed_point(T: Superoperator, pi: Distribution):
    """Raise unless T(Q) = Q within ATOL_COMPUTED, Q the qsample projector."""
    amp = np.sqrt(pi.weights)
    Q = np.outer(amp, amp)
    err_fp = np.max(np.abs(T.apply(Q) - Q))
    if err_fp > ATOL_COMPUTED:
        raise InvalidInputError(f"qsample fixed point violated by {err_fp:.3g}")


def _check_pi(pi: Distribution, n: int):
    if pi.n != n or not pi.weights.min() > 0:
        raise InvalidInputError(f"pi must be {n} positive weights (ergodicity guarantees this)")


def kraus_from_grand(rmr: RandomMappingRep, pi: Distribution) -> KrausSet:
    """Kraus operators T_r = sqrt(Pr(r)) sum_x (d_x / d_f(x,r)) |x><f(x,r)|,
    d = sqrt(pi): the mapping's table with the weights d_x / d_f(x, r)."""
    _check_pi(pi, rmr.n)
    d = np.sqrt(pi.weights)
    return KrausSet(rmr.probs, rmr.table, d[:, None] / d[rmr.table])


def superop_from_kraus(ks: KrausSet) -> Superoperator:
    """Superoperator matrix of the Kraus channel: sum_r kron(T_r, T_r), sparse.

    Read off the table: operator r puts a_r(x) a_r(y), a the amplitudes, at
    row x*N + y, column f(x, r)*N + f(y, r): :func:`table_csr` with factors
    x N and y of the row, f(x, r) N and f(y, r) of the column and a_r(x) and
    a_r(y) of the value. The products are added at each cell in r order, so
    the entries equal those of the dense sum bit for bit; cells that sum to
    zero are not stored.

    Of :func:`kraus_from_grand`'s set, it is every command's one T of a
    random mapping. Its Choi matrix is sum_r u_r u_r^T with
    u_r[x*N + i] = T_r[i, x] (Choi 1975), a sum of outer products and so PSD
    (finite operators: :class:`KrausSet`); no verdict is computed here.
    ``ks`` is the map's ``kraus``, so :func:`verify_cp` takes the Gram route.
    """
    n, a, f = ks.dim, ks.amplitudes, ks.table
    x = np.arange(n)[:, None]
    S = table_csr(n, (x * n, x), (f * n, f), (a, a))
    return Superoperator(dim=ks.dim, matrix=S, kraus=ks)


def choi_matrix(S: Superoperator) -> ChoiMatrix:
    """Choi matrix of S: S's stored entries scattered to their Choi positions.

    S[i + N*j, x + N*y] = S(E_xy)[i, j] sits at (x*N + i, y*N + j); each
    position is one expression, so i, j, x and y are not held in the scatter.
    S's :class:`TableKraus`, if it has one, goes with it.

    A random mapping's C*, whose ``kraus`` is a TableKraus without weights
    (the F_r only :func:`c_star_superop` attaches), is read off the table
    instead: C's cell (f(x, r) N + f(y, r), x N + y) sits at (u[y, r], u[x, r]),
    u[x, r] = x N + f(x, r) the place of F_r's 1 in column x, so
    Choi(C*) = sum_r Pr(r) vec(F_r) vec(F_r)^T: :func:`table_csr` with row
    factors (u, 0), column factors (0, u) and value factors (Pr(r), 1.0),
    added in r order as in C.
    """
    n, k = S.dim, S.kraus
    if type(k) is TableKraus and k.weights is None:
        u = np.arange(n)[:, None] * n + k.table
        J = table_csr(n, (u, 0), (0, u), (k.probs, 1.0))
        return ChoiMatrix(dim=n, matrix=J, kraus=k)
    M = S.matrix
    rows = M.indices % n * n + M.rows % n  # x*N + i
    cols = M.indices // n * n + M.rows // n  # y*N + j
    J = Csr.from_coo(M.data, rows, cols, (n * n, n * n))
    return ChoiMatrix(dim=n, matrix=J, kraus=S.kraus)


def min_choi_eigenvalue(J: ChoiMatrix) -> float:
    """Smallest eigenvalue of :attr:`ChoiMatrix.eigenvalues`."""
    return float(J.eigenvalues[0])


def _cp_verdict(lambda_min: float, entries: np.ndarray) -> bool:
    """lambda_min >= -CP_TOL_REL * max|entry|, a scale-free tolerance."""
    largest = float(np.abs(entries).max(initial=0.0))
    return lambda_min >= -CP_TOL_REL * max(largest, 1e-300)


def is_completely_positive(J: ChoiMatrix) -> bool:
    """lambda_min(J) >= -CP_TOL_REL * max|J|, a scale-free tolerance."""
    return _cp_verdict(min_choi_eigenvalue(J), J.matrix.data)


def verify_cp(S: Superoperator) -> bool:
    """Whether S is CP: lambda_min of S's own Choi matrix J against the
    tolerance ``CP_TOL_REL * max|J|``, read off S's entries, which J permutes.

    A map with a :class:`TableKraus` takes the spectrum from its Gram matrix
    (:meth:`TableKraus.choi_spectrum`) and never builds J; only a map without
    one gets :func:`choi_matrix` and its support eigensolve.
    """
    eigs = S.kraus.choi_spectrum() if S.kraus is not None else choi_matrix(S).eigenvalues
    return _cp_verdict(float(eigs[0]), S.matrix.data)


def independent_choi_structure_check(P) -> CheckResult:
    """Verify the Choi decomposition of the independent coupling.

    J(C*) = sum_{x,y} |x><y| (x) |p_x><p_y|
            + sum_x |x><x| (x) (diag(p_x) - |p_x><p_x|),
    with each correction block diagonally dominant with nonnegative diagonal.
    """
    C = independent_coupling(P)
    J = choi_matrix(c_star_superop(C)).matrix.toarray()
    n = P.n
    cols = P.entries  # |p_x> are the columns of P
    J_dec = np.zeros((n, n, n, n))  # axes (x, i, y, j), built from the decomposition

    for x in range(n):
        for y in range(n):
            J_dec[x, :, y, :] += np.outer(cols[:, x], cols[:, y])
    dominant = True
    for x in range(n):
        block = np.diag(cols[:, x]) - np.outer(cols[:, x], cols[:, x])
        J_dec[x, :, x, :] += block
        offsums = np.abs(block).sum(axis=1) - np.abs(np.diag(block))
        if np.any(np.diag(block) < -ATOL_INPUT) or np.any(
            np.diag(block) + ATOL_INPUT < offsums
        ):
            dominant = False
    err = float(np.max(np.abs(J - J_dec.reshape(n * n, n * n))))
    passed = err <= ATOL_INPUT and dominant
    return CheckResult(
        name="independent_choi_structure",
        passed=passed,
        lhs=err,
        rhs=0.0,
        tolerance=ATOL_INPUT,
        details={"diagonally_dominant": dominant},
    )


# ---------------------------------------------------------------------------
# Export helpers


def matrix_to_csv(matrix: Csr, header: str) -> Iterator[str]:
    """The nonzero entries of ``matrix`` as ``row,col,value`` lines, yielded
    in chunks of at most CSV_CHUNK_ENTRIES lines, so that the whole text is
    never held.

    ``header`` is the first line and ``row,col,value`` the second, both in
    the first chunk. The entries follow CSR order (row-major, then ascending
    column; a ``Csr`` stores each cell once), each value as ``f"{v:.17g}"``
    so that it reads back exactly. Stored zeros, -0.0 among them, are left
    out; NaN and +-inf are written as formatted. Every cell without a line
    is 0.0.
    """
    M = matrix.without_zeros()
    yield f"{header}\nrow,col,value\n"
    for a in range(0, M.nnz, CSV_CHUNK_ENTRIES):  # Python objects for one chunk at a time
        b = a + CSV_CHUNK_ENTRIES
        rows = np.searchsorted(M.indptr, np.arange(a, min(b, M.nnz)), "right") - 1  # not M.rows
        entries = zip(rows.tolist(), M.indices[a:b].tolist(), M.data[a:b].tolist())
        yield "".join([f"{i},{j},{v:.17g}\n" for i, j, v in entries])

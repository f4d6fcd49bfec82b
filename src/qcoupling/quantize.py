"""Superoperators, Kraus sets, and Choi matrices for quantized couplings.

Vectorization convention (fixed globally): column stacking,
``vec(M)[i + N*j] = M[i, j]``, with left-factor-major tensor products, so that
``vec(A M B) = kron(B.T, A) vec(M)`` and the matrix of the map C* equals the
coupling transition matrix C entrywise. All arithmetic is real double
precision; the maps built here have real matrix representations throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qcoupling.chain import ATOL_COMPUTED, ATOL_INPUT, Distribution
from qcoupling.checks import CheckResult
from qcoupling.coupling import (
    CouplingMatrix,
    RandomMappingRep,
    grand_coupling_operator,
    independent_coupling,
    kron_square_sum,
    swap_pair,
    validate_coupling,
)
from qcoupling.csr import Csr, as_csr
from qcoupling.errors import InvalidInputError

CP_TOL_REL = 1e-9  # CP tolerance relative to max |J| entry


def vec(M: np.ndarray) -> np.ndarray:
    """Column-stack M into a vector: vec(M)[i + N*j] = M[i, j]."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise InvalidInputError(f"cannot unvec a length-{v.size} vector")
    return np.asarray(v).reshape(n, n, order="F")


@dataclass
class Superoperator:
    """Linear map on N x N matrices in the column-stacking vectorization.

    ``matrix`` is always a :class:`~qcoupling.csr.Csr` (a dense input is
    converted), and ``apply`` is a sparse mat-vec.
    ``cp_status`` is one of "unchecked" / "verified" / "failed" and travels
    with the map; apply_channel refuses to label outputs as states unless the
    map is CP-verified.
    """

    dim: int
    matrix: Csr
    kind: str = "generic"
    cp_status: str = "unchecked"

    def __post_init__(self):
        m = self.matrix = as_csr(self.matrix)
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

    def adjoint(self) -> "Superoperator":
        """Hilbert-Schmidt adjoint (transpose of the matrix; real case)."""
        return Superoperator(self.dim, self.matrix.T, kind=self.kind + "_adjoint",
                             cp_status=self.cp_status)


@dataclass
class KrausSet:
    """Kraus operators of a channel rho -> sum_r T_r rho T_r^T."""

    dim: int
    ops: list[np.ndarray]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        ops = [np.asarray(T, dtype=float) for T in self.ops]
        object.__setattr__(self, "ops", ops)
        if not ops:
            raise InvalidInputError("Kraus set must be nonempty")
        for T in ops:
            if T.shape != (self.dim, self.dim):
                raise InvalidInputError("all Kraus operators must be dim x dim")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(len(ops))))
        total = sum(T.T @ T for T in ops)
        err = np.max(np.abs(total - np.eye(self.dim)))
        if err > ATOL_COMPUTED:
            raise InvalidInputError(
                f"Kraus condition sum T_r^T T_r = I violated by {err:.3g}"
            )

    def apply(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.shape != (self.dim, self.dim):
            raise InvalidInputError("dimension mismatch in Kraus application")
        return sum(T @ M @ T.T for T in self.ops)


def _nonzero_entries(M: Csr):
    """(rows, cols, values) of the stored entries of M that are not zero."""
    keep = M.data != 0
    return M.rows[keep], M.indices[keep], M.data[keep]


@dataclass
class ChoiMatrix:
    """Choi-Jamiolkowski matrix with either tensor-factor order.

    ``order`` is "map_first" (J = sum S(E_xy) (x) E_xy) or "basis_first"
    (J = sum E_xy (x) S(E_xy)); the two are related by the tensor-swap
    permutation and share their spectrum. ``matrix`` is always a
    :class:`~qcoupling.csr.Csr` (a dense input is converted): J permutes the
    entries of its superoperator, so it has the same number of nonzeros.
    """

    dim: int
    matrix: Csr
    order: str = "map_first"
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = self.matrix = as_csr(self.matrix)
        n2 = self.dim * self.dim
        if m.shape != (n2, n2):
            raise InvalidInputError(f"Choi matrix must be {n2}x{n2}")
        if self.order not in ("map_first", "basis_first"):
            raise InvalidInputError(f"unknown factor order {self.order!r}")

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, computed on the support of J.

        An index i whose row and column hold no nonzero splits off a zero
        block, so ``eigvalsh`` runs only on the dense submatrix of the rows
        and columns that do, and every other eigenvalue is an exact 0. The
        asymmetry check runs on the same submatrix: outside it, J[i, j] and
        J[j, i] are both zero.
        """
        if self._spectrum is None:
            rows, cols, _ = _nonzero_entries(self.matrix)
            support = np.union1d(rows, cols)
            sub = self.matrix.block(support, support)
            asym = np.max(np.abs(sub - sub.T), initial=0.0)
            if asym > ATOL_COMPUTED:
                raise InvalidInputError(f"Choi matrix asymmetric by {asym:.3g}")
            eigs = np.zeros(self.matrix.shape[0])
            eigs[: support.size] = np.linalg.eigvalsh(0.5 * (sub + sub.T))
            object.__setattr__(self, "_spectrum", np.sort(eigs))
        return self._spectrum

    def swapped(self) -> "ChoiMatrix":
        """Same map in the other factor order (tensor-swap permutation)."""
        n = self.dim
        other = "basis_first" if self.order == "map_first" else "map_first"
        J = self.matrix
        m = Csr.from_coo(J.data, swap_pair(J.rows, n), swap_pair(J.indices, n), J.shape)
        return ChoiMatrix(n, m, order=other)


# ---------------------------------------------------------------------------
# Constructions


def c_star_superop(C: CouplingMatrix | RandomMappingRep) -> Superoperator:
    """Superoperator of C*(M) = sum c_{(x',y'),(x,y)} |x'><x| M |y><y'|.

    Built from the stored entries of C by the map definition: C's entry at
    (x'N + y', xN + y) lands at (x' + Ny', x + Ny). For symmetric couplings the matrix therefore
    equals C entrywise; asymmetric inputs (by the cached
    :func:`validate_coupling` report) are rejected because the identity, and
    everything downstream, breaks without condition 3. A random mapping's
    grand coupling is symmetric by construction, so its C* is
    :func:`grand_coupling_operator` itself.
    """
    if isinstance(C, RandomMappingRep):
        return Superoperator(dim=C.n, matrix=grand_coupling_operator(C), kind="C*")
    n = C.n
    E = C.entries
    S = Csr.from_coo(E.data, swap_pair(E.rows, n), swap_pair(E.indices, n), E.shape)
    if not validate_coupling(C).details["symmetry"]:
        diff = Csr.from_coo(  # S - C: where both store an entry, S's plus C's negated
            np.concatenate([S.data, -E.data]),
            np.concatenate([S.rows, E.rows]),
            np.concatenate([S.indices, E.indices]),
            S.shape,
        )
        asym = float(np.abs(diff.data).max(initial=0.0))
        raise InvalidInputError(
            f"coupling violates the symmetry condition by {asym:.3g}; "
            "the vectorized identity matrix(C*) = C requires it"
        )
    return Superoperator(dim=n, matrix=S, kind="C*")


def quantized_coupling(
    C: CouplingMatrix, pi: Distribution, c_star: Superoperator | None = None
) -> tuple[Superoperator, Superoperator]:
    """Quantized coupling (T, T*) via the similarity transform by D = diag(pi).

    T*(M) = D^{-1/2} C*(D^{1/2} M D^{1/2}) D^{-1/2}; T is the Hilbert-Schmidt
    adjoint. Verifies T*(I) = I and that the qsample projector is fixed by T.
    ``c_star`` is :func:`c_star_superop` of C when the caller has built it
    already; its entries are rescaled into a new matrix.
    """
    n = C.n
    if pi.n != n:
        raise InvalidInputError("distribution length does not match coupling dimension")
    if pi.weights.min() <= 0:
        raise InvalidInputError("pi must be strictly positive (ergodicity guarantees this)")
    s = np.sqrt(np.outer(pi.weights, pi.weights)).reshape(-1, order="F")
    S = (c_star if c_star is not None else c_star_superop(C)).matrix
    S_tstar = Csr(S.data * (s[S.indices] / s[S.rows]), S.indices, S.indptr, S.shape)
    T_star = Superoperator(dim=n, matrix=S_tstar, kind="T*")
    T = Superoperator(dim=n, matrix=S_tstar.T, kind="T")

    err_tp = np.max(np.abs(T_star.apply(np.eye(n)) - np.eye(n)))
    if err_tp > ATOL_COMPUTED:
        raise InvalidInputError(f"T*(I) = I violated by {err_tp:.3g}")
    amp = np.sqrt(pi.weights)
    Q = np.outer(amp, amp)
    err_fp = np.max(np.abs(T.apply(Q) - Q))
    if err_fp > ATOL_COMPUTED:
        raise InvalidInputError(f"qsample fixed point violated by {err_fp:.3g}")
    return T, T_star


def kraus_from_grand(rmr: RandomMappingRep, pi: Distribution) -> KrausSet:
    """Kraus operators T_r = sqrt(Pr(r)) sum_x D^{1/2} |x><f(x,r)| D^{-1/2}."""
    n = rmr.n
    if pi.n != n:
        raise InvalidInputError("distribution length does not match mapping dimension")
    if pi.weights.min() <= 0:
        raise InvalidInputError("pi must be strictly positive")
    d = np.sqrt(pi.weights)
    ops = []
    rows = np.arange(n)
    for r in range(rmr.n_r):
        T = np.zeros((n, n))
        succ = rmr.table[:, r]
        T[rows, succ] = np.sqrt(rmr.probs[r]) * d / d[succ]
        ops.append(T)
    return KrausSet(dim=n, ops=ops, labels=rmr.r_labels)


def superop_from_kraus(ks: KrausSet) -> Superoperator:
    """Superoperator matrix of the Kraus channel: sum_r kron(T_r, T_r), sparse.

    Only the nonzeros of each kron(T_r, T_r) are formed; for the Kraus
    operators of a grand coupling that is at most |R| per row. The entries
    equal those of the dense sum bit for bit (:func:`kron_square_sum`). The CP
    status comes from :func:`certify_kraus_cp` on the assembled matrix.
    """
    factors = []
    for T in ks.ops:
        rows, cols = np.nonzero(T)
        factors.append((rows, cols, T[rows, cols]))
    S = kron_square_sum(factors, np.ones(len(ks.ops)), ks.dim)
    out = Superoperator(dim=ks.dim, matrix=S, kind="T_from_kraus")
    certify_kraus_cp(out, ks.ops)
    return out


def _choi_positions(S: Superoperator, order: str):
    """Positions in Choi(S) of S's stored entries: (rows, cols, values).

    S[i + N*j, x + N*y] = S(E_xy)[i, j] sits at (i*N + x, j*N + y) in the
    map-first order and at (x*N + i, y*N + j) in the basis-first order.
    """
    n = S.dim
    M = S.matrix
    (j, i), (y, x) = np.divmod(M.rows, n), np.divmod(M.indices, n)
    if order == "map_first":
        return i * n + x, j * n + y, M.data
    if order == "basis_first":
        return x * n + i, y * n + j, M.data
    raise InvalidInputError(f"unknown factor order {order!r}")


def choi_matrix(S: Superoperator, order: str = "map_first") -> ChoiMatrix:
    """Choi matrix of S: S's stored entries scattered to their Choi positions."""
    n2 = S.dim * S.dim
    rows, cols, values = _choi_positions(S, order)
    return ChoiMatrix(dim=S.dim, matrix=Csr.from_coo(values, rows, cols, (n2, n2)), order=order)


def min_choi_eigenvalue(J: ChoiMatrix) -> float:
    """Smallest Choi eigenvalue (symmetric eigensolver).

    Raises if J is asymmetric beyond 1e-10. The companion CP verdict is
    exposed through :func:`is_completely_positive` with the scale-free
    tolerance ``CP_TOL_REL * max|J|``.
    """
    return float(J.eigenvalues[0])


def _cp_tolerance(values: np.ndarray, cp_tol_rel: float = CP_TOL_REL) -> float:
    """Scale-free CP tolerance cp_tol_rel * max|J| from the entries of J or of
    its superoperator S: J permutes S's entries, so both give the same max."""
    largest = max(float(values.max(initial=0.0)), -float(values.min(initial=0.0)))
    return cp_tol_rel * max(largest, 1e-300)


def is_completely_positive(J: ChoiMatrix, cp_tol_rel: float = CP_TOL_REL) -> bool:
    return min_choi_eigenvalue(J) >= -_cp_tolerance(J.matrix.data, cp_tol_rel)


def verify_cp(S: Superoperator, cp_tol_rel: float = CP_TOL_REL) -> ChoiMatrix:
    """Compute the Choi matrix and stamp S.cp_status accordingly."""
    J = choi_matrix(S)
    S.cp_status = "verified" if is_completely_positive(J, cp_tol_rel) else "failed"
    return J


# CP certificates: verdicts of verify_cp without its dense eigensolve. Each
# bounds lambda_min of the map's Choi matrix and stamps the map only when the
# bounds decide the test lambda_min >= -CP_TOL_REL * max|J| either way;
# otherwise verify_cp decides.


def _choi_residual(S: Superoperator, keys: np.ndarray, form: np.ndarray) -> float:
    """Frobenius norm of Choi_map_first(S) - F, where F holds ``form`` at the
    sorted flat positions ``keys`` (row * N^2 + column) and is zero elsewhere.

    Only the stored entries of S and of F are visited: where both have one
    the difference counts, elsewhere each side's own entries do.
    """
    rows, cols, values = _choi_positions(S, "map_first")
    s_keys = rows.astype(np.int64) * S.dim**2 + cols
    pos = np.searchsorted(keys, s_keys)
    inside = pos < keys.size
    inside[inside] = keys[pos[inside]] == s_keys[inside]
    diff = np.array(form, dtype=float)
    diff[pos[inside]] -= values[inside]
    outside = values[~inside]
    return math.sqrt(float(np.vdot(diff, diff)) + float(np.vdot(outside, outside)))


def _kraus_residual(S: Superoperator, ops: list[np.ndarray]) -> float:
    """Frobenius norm of Choi(S) - sum_r u_r u_r^T, with u_r[i*N + x] = T_r[i, x].

    The form is evaluated straight from the Kraus operators, at the positions
    where it can be nonzero: products of two nonzeros of one T_r. It is added
    up one r at a time, so no more than one u_r u_r^T is held beside it.
    """
    n2 = S.dim**2
    support = []
    for T in ops:
        p = np.flatnonzero(T)  # u_r's nonzeros, row-major as u_r[i*N + x]
        support.append((p, (p[:, None] * n2 + p[None, :]).ravel()))
    keys = np.unique(np.concatenate([k for _, k in support]))
    form = np.zeros(keys.size)
    for T, (p, k) in zip(ops, support):
        u = T.ravel()[p]
        form[np.searchsorted(keys, k)] += (u[:, None] * u[None, :]).ravel()
    return _choi_residual(S, keys, form)


def certify_kraus_cp(S: Superoperator, ops: list[np.ndarray]) -> str:
    """Stamp S CP-verified if it is the Kraus map rho -> sum_r T_r rho T_r^T.

    That map's Choi matrix is sum_r u_r u_r^T (Choi 1975), which is PSD, so
    by Weyl's inequality lambda_min(Choi(S)) >= -||Choi(S) - sum_r u_r u_r^T||_F.
    A residual within the CP tolerance therefore passes the test verify_cp
    applies. Any other S goes to verify_cp.
    """
    if _kraus_residual(S, ops) <= _cp_tolerance(S.matrix.data):
        S.cp_status = "verified"
    else:
        verify_cp(S)
    return S.cp_status


def _congruence_residual(T: Superoperator, J: ChoiMatrix, k: np.ndarray) -> float:
    """Frobenius norm of Choi_map_first(T) - K Choi_basis_first(C*) K, K = diag(k),
    with the form evaluated at the nonzeros of J."""
    n = T.dim
    rows, cols, form = _nonzero_entries(J.matrix)
    if J.order == "map_first":  # to the basis-first positions
        rows, cols = swap_pair(rows, n), swap_pair(cols, n)
    form = form * k[cols] * k[rows]
    keys = rows.astype(np.int64) * n * n + cols
    sort = np.argsort(keys)
    return _choi_residual(T, keys[sort], form[sort])


def certify_cp_by_congruence(T: Superoperator, J: ChoiMatrix, pi: Distribution) -> str:
    """Stamp the similarity-route T from the already computed spectrum of J = Choi(C*).

    Choi_map_first(T) = K Choi_basis_first(C*) K with the positive diagonal
    K = diag(kron(sqrt(pi), 1/sqrt(pi))), so by Ostrowski's theorem
    lambda_min(Choi(T)) = theta * lambda_min(J) for some theta in
    [min K^2, max K^2] (Sylvester's law of inertia is the sign part). The
    congruence is checked entrywise on the actual matrices; its Frobenius
    residual and a backward-error allowance for J's computed spectrum widen
    the bounds (Weyl). Bounds that straddle the CP tolerance fall back to
    verify_cp.
    """
    n = T.dim
    if J.dim != n or pi.n != n:
        raise InvalidInputError("channel, Choi matrix and pi dimensions differ")
    d = np.sqrt(pi.weights)
    k = np.kron(d, 1.0 / d)  # K's diagonal
    residual = _congruence_residual(T, J, k)

    eigs = J.eigenvalues
    lam = float(eigs[0])
    slack = n * n * np.finfo(float).eps * max(abs(lam), abs(float(eigs[-1])))
    k2 = (float(k.min()) ** 2, float(k.max()) ** 2)
    lo = min(c * (lam - slack) for c in k2) - residual
    hi = max(c * (lam + slack) for c in k2) + residual
    tol = _cp_tolerance(T.matrix.data)
    if lo >= -tol:
        T.cp_status = "verified"
    elif hi < -tol:
        T.cp_status = "failed"
    else:
        verify_cp(T)
    return T.cp_status


def apply_channel(channel, rho):
    """Apply a Superoperator or KrausSet to a state.

    For CP-verified maps (Kraus sets are CP by construction) the output is
    returned as a validated DensityMatrix; for analysis maps that are not
    CP-verified, the raw output matrix is returned instead and positivity is
    not asserted.
    """
    from qcoupling.evolve import DensityMatrix

    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=float)
    if isinstance(channel, KrausSet):
        out = channel.apply(mat)
        return DensityMatrix(out) if isinstance(rho, DensityMatrix) else out
    if isinstance(channel, Superoperator):
        out = channel.apply(mat)
        if channel.cp_status == "verified" and isinstance(rho, DensityMatrix):
            return DensityMatrix(out)
        return out
    raise InvalidInputError(f"unsupported channel type {type(channel).__name__}")


def independent_choi_structure_check(P) -> CheckResult:
    """Verify the Choi decomposition of the independent coupling.

    J(C*) = sum_{x,y} |p_x><p_y| (x) |x><y|
            + sum_x (diag(p_x) - |p_x><p_x|) (x) |x><x|,
    with each correction block diagonally dominant with nonnegative diagonal.
    """
    C = independent_coupling(P)
    J = choi_matrix(c_star_superop(C), order="map_first").matrix.toarray()
    n = P.n
    cols = P.entries  # |p_x> are the columns of P
    J_dec = np.zeros((n, n, n, n))  # axes (i, x, j, y), built from the decomposition

    for x in range(n):
        for y in range(n):
            J_dec[:, x, :, y] += np.outer(cols[:, x], cols[:, y])
    dominant = True
    for x in range(n):
        block = np.diag(cols[:, x]) - np.outer(cols[:, x], cols[:, x])
        J_dec[:, x, :, x] += block
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


def matrix_to_csv(matrix: Csr, header: str) -> str:
    """The nonzero entries of ``matrix`` as ``row,col,value`` lines.

    ``header`` is the first line and ``row,col,value`` the second. The
    entries follow CSR order (row-major, then ascending column; a ``Csr``
    stores each cell once), each value as ``f"{v:.17g}"`` so that it reads
    back exactly. Stored zeros, -0.0 among them, are left out; NaN and +-inf
    are written as formatted. Every cell without a line is 0.0.
    """
    rows, cols, values = _nonzero_entries(matrix)
    lines = [header, "row,col,value"]
    lines += [
        f"{i},{j},{v:.17g}" for i, j, v in zip(rows.tolist(), cols.tolist(), values.tolist())
    ]
    lines.append("")  # the trailing newline
    return "\n".join(lines)

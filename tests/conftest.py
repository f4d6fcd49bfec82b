import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qcoupling import quantize
from qcoupling.chain import ATOL_COMPUTED, TransitionMatrix
from qcoupling.checks import CheckResult
from qcoupling.coupling import (
    CouplingMatrix,
    RandomMappingRep,
    grand_coupling_operator,
    induced_entries,
    tail_vectors,
)
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import qsample, trace_distance
from qcoupling.models import (
    colorings_model,
    complete_graph,
    hardcore_model,
    hypercube_model,
    path_graph,
)


@pytest.fixture(scope="session")
def hypercube2():
    return hypercube_model(2)


@pytest.fixture(scope="session")
def hypercube3():
    return hypercube_model(3)


@pytest.fixture(scope="session")
def hardcore_p3_lam2():
    return hardcore_model(path_graph(3), 2.0)


@pytest.fixture(scope="session")
def hardcore_p3_lam_half():
    return hardcore_model(path_graph(3), 0.5)


@pytest.fixture(scope="session")
def colorings_k3_q4():
    return colorings_model(complete_graph(3), 4)


def random_ergodic_chain(n: int, rng: np.random.Generator):
    """Strictly positive column-stochastic matrix (hence ergodic)."""
    cols = rng.dirichlet(np.ones(n), size=n).T + 1e-3
    cols /= cols.sum(axis=0)
    return TransitionMatrix(tuple(str(i) for i in range(n)), cols)


def csr_tail_rows(rmr, m_max: int) -> np.ndarray:
    """The per-pair tails of a mapping, rows m = 0..m_max and pairs (x, y),
    x != y, in (x, y) order, by the row-vector recursion v <- v @ C on the
    sparse grand coupling: the reference the table gather is tested against."""
    n = rmr.n
    C = grand_coupling_operator(rmr)
    off = ~np.eye(n, dtype=bool).ravel()
    v = off.astype(float)
    rows = [v[off]]
    for _ in range(m_max):
        v = v @ C
        rows.append(v[off])
    return np.array(rows)


def tail_rows(coupling, m_max: int) -> np.ndarray:
    """Every start pair's exact tails, rows m = 0..m_max and pairs (x, y),
    x != y, in (x, y) order, read off ``coupling.tail_vectors``: the per-pair
    table that exact reports no longer hold."""
    off = ~np.eye(coupling.n, dtype=bool).ravel()
    return np.array([v[off] for v in tail_vectors(coupling, m_max)])


def offdiag_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (x, y), x != y, in (x, y) order: the columns of ``tail_rows``."""
    return [(x, y) for x in range(n) for y in range(n) if x != y]


def coupling_4tensor(C) -> np.ndarray:
    """A coupling's entries as a new dense array with axes (x', y', x, y): the
    reference the sparse pair-space code is tested against."""
    n = C.n
    return C.entries.toarray().reshape(n, n, n, n)


def unstamped_grand_coupling(rmr) -> CouplingMatrix:
    """A mapping's grand coupling as a plain CouplingMatrix, without the report
    ``grand_coupling_matrix`` stamps on it by construction, so that
    validate_coupling runs its full check of the stored entries."""
    return CouplingMatrix(base=rmr.base, entries=grand_coupling_operator(rmr))


@pytest.fixture
def eigensolves(monkeypatch):
    """Record the maps passed to quantize.verify_cp through the module attribute:
    the calls made inside qcoupling.quantize. A test's own verify_cp, imported
    by name, is not recorded."""
    calls = []
    verify_cp = quantize.verify_cp

    def counting(S, *args, **kwargs):
        calls.append(S)
        return verify_cp(S, *args, **kwargs)

    monkeypatch.setattr(quantize, "verify_cp", counting)
    return calls


def coupon_collector_tail(n: int, m: int) -> float:
    """Exact Pr{some of n coupons unseen after m draws} by inclusion-exclusion:
    the closed form that the hypercube's exact and MC tails are compared with."""
    total = 0.0
    for k in range(1, n + 1):
        total += (-1) ** (k + 1) * math.comb(n, k) * (1.0 - k / n) ** m
    return min(1.0, max(0.0, total))


def hypercube_qperp_overlap(n: int, m: int) -> float:
    """tr(Q_perp T^m(rho)) on the n-cube from I/N or a basis state:
    1 - sum_k C(n, k) (-1/2)^k (1 - k/n)^m, the pi (x) pi-averaged
    coupon-collector tail (Levin, Peres & Wilmer, Markov Chains and Mixing
    Times, 2nd ed. 2017)."""
    return 1.0 - sum(math.comb(n, k) * (-0.5) ** k * (1.0 - k / n) ** m for k in range(n + 1))


def dense_kraus_ops(ks) -> list[np.ndarray]:
    """A table's Kraus operators as N x N matrices, T_r[x, f(x, r)] = a_r(x):
    the dense reference the table-driven Kraus code is tested against."""
    n = ks.dim
    ops = []
    for a, f in zip(ks.amplitudes.T, ks.table.T):
        T = np.zeros((n, n))
        T[np.arange(n), f] = a
        ops.append(T)
    return ops


def reference_orbit(apply, rho0: np.ndarray, m_max: int) -> list[np.ndarray]:
    """rho0 and m_max steps of ``apply``, one matrix at a time: the reference
    the convergence checks' stacked Kraus orbit is compared against."""
    rhos = [np.asarray(rho0, dtype=float)]
    for _ in range(m_max):
        rhos.append(apply(rhos[-1]))
    return rhos


def qperp_bound_reference(apply, pi, report, rho0s, grid) -> CheckResult:
    """qperp_bound_check state by state, on each state's own orbit under
    ``apply``, with tr(Qperp rho) from the complement matrix Qperp = I - Q."""
    Qp = qsample(pi).complement
    pi_star = float(pi.weights.min())
    rows = [(float(np.trace(Qp @ rho)), report.tail_at(m) / pi_star)
            for rho0 in rho0s
            for m, rho in enumerate(reference_orbit(apply, rho0.matrix, max(grid)))
            if m in grid]

    def ratio(lhs, rhs):
        return lhs / rhs if rhs > 0 else (0.0 if lhs <= ATOL_COMPUTED else np.inf)

    informative = [(lhs, rhs) for lhs, rhs in rows if rhs < 1.0]
    violations = sum(lhs > rhs + ATOL_COMPUTED for lhs, rhs in informative)
    return CheckResult(
        name="qperp_bound", passed=violations == 0,
        lhs=max([0.0, *(ratio(*row) for row in informative)]), rhs=1.0,
        tolerance=ATOL_COMPUTED,
        details={"violations": violations, "vacuous_rows": len(rows) - len(informative),
                 "worst_ratio_incl_vacuous": max([0.0, *(ratio(*row) for row in rows)])},
    )


def main_theorem_reference(apply, pi, report, rho0s, eps_list) -> CheckResult:
    """main_theorem_check with one run per eps and state, each to its own m."""
    Q = qsample(pi).projector
    pi_star = float(pi.weights.min())
    worst, passed = -np.inf, True
    for eps in eps_list:
        m = math.ceil(0.5 * math.log2(1.0 / (eps * pi_star))) * report.t_couple
        for rho0 in rho0s:
            lhs, rhs = trace_distance(reference_orbit(apply, rho0.matrix, m)[-1], Q), math.sqrt(eps)
            worst = max(worst, lhs - rhs)
            passed = passed and not lhs > rhs + ATOL_COMPUTED
    return CheckResult(
        name="main_theorem", passed=passed, lhs=worst, rhs=0.0, tolerance=ATOL_COMPUTED,
        details={"t_couple": report.t_couple, "cases": len(eps_list) * len(rho0s)},
    )


def sqrtm_psd(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clamping tiny negatives."""
    M = np.asarray(M, dtype=float)
    sym_err = np.max(np.abs(M - M.T))
    if sym_err > ATOL_COMPUTED:
        raise InvalidInputError(f"matrix asymmetric by {sym_err:.3g}; no symmetric root")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min(initial=0.0) < -ATOL_COMPUTED:
        raise InvalidInputError(f"matrix has eigenvalue {w.min():.3g} < 0; not PSD")
    root = V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T
    return 0.5 * (root + root.T)


def unitary_completion(A: np.ndarray) -> np.ndarray:
    """Halmos's unitary dilation [[A, (I - A A^T)^{1/2}], [(I - A^T A)^{1/2}, -A^T]]
    of a square contraction A, by two dense eigensolves: the reference the
    closed-form dilation circuit is tested against."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    gram = A.T @ A
    top = np.linalg.eigvalsh(0.5 * (gram + gram.T)).max(initial=0.0)
    if top > 1.0 + ATOL_COMPUTED:
        raise InvalidInputError(
            f"block has singular value {np.sqrt(top):.6g} > 1; not a contraction"
        )
    C = sqrtm_psd(np.eye(d) - A @ A.T)
    B = sqrtm_psd(np.eye(d) - A.T @ A)
    return np.block([[A, C], [B, -A.T]])


def dilation_blocks(circ) -> np.ndarray:
    """The U_k of a dilation circuit, (kappa, 2d, 2d), read off W applied to
    every basis state: block k of W's columns for block k."""
    kappa, two_d = circ.kappa, 2 * circ.dim
    W = circ.controlled(np.eye(circ.total_dim)).reshape(kappa, two_d, kappa, two_d)
    return np.stack([W[k, :, k] for k in range(kappa)])


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
def mappings(draw, ergodic=False):
    """Random tables on 1 to 6 states, with their base chain from
    ``induced_entries``: ``weights`` (zero probabilities included), few
    distinct targets, a duplicated column, and a value that sends every state
    to one successor. An ``ergodic`` mapping also holds a lazy step and a
    cyclic shift with positive weight, so its chain is irreducible and
    aperiodic."""
    w = draw(weights)
    n = draw(st.integers(1, 6))
    targets = draw(st.integers(1, n))
    columns = [draw(st.lists(st.integers(0, targets - 1), min_size=n, max_size=n))
               for _ in w]
    if len(columns) > 1 and draw(st.booleans()):
        columns[-1] = columns[0]
    if draw(st.booleans()):
        columns[draw(st.integers(0, len(columns) - 1))] = [draw(st.integers(0, n - 1))] * n
    if ergodic:
        columns += [list(range(n)), [(x + 1) % n for x in range(n)]]
        w = w + draw(st.lists(st.integers(1, 7), min_size=2, max_size=2))
    table = np.array(columns, dtype=np.int64).T
    probs = probs_from(w)
    base = TransitionMatrix(tuple(str(i) for i in range(n)), induced_entries(table, probs))
    return RandomMappingRep(base, tuple(f"r{r}" for r in range(len(columns))), probs, table)

"""Density-matrix evolution, qsample targets, and convergence verification.

Implements the projector/Laplacian machinery that ties classical coalescence
tails to quantum convergence: edge-state preservation, the rescaled-projector
decomposition, the coalescence trace identity, the overlap bound
tr(Qperp T^m(rho)) <= tail(m) / pi_*, the gentle-measurement step, and the
resulting convergence theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qcoupling.chain import ATOL_COMPUTED, ATOL_INPUT, Distribution
from qcoupling.checks import CheckResult
from qcoupling.coupling import (
    CoalescenceReport,
    CouplingMatrix,
    RandomMappingRep,
    coalescence_tail_exact,
)
from qcoupling.errors import InvalidInputError
from qcoupling.quantize import KrausSet, Superoperator, c_star_superop

PSD_SLACK = 1e-10  # eigenvalue floor for density matrices
# Bytes of the edge-Laplacian panel the trace identity evolves at a time,
# sized to stay in a 2 MiB per-core L2 cache.
TRACE_PANEL_BYTES = 2 << 20


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric PSD trace-1 state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("density matrix must be square")
        if np.max(np.abs(m - m.T)) > ATOL_INPUT:
            raise InvalidInputError("density matrix must be symmetric within 1e-12")
        if abs(np.trace(m) - 1.0) > ATOL_COMPUTED:
            raise InvalidInputError(f"density matrix trace {np.trace(m)!r}, not 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_SLACK:
            raise InvalidInputError(f"density matrix has eigenvalue {lo:.3g} < -1e-10")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Qsample:
    """Pure state with amplitudes sqrt(pi_x); projector Q available on demand."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", a)
        if abs(np.linalg.norm(a) - 1.0) > ATOL_INPUT:
            raise InvalidInputError("qsample amplitudes must have unit norm")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes)

    @property
    def complement(self) -> np.ndarray:
        return np.eye(self.dim) - self.projector

    def as_density(self) -> DensityMatrix:
        return DensityMatrix(self.projector)


@dataclass
class ConvergenceTrace:
    """Per-step trace distance to the qsample and Qperp overlap, with bounds.

    ``qperp_bound`` is tail(m) / pi_* when a coalescence report is attached;
    ``theorem_envelope`` is the implied bound sqrt(min(1, qperp_bound)) on the
    halved trace distance (vacuous rows keep the value but are flagged).
    """

    m_values: np.ndarray
    trace_distance: np.ndarray
    qperp_overlap: np.ndarray
    classical_tail_max: np.ndarray | None = None
    qperp_bound: np.ndarray | None = None
    theorem_envelope: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        cols = ["m", "trace_distance", "qperp_overlap"]
        extras = []
        for name in ("classical_tail_max", "qperp_bound", "theorem_envelope"):
            if getattr(self, name) is not None:
                cols.append(name)
                extras.append(getattr(self, name))
        lines = [",".join(cols)]
        for i, m in enumerate(self.m_values):
            row = [str(int(m)), f"{self.trace_distance[i]:.17g}",
                   f"{self.qperp_overlap[i]:.17g}"]
            row += [f"{col[i]:.17g}" for col in extras]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def qsample(pi: Distribution) -> Qsample:
    """Unit vector of square roots of pi."""
    if pi.weights.min() < 0:
        raise InvalidInputError("negative weights")
    a = np.sqrt(pi.weights)
    return Qsample(a / np.linalg.norm(a))


def trace_distance(rho, sigma) -> float:
    """(1/2) sum of singular values of rho - sigma (symmetric eigensolver)."""
    a = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=float)
    b = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.T))).sum())


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Reproducible PSD trace-1 state: squared seeded symmetric matrix."""
    g = rng.standard_normal((n, n))
    g = 0.5 * (g + g.T)
    m = g @ g.T
    return DensityMatrix(m / np.trace(m))


def _cp_verified(channel) -> bool:
    if isinstance(channel, KrausSet):
        return True
    return isinstance(channel, Superoperator) and channel.cp_status == "verified"


def evolve_trace(
    channel,
    rho0: DensityMatrix,
    q: Qsample,
    m_max: int,
    report: CoalescenceReport | None = None,
) -> ConvergenceTrace:
    """Iterate the channel, recording trace distance to Q and tr(Qperp rho_m).

    Requires a CP-verified channel. Trace distance to the fixed point is
    checked to be non-increasing (data processing); the Qperp overlap series
    is recorded but not asserted monotone.
    """
    if not _cp_verified(channel):
        raise InvalidInputError("evolve_trace requires a CP-verified channel")
    Q = q.projector
    Qp = q.complement
    rho = rho0.matrix
    dists, overlaps = [], []
    for m in range(m_max + 1):
        dists.append(trace_distance(rho, Q))
        overlaps.append(float(np.trace(Qp @ rho)))
        if m > 0 and dists[-1] > dists[-2] + ATOL_COMPUTED:
            raise AssertionError(
                f"trace distance to the fixed point increased at m={m}"
            )
        if m < m_max:
            rho = channel.apply(rho)

    tails = bound = envelope = None
    if report is not None:
        pi_star = float(np.min(q.amplitudes) ** 2)
        tails = np.array([report.tail_at(m) for m in range(m_max + 1)])
        bound = tails / pi_star
        envelope = np.sqrt(np.minimum(1.0, bound))
    return ConvergenceTrace(
        m_values=np.arange(m_max + 1),
        trace_distance=np.array(dists),
        qperp_overlap=np.array(overlaps),
        classical_tail_max=tails,
        qperp_bound=bound,
        theorem_envelope=envelope,
    )


# ---------------------------------------------------------------------------
# Structural checks


def edge_state(x: int, y: int, n: int) -> np.ndarray:
    """|-_{xy}> = (|x> - |y>) / sqrt(2)."""
    v = np.zeros(n)
    v[x] = 1.0 / math.sqrt(2.0)
    v[y] = -1.0 / math.sqrt(2.0)
    return v


def laplacian_preservation_check(
    C: CouplingMatrix | RandomMappingRep, x: int, y: int
) -> CheckResult:
    """C* maps the edge Laplacian at (x, y) to the coupling-weighted mixture.

    The left side applies C* to the Laplacian; the right side sums the
    successors' Laplacians with the weights in column idx(x, y) of the matrix
    of C*, which is the coupling's. Terms with x' = y' contribute zero
    Laplacians, so only off-diagonal successors appear on the right-hand side.
    """
    if x == y:
        raise InvalidInputError("edge states require x != y")
    n = C.n
    S = c_star_superop(C)
    e = edge_state(x, y, n)
    lhs = S.apply(np.outer(e, e))
    column = S.matrix.block(np.arange(n * n), [x * n + y])[:, 0]
    rhs = np.zeros((n, n))
    for target in np.flatnonzero(column):
        xp, yp = divmod(int(target), n)
        if xp != yp:
            ep = edge_state(xp, yp, n)
            rhs += column[target] * np.outer(ep, ep)
    err = float(np.max(np.abs(lhs - rhs)))
    return CheckResult(
        name="laplacian_preservation",
        passed=err <= ATOL_INPUT,
        lhs=err,
        rhs=0.0,
        tolerance=ATOL_INPUT,
        details={"x": x, "y": y},
    )


def _edge_laplacian_combination(weights: np.ndarray) -> np.ndarray:
    """sum_{x != y} weights[x] weights[y] |-_{xy}><-_{xy}|, pairs in (x, y) order.

    Each |-_{xy}><-_{xy}| has four nonzeros, 1/2 at (x, x) and (y, y) and
    -1/2 at (x, y) and (y, x), so each pair adds four entries. ``np.add.at``
    adds them sequentially in pair order, which is the order in which the sum
    of dense outer products accumulates every entry, so the result is the
    same bit for bit in O(N^2) work.
    """
    n = weights.size
    x, y = np.nonzero(~np.eye(n, dtype=bool))
    e = edge_state(0, 1, 2)  # the products np.outer forms at the four nonzeros
    diag = weights[x] * weights[y] * (e[0] * e[0])
    off = weights[x] * weights[y] * (e[0] * e[1])
    combo = np.zeros((n, n))
    np.add.at(
        combo,
        (np.column_stack([x, y, x, y]).ravel(), np.column_stack([x, y, y, x]).ravel()),
        np.column_stack([diag, diag, off, off]).ravel(),
    )
    return combo


def rescaled_qperp_decomposition_check(pi: Distribution) -> CheckResult:
    """D^{1/2} Qperp D^{1/2} = sum_{x,y} pi_x pi_y |-_{xy}><-_{xy}|."""
    q = qsample(pi)
    d = np.sqrt(pi.weights)
    lhs = (d[:, None] * q.complement) * d[None, :]
    rhs = np.diag(pi.weights) - np.outer(pi.weights, pi.weights)
    # rhs equals the stated convex combination of elementary Laplacians;
    # assemble the combination explicitly to keep the check independent.
    combo = _edge_laplacian_combination(pi.weights)
    err = max(float(np.max(np.abs(lhs - combo))), float(np.max(np.abs(lhs - rhs))))
    return CheckResult(
        name="rescaled_qperp_decomposition",
        passed=err <= ATOL_INPUT,
        lhs=err,
        rhs=0.0,
        tolerance=ATOL_INPUT,
    )


def edge_laplacian_traces(S, pairs: list[tuple[int, int]], n: int, m: int) -> np.ndarray:
    """tr([C*]^k |-_xy><-_xy|) for k = 0..m (rows) and each pair (columns).

    ``S`` is the matrix of C*; it is applied m times to the vectorized edge
    Laplacians. |-_xy><-_xy| = |-_yx><-_yx| entry for entry, so each
    unordered pair is evolved once. The Laplacians are evolved in panels of
    TRACE_PANEL_BYTES: each panel is scattered from its four nonzeros per
    column and runs all m steps before the next one starts, so memory is two
    panels plus the (m + 1) x len(pairs) result, whatever the pair count. A
    column's arithmetic does not depend on its panel (the sparse product and
    the running diagonal sum both go column by column in a fixed order), so
    the result is the same for every panel size.
    """
    x, y = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    edges, take = np.unique(np.minimum(x, y) * n + np.maximum(x, y), return_inverse=True)
    lo, hi = np.divmod(edges, n)
    e = edge_state(0, 1, 2)  # the products np.outer forms at the four nonzeros
    diag, off = e[0] * e[0], e[0] * e[1]
    trace_rows = np.arange(n) * (n + 1)  # vec positions of diagonal entries
    width = max(1, TRACE_PANEL_BYTES // (8 * n * n))
    out = np.empty((m + 1, edges.size))
    for start in range(0, edges.size, width):
        a, b = lo[start : start + width], hi[start : start + width]
        cols = np.arange(a.size)
        V = np.zeros((n * n, a.size))
        V[a * (n + 1), cols] = V[b * (n + 1), cols] = diag  # vec(M)[i + N j] = M[i, j]
        V[a + n * b, cols] = V[b + n * a, cols] = off
        for k in range(m + 1):
            # cumsum adds the rows in order for any width; sum would add the
            # rows of a one-column panel pairwise and round differently
            out[k, start : start + a.size] = np.cumsum(V[trace_rows], axis=0)[-1]
            if k < m:
                V = S @ V
    return out[:, take]


def coalescence_trace_identity_check(
    C: CouplingMatrix | RandomMappingRep, m: int
) -> CheckResult:
    """Pr_{x,y}{tau > k} = tr([C*]^k applied to the edge Laplacian), all x != y.

    Checked at every step k = 0..m by evolving the stack of vectorized edge
    Laplacians under the sparse C* one step at a time (no matrix powers are
    formed); C* has at most |R| nonzeros per column for a grand coupling, and
    a random mapping's C* is built from its table. The tails on the other
    side come from the row-vector recursion of :func:`coalescence_tail_exact`.
    """
    n = C.n
    report = coalescence_tail_exact(C, m_max=m)
    S = c_star_superop(C).matrix
    lhs = edge_laplacian_traces(S, report.pairs, n, m)
    worst = float(np.abs(lhs - report.per_pair).max(initial=0.0))
    return CheckResult(
        name="coalescence_trace_identity",
        passed=worst <= ATOL_COMPUTED,
        lhs=worst,
        rhs=0.0,
        tolerance=ATOL_COMPUTED,
        details={"m": m},
    )


def qperp_bound_check(
    T: Superoperator,
    pi: Distribution,
    report: CoalescenceReport,
    rho0_set: list[DensityMatrix],
    m_grid: list[int],
) -> CheckResult:
    """tr(Qperp T^m(rho0)) <= tail(m) / pi_* for every rho0 and m in the grid.

    Rows whose right-hand side is >= 1 are vacuous (the overlap never exceeds
    1); they are reported but excluded from the pass/fail statistics.
    """
    if report.mode != "exact":
        raise InvalidInputError("qperp_bound_check needs exact tails")
    if T.cp_status != "verified":
        raise InvalidInputError("channel must be CP-verified")
    q = qsample(pi)
    Qp = q.complement
    pi_star = float(pi.weights.min())
    worst_ratio = 0.0
    worst_informative_ratio = 0.0
    violations = 0
    vacuous = 0
    grid = set(int(v) for v in m_grid)
    m_last = max(m_grid)
    for rho0 in rho0_set:
        rho = rho0.matrix
        by_m = {}
        for m in range(m_last + 1):
            if m in grid:
                by_m[m] = float(np.trace(Qp @ rho))
            if m < m_last:
                rho = T.apply(rho)
        for m, lhs in by_m.items():
            rhs = report.tail_at(m) / pi_star
            ratio = lhs / rhs if rhs > 0 else (0.0 if lhs <= ATOL_COMPUTED else np.inf)
            worst_ratio = max(worst_ratio, ratio)
            if rhs >= 1.0:
                vacuous += 1
                continue
            worst_informative_ratio = max(worst_informative_ratio, ratio)
            if lhs > rhs + ATOL_COMPUTED:
                violations += 1
    return CheckResult(
        name="qperp_bound",
        passed=violations == 0,
        lhs=worst_informative_ratio,
        rhs=1.0,
        tolerance=ATOL_COMPUTED,
        details={
            "violations": violations,
            "vacuous_rows": vacuous,
            "worst_ratio_incl_vacuous": worst_ratio,
        },
    )


def main_theorem_check(
    T: Superoperator,
    pi: Distribution,
    report: CoalescenceReport,
    rho0_set: list[DensityMatrix],
    eps_list: list[float],
) -> CheckResult:
    """Halved trace distance <= sqrt(eps) at m = ceil(log2(1/(eps pi_*))/2) * t_couple."""
    if report.t_couple is None:
        raise InvalidInputError("t_couple not resolved in the coalescence report")
    if T.cp_status != "verified":
        raise InvalidInputError("channel must be CP-verified")
    q = qsample(pi)
    Q = q.projector
    pi_star = float(pi.weights.min())
    worst_margin = -np.inf
    rows = []
    passed = True
    for eps in eps_list:
        m = math.ceil(0.5 * math.log2(1.0 / (eps * pi_star))) * report.t_couple
        for rho0 in rho0_set:
            rho = rho0.matrix
            for _ in range(m):
                rho = T.apply(rho)
            lhs = trace_distance(rho, Q)
            rhs = math.sqrt(eps)
            rows.append({"eps": eps, "m": m, "lhs": lhs, "rhs": rhs})
            worst_margin = max(worst_margin, lhs - rhs)
            if lhs > rhs + ATOL_COMPUTED:
                passed = False
    return CheckResult(
        name="main_theorem",
        passed=passed,
        lhs=worst_margin,
        rhs=0.0,
        tolerance=ATOL_COMPUTED,
        details={"t_couple": report.t_couple, "cases": len(rows)},
    )


def gentle_measurement_step_check(rho: DensityMatrix, q: Qsample, eps: float) -> CheckResult:
    """If tr(Qperp rho) < eps then || rho - Q rho Q / tr(Q rho) ||_tr <= 2 sqrt(eps).

    For the rank-1 projector Q the post-measurement state is Q itself. A
    violated precondition is reported in the result, not raised.
    """
    overlap = float(np.trace(q.complement @ rho.matrix))
    if overlap >= eps:
        return CheckResult(
            name="gentle_measurement",
            passed=False,
            lhs=overlap,
            rhs=eps,
            details={"precondition_holds": False},
        )
    diff = rho.matrix - q.projector
    lhs = float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.T))).sum())
    rhs = 2.0 * math.sqrt(eps)
    return CheckResult(
        name="gentle_measurement",
        passed=lhs <= rhs + ATOL_COMPUTED,
        lhs=lhs,
        rhs=rhs,
        tolerance=ATOL_COMPUTED,
        details={"precondition_holds": True, "qperp_overlap": overlap},
    )


def reducing_projector_check(
    T: Superoperator, pi: Distribution, m: int, rng: np.random.Generator, trials: int = 10
) -> CheckResult:
    """tr(T^m(Q rho Q) A) = <pi|rho|pi> <pi|A|pi> for random (rho, A) pairs."""
    q = qsample(pi)
    a = q.amplitudes
    n = pi.n
    worst = 0.0
    for _ in range(trials):
        rho = random_density(n, rng).matrix
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        inner = q.projector @ rho @ q.projector
        for _ in range(m):
            inner = T.apply(inner)
        lhs = float(np.trace(inner @ A))
        rhs = float((a @ rho @ a) * (a @ A @ a))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        name="reducing_projector",
        passed=worst <= ATOL_COMPUTED,
        lhs=worst,
        rhs=0.0,
        tolerance=ATOL_COMPUTED,
        details={"m": m, "trials": trials},
    )


def expanding_projector_residual(T_star: Superoperator, pi: Distribution, m: int) -> float:
    """max-norm of (T*)^m(Q) - I; tends to 0 as the coupling coalesces."""
    q = qsample(pi)
    out = q.projector
    for _ in range(m):
        out = T_star.apply(out)
    return float(np.max(np.abs(out - np.eye(pi.n))))

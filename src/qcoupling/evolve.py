"""Density-matrix evolution, qsample targets, and convergence verification.

Implements the projector/Laplacian machinery that ties classical coalescence
tails to quantum convergence: edge-state preservation, the rescaled-projector
decomposition, the coalescence trace identity, the overlap bound
tr(Qperp T^m(rho)) <= tail(m) / pi_*, the gentle-measurement step, and the
resulting convergence theorem.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from qcoupling.chain import ATOL_COMPUTED, ATOL_INPUT, Distribution
from qcoupling.checks import CheckResult, series_csv
from qcoupling.coupling import (
    CoalescenceReport,
    CouplingMatrix,
    RandomMappingRep,
    _checked_seed,
    tail_vectors,
)
from qcoupling.errors import InvalidInputError
from qcoupling.quantize import KrausSet, c_star_superop


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
        if lo < -ATOL_COMPUTED:
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


# Bytes a step that ``evolve`` holds at its peak, when the trace becomes CSV
# text: the trace's six arrays and the tails report's two (64 bytes), and a row
# of up to 128 characters as a str in series_csv's list (57 + 128) and twice in
# the joined text (2 x 129). A row is a 7-digit m (the guard stops m_max near
# 2.1 M), four nonnegative .17g floats of up to 23 characters, the overlap (24,
# it can be -1e-16) and five commas. Measured growth of the tracemalloc peak
# over --m-max 0, at --m-max 20000: 485 bytes a step on hypercube3 (rows of
# about 124 characters), 427 on hardcore-path3 (about 102).
EVOLVE_STEP_BYTES = 508


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

    def to_csv(self) -> str:
        names = ("trace_distance", "qperp_overlap", "classical_tail_max", "qperp_bound",
                 "theorem_envelope")
        columns = [(k, getattr(self, k)) for k in names if getattr(self, k) is not None]
        return series_csv(self.m_values, columns)


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


def start_state_rng(seed: int) -> random.Random:
    """The generator of ``--seed`` that start states draw from, through
    :func:`uniform_entries`: the stdlib Mersenne Twister, which maps no
    library, where numpy's generators load OpenSSL (through ``secrets``),
    about 5 MB of RSS."""
    return random.Random(_checked_seed(seed))


def uniform_entries(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """Entries uniform on [-1, 1), the same bits on every platform: each 8 of
    ``rng``'s bytes are a little-endian word w, and its entry
    (w >> 11) 2**-52 - 1 is exact, a multiple of 2**-52."""
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return ((words >> 11) * 2.0**-52 - 1.0).reshape(shape)


def random_density(n: int, rng: random.Random) -> DensityMatrix:
    """Reproducible PSD trace-1 state: squared seeded symmetric matrix."""
    g = uniform_entries(rng, (n, n))
    g = 0.5 * (g + g.T)
    m = g @ g.T
    return DensityMatrix(m / np.trace(m))


def _orbit(channel: KrausSet, rho: np.ndarray, m_max: int):
    """rho, T(rho), ..., T^m_max(rho), lazily, for one matrix or a stack of
    them: the only code that applies a channel, holding only the latest step.
    A :class:`KrausSet` is CP and trace preserving by construction (Choi 1975),
    so it is the one channel type admitted, checked before rho is yielded."""
    if not isinstance(channel, KrausSet):
        raise InvalidInputError(f"channel must be a KrausSet, not {type(channel).__name__}")
    yield rho
    for _ in range(m_max):
        rho = channel.apply(rho)
        yield rho


def _qperp_overlap(q: np.ndarray, rho: np.ndarray):
    """tr(Qperp rho) = tr(rho) - q^T rho q for the qsample amplitudes ``q``,
    of one matrix or of each matrix of a stack."""
    return np.trace(rho, axis1=-2, axis2=-1) - rho @ q @ q


def evolve_trace(
    channel: KrausSet,
    rho0: DensityMatrix,
    pi: Distribution,
    m_max: int,
    report: CoalescenceReport | None = None,
) -> ConvergenceTrace:
    """Iterate the channel, recording trace distance to Q and tr(Qperp rho_m).

    The channel is a :class:`KrausSet`. Trace distance to the fixed point is
    checked to be non-increasing (data processing); the Qperp overlap series
    is recorded but not asserted monotone.
    """
    q = qsample(pi)
    Q = q.projector
    dists, overlaps = [], []
    for m, rho in enumerate(_orbit(channel, rho0.matrix, m_max)):
        dists.append(trace_distance(rho, Q))
        overlaps.append(float(_qperp_overlap(q.amplitudes, rho)))
        if m > 0 and dists[-1] > dists[-2] + ATOL_COMPUTED:
            raise AssertionError(
                f"trace distance to the fixed point increased at m={m}"
            )

    tails = bound = envelope = None
    if report is not None:
        tails = np.array([report.tail_at(m) for m in range(m_max + 1)])
        bound = tails / float(pi.weights.min())
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


# An edge Laplacian |-_xy><-_xy| as np.outer forms it: _LAPLACIAN_DIAG = 1/2 at
# (x, x) and (y, y), _LAPLACIAN_OFF = -1/2 at (x, y) and (y, x).
_E = edge_state(0, 1, 2)
_LAPLACIAN_DIAG, _LAPLACIAN_OFF = _E[0] * _E[0], _E[0] * _E[1]


def _pair_scatter(rmr: RandomMappingRep, M: np.ndarray) -> np.ndarray:
    """C*(M) of a random mapping off its table: each nonzero M[a, b] adds
    Pr(r) M[a, b] at (f(a, r), f(b, r)), in the order of nonzeros, then r."""
    a, b = np.nonzero(M)
    out = np.zeros(M.shape)
    f = rmr.table
    np.add.at(out, (f[a], f[b]), np.multiply.outer(M[a, b], rmr.probs))
    return out


def laplacian_preservation_check(
    C: CouplingMatrix | RandomMappingRep, x: int, y: int
) -> CheckResult:
    """C* maps the edge Laplacian at (x, y) to the coupling-weighted mixture.

    The left side applies C* to the Laplacian; the right side sums the
    successors' Laplacians with the weights in column idx(x, y) of the matrix
    of C*, which is the coupling's. Terms with x' = y' contribute zero
    Laplacians, so only off-diagonal successors appear on the right-hand side.
    A random mapping builds no matrix: the left side scatters the Laplacian
    (:func:`_pair_scatter`), and the column is the law of (f(x, r), f(y, r)).
    """
    if x == y:
        raise InvalidInputError("edge states require x != y")
    n = C.n
    e = edge_state(x, y, n)
    column = np.zeros(n * n)
    if isinstance(C, RandomMappingRep):
        lhs = _pair_scatter(C, np.outer(e, e))
        np.add.at(column, C.table[x] * n + C.table[y], C.probs)
    else:
        S = c_star_superop(C)
        lhs = S.apply(np.outer(e, e))
        M = S.matrix
        hits = np.flatnonzero(M.indices == x * n + y)  # the stored entries of the column
        column[M.rows[hits]] = M.data[hits]
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

    Each |-_{xy}><-_{xy}| has four nonzeros, so each pair adds four entries.
    ``np.add.at`` adds them sequentially in pair order, which is the order in
    which the sum of dense outer products accumulates every entry, so the
    result is the same bit for bit in O(N^2) work.
    """
    n = weights.size
    x, y = np.nonzero(~np.eye(n, dtype=bool))
    diag = weights[x] * weights[y] * _LAPLACIAN_DIAG
    off = weights[x] * weights[y] * _LAPLACIAN_OFF
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


def coalescence_trace_identity_check(
    C: CouplingMatrix | RandomMappingRep, report: CoalescenceReport
) -> CheckResult:
    """Pr_{x,y}{tau > k} = tr([C*]^k |-_xy><-_xy|) for stated pairs and every
    k <= m, the last step the exact ``report`` covers.

    The two sides are separate constructions. The tail is entry (x, y) of
    :func:`tail_vectors`, pulled back by the pair chain's gather (the
    Heisenberg picture); the trace is of the Laplacian pushed forward by C*
    (the Schrodinger picture): a random mapping's scatter off its table
    (:func:`_pair_scatter`), or a coupling matrix's :func:`c_star_superop`.
    A successor misrouted in one of them moves one side only. The pairs,
    listed in ``details["pairs"]``, are the first with the largest tail at
    m, (0, N - 1) and (0, 1), without repeats.
    """
    if report.mode != "exact":
        raise InvalidInputError("the trace identity needs exact tails")
    m = int(report.m_values[-1])
    n = C.n
    for last in tail_vectors(C, m):
        pass
    last[:: n + 1] = -1.0  # a diagonal pair is never the worst
    worst = divmod(int(last.argmax()), n)
    # distinct pairs of distinct states; a one-state chain has none
    pairs = list(dict.fromkeys(p for p in (worst, (0, n - 1), (0, 1)) if p[0] != p[1] < n))
    at = [x * n + y for x, y in pairs]
    tails = np.array([v[at] for v in tail_vectors(C, m)])
    push = partial(_pair_scatter, C) if isinstance(C, RandomMappingRep) else c_star_superop(C).apply
    traces = np.empty_like(tails)
    for j, (x, y) in enumerate(pairs):
        e = edge_state(x, y, n)
        L = np.outer(e, e)
        for k in range(m + 1):
            traces[k, j] = np.trace(L)
            if k < m:
                L = push(L)
    err = float(np.abs(traces - tails).max(initial=0.0))
    return CheckResult(
        name="coalescence_trace_identity",
        passed=err <= ATOL_COMPUTED,
        lhs=err,
        rhs=0.0,
        tolerance=ATOL_COMPUTED,
        details={"m": m, "pairs": pairs},
    )


def qperp_bound_check(
    T: KrausSet,
    pi: Distribution,
    report: CoalescenceReport,
    rho0_set: list[DensityMatrix],
    m_grid: list[int],
) -> CheckResult:
    """tr(Qperp T^m(rho0)) <= tail(m) / pi_* for every rho0 and m in the grid.

    Rows whose right-hand side is >= 1 are vacuous (the overlap never exceeds
    1); they are reported but excluded from the pass/fail statistics. The
    states run as one stacked orbit.
    """
    if report.mode != "exact":
        raise InvalidInputError("qperp_bound_check needs exact tails")
    q = qsample(pi).amplitudes
    pi_star = float(pi.weights.min())
    worst_ratio = worst_informative_ratio = 0.0
    violations = vacuous = 0
    grid = set(int(v) for v in m_grid)
    orbit = _orbit(T, np.stack([rho0.matrix for rho0 in rho0_set]), max(grid))
    for m, rhos in enumerate(orbit):
        if m not in grid:
            continue
        rhs = report.tail_at(m) / pi_star
        for lhs in _qperp_overlap(q, rhos).tolist():
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
    T: KrausSet,
    pi: Distribution,
    report: CoalescenceReport,
    rho0_set: list[DensityMatrix],
    eps_list: list[float],
) -> CheckResult:
    """Halved trace distance <= sqrt(eps) at m = ceil(log2(1/(eps pi_*))/2) * t_couple.

    The states run as one stacked orbit, to the schedule's largest m, and
    every eps is tested at its own m on it (an eps above 1/pi_* at m = 0).
    """
    if report.t_couple is None:
        raise InvalidInputError("t_couple not resolved in the coalescence report")
    Q = qsample(pi).projector
    pi_star = float(pi.weights.min())
    schedule: dict[int, list[float]] = {}  # m -> the eps tested at m
    for eps in eps_list:
        m = math.ceil(0.5 * math.log2(1.0 / (eps * pi_star))) * report.t_couple
        schedule.setdefault(max(m, 0), []).append(eps)
    worst_margin, passed = -np.inf, True
    orbit = _orbit(T, np.stack([rho0.matrix for rho0 in rho0_set]), max(schedule, default=0))
    for m, rhos in enumerate(orbit):
        if m not in schedule:
            continue
        for rho in rhos:
            lhs = trace_distance(rho, Q)
            for eps in schedule[m]:
                rhs = math.sqrt(eps)
                worst_margin = max(worst_margin, lhs - rhs)
                if lhs > rhs + ATOL_COMPUTED:
                    passed = False
    return CheckResult(
        name="main_theorem",
        passed=passed,
        lhs=worst_margin,
        rhs=0.0,
        tolerance=ATOL_COMPUTED,
        details={"t_couple": report.t_couple, "cases": len(eps_list) * len(rho0_set)},
    )


def gentle_measurement_step_check(rho: DensityMatrix, q: Qsample, eps: float) -> CheckResult:
    """If tr(Qperp rho) < eps then || rho - Q rho Q / tr(Q rho) ||_tr <= 2 sqrt(eps).

    For the rank-1 projector Q the post-measurement state is Q itself. A
    violated precondition is reported in the result, not raised.
    """
    overlap = float(_qperp_overlap(q.amplitudes, rho.matrix))
    if overlap >= eps:
        return CheckResult(
            name="gentle_measurement",
            passed=False,
            lhs=overlap,
            rhs=eps,
            details={"precondition_holds": False},
        )
    lhs = 2.0 * trace_distance(rho, q.projector)
    rhs = 2.0 * math.sqrt(eps)
    return CheckResult(
        name="gentle_measurement",
        passed=lhs <= rhs + ATOL_COMPUTED,
        lhs=lhs,
        rhs=rhs,
        tolerance=ATOL_COMPUTED,
        details={"precondition_holds": True, "qperp_overlap": overlap},
    )


"""Coupling matrices on the pair space Omega x Omega.

Pair index convention (fixed globally): ``idx(x, y) = x * N + y``. This is the
left-factor-major tensor order, which makes the vectorized identity
``matrix(C*) = C`` in :mod:`qcoupling.quantize` hold entrywise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from qcoupling.chain import (
    ATOL_COMPUTED,
    ATOL_INPUT,
    TransitionMatrix,
    validate_chain,
)
from qcoupling.checks import CheckResult, ValidationReport
from qcoupling.csr import Csr, as_csr, sums_by_key
from qcoupling.errors import (
    GuardExceededError,
    InvalidInputError,
    NonErgodicError,
    ThresholdNotReachedError,
)
from qcoupling.kernels import coalescence_counts

COUPLING_THRESHOLD = 0.25  # t_couple crossing level
EXACT_GUARD_N = 64  # largest state count for exact pair-space work and dense chains
MC_BLOCK_ELEMENTS = 1 << 20  # randomness elements drawn and held per MC block
CDF_BUCKET_BITS = 12  # inverse-CDF buckets are indexed by a Philox word's top bits


def pair_index(x: int, y: int, n: int) -> int:
    return x * n + y


def swap_pair(index: np.ndarray, n: int) -> np.ndarray:
    """Pair index of (b, a) for each pair index a*N + b: the component swap."""
    a, b = np.divmod(index, n)
    return b * n + a


@dataclass(frozen=True)
class CouplingMatrix:
    """Column-stochastic transition matrix over pair indices idx(x,y) = x*N + y.

    ``entries`` is always a :class:`~qcoupling.csr.Csr` without stored zeros
    (a dense input is converted, and a ``Csr`` is kept as it is unless it
    stores zeros). A ``Csr`` is immutable, so the report
    :func:`validate_coupling` caches on the instance stays current.

    Construction performs only light structural checks so that deliberately
    broken or rescaled matrices (e.g. the ``printed`` counterexample fixture variant)
    remain constructible; use :func:`validate_coupling` for the full three
    coupling conditions. ``marginal_verified`` is False for fixture-matching
    constructions that are not stochastic couplings.
    """

    base: TransitionMatrix
    entries: Csr
    marginal_verified: bool = True
    _validation: ValidationReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        entries = as_csr(self.entries)
        keep = entries.data != 0
        if not keep.all():  # stored zeros go
            entries = Csr.from_coo(
                entries.data[keep], entries.rows[keep], entries.indices[keep], entries.shape
            )
        object.__setattr__(self, "entries", entries)
        n = self.base.n
        if entries.shape != (n * n, n * n):
            raise InvalidInputError(
                f"coupling entries must be {n * n}x{n * n}, got {entries.shape}"
            )
        if not np.all(np.isfinite(entries.data)):
            raise InvalidInputError("coupling matrix contains non-finite entries")
        if entries.data.min(initial=0.0) < -ATOL_INPUT:
            raise InvalidInputError("coupling matrix contains negative entries")

    @property
    def n(self) -> int:
        return self.base.n


def induced_entries(table: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Column-stochastic P of a mapping: P[x', x] = sum of Pr(r) over r with f(x, r) = x'."""
    n = table.shape[0]
    induced = np.zeros((n, n))
    cols = np.arange(n)
    for succ, p in zip(table.T, probs):
        induced[succ, cols] += p
    return induced


@dataclass(frozen=True)
class RandomMappingRep:
    """Random mapping representation (f, Pr(r)) of a transition matrix.

    ``table[x, r]`` is the successor index f(x, r). Validated on construction:
    probabilities form a distribution and, when a base chain is attached, the
    induced marginal reproduces it entrywise within 1e-12. ``base`` may be
    None for state spaces too large to hold a dense chain (MC-only use).
    ``probs`` and ``table`` are made read-only (an input of the right dtype
    is shared, not copied), so the pair-space operator
    :func:`grand_coupling_operator` caches on the instance stays current.
    """

    base: TransitionMatrix | None
    r_labels: tuple[str, ...]
    probs: np.ndarray
    table: np.ndarray
    _operator: Csr | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        table = np.asarray(self.table, dtype=np.int64)
        probs.flags.writeable = table.flags.writeable = False  # the operator cache relies on it
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "r_labels", tuple(str(l) for l in self.r_labels))
        nr = len(self.r_labels)
        if probs.shape != (nr,):
            raise InvalidInputError("probs must have one entry per randomness value")
        if probs.min() < 0 or abs(probs.sum() - 1.0) > ATOL_INPUT:
            raise InvalidInputError("Pr(r) must be nonnegative and sum to 1 within 1e-12")
        if table.ndim != 2 or table.shape[1] != nr:
            raise InvalidInputError(f"table must be N x {nr}, got {table.shape}")
        n = table.shape[0]
        if self.base is not None and self.base.n != n:
            raise InvalidInputError("table height does not match the base chain")
        if table.min() < 0 or table.max() >= n:
            raise InvalidInputError("table contains out-of-range successor indices")
        if self.base is not None:
            induced = self.induced_chain_entries()
            err = np.max(np.abs(induced - self.base.entries))
            if err > ATOL_INPUT:
                raise InvalidInputError(
                    f"random mapping does not reproduce the base chain (max error {err:.3g})"
                )

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def n_r(self) -> int:
        return len(self.r_labels)

    def induced_chain_entries(self) -> np.ndarray:
        """P implied by the mapping: sum of Pr(r) over r with f(x, r) = x'."""
        return induced_entries(self.table, self.probs)


@dataclass
class CoalescenceReport:
    """Tail probabilities Pr{tau_coal > m}, exact or Monte Carlo."""

    mode: str  # "exact" | "monte_carlo"
    m_values: np.ndarray
    tail_max: np.ndarray
    pairs: list[tuple[int, int]]
    per_pair: np.ndarray | None = None  # shape (len(m_values), len(pairs))
    samples: int | None = None
    seed: int | None = None
    ci_half: np.ndarray | None = None  # 95% CI half-widths on tail_max (MC only)
    t_couple: int | None = None
    expected_time_max: float | None = None
    expected_time_truncation: int | None = None
    details: dict = field(default_factory=dict)

    def tail_at(self, m: int) -> float:
        pos = np.nonzero(self.m_values == m)[0]
        if pos.size == 0:
            raise InvalidInputError(f"m={m} not covered by this report")
        return float(self.tail_max[pos[0]])

    def to_csv(self, include_pairs: bool = False) -> str:
        cols = ["m", "tail_max"]
        if self.mode == "monte_carlo":
            cols.append("tail_ci_hi")
        if include_pairs and self.per_pair is not None:
            cols += [f"pair_{x}_{y}" for x, y in self.pairs]
        lines = [",".join(cols)]
        for i, m in enumerate(self.m_values):
            row = [str(int(m)), f"{self.tail_max[i]:.17g}"]
            if self.mode == "monte_carlo":
                hi = self.tail_max[i] + (self.ci_half[i] if self.ci_half is not None else 0.0)
                row.append(f"{hi:.17g}")
            if include_pairs and self.per_pair is not None:
                row += [f"{v:.17g}" for v in self.per_pair[i]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation of the three coupling conditions


def validate_coupling(C: CouplingMatrix) -> ValidationReport:
    """Check column-stochasticity plus the three coupling conditions.

    Report-style: lists each violated condition with the worst offending
    indices and magnitudes; ``valid`` iff everything holds within 1e-12.
    The report is computed once per coupling and cached on it.

    Every condition is read off the stored entries of the CSR matrix, so the
    work is O(nnz + N^3). Sums are accumulated in row order, as a dense
    column or axis sum would, so the reported values and indices are those
    of the dense N^2 x N^2 computation: a reported index is the first
    maximum in C order of the (x', x, y), (y', x, y) or (x', y', x, y) array.
    """
    if C._validation is not None:
        return C._validation
    n = C.n
    n2 = n * n
    P = C.base.entries
    E = C.entries
    rows = E.rows
    cols = E.indices
    vals = E.data
    issues = []
    details = {}

    colsums = sums_by_key(cols, vals, n2)
    dev = np.abs(colsums - 1.0)
    details["stochastic"] = float(dev.max()) <= ATOL_INPUT
    if not details["stochastic"]:
        j = int(dev.argmax())
        issues.append(
            f"column idx({j // n},{j % n}) sums to {colsums[j]:.12g} (not stochastic)"
        )

    # Condition 1: marginals reproduce P in both components. Entry (x'N + y',
    # xN + y) adds to the x-marginal at (x', x, y) and the y-marginal at
    # (y', x, y); each N^3 error array is reduced to its first maximum in C
    # order before the other is formed.
    xp, yp = np.divmod(rows, n)
    worst_x, i_x = _marginal_error(xp * n2 + cols, vals, P[:, :, None], n)
    worst_y, i_y = _marginal_error(yp * n2 + cols, vals, P[:, None, :], n)
    details["marginals"] = max(worst_x, worst_y) <= ATOL_INPUT
    if not details["marginals"]:
        if worst_x >= worst_y:
            issues.append(
                f"condition 1 (x-marginal) violated at (x'={i_x[0]}, x={i_x[1]}, y={i_x[2]}) "
                f"by {worst_x:.3g}"
            )
        else:
            issues.append(
                f"condition 1 (y-marginal) violated at (y'={i_y[0]}, x={i_y[1]}, y={i_y[2]}) "
                f"by {worst_y:.3g}"
            )

    # Condition 2: diagonal starts stay diagonal and follow P. Pair (x, x) has
    # index x (N + 1), so diagonal rows and columns are the multiples of N + 1.
    diag_col = cols % (n + 1) == 0
    diag_row = rows % (n + 1) == 0
    leak = np.abs(vals[diag_col & ~diag_row])
    onto = diag_col & diag_row
    stays = np.zeros((n, n))
    stays[rows[onto] // (n + 1), cols[onto] // (n + 1)] = vals[onto]
    stay = np.abs(stays - P)
    worst2 = max(float(leak.max(initial=0.0)), float(stay.max()))
    details["coalescence"] = worst2 <= ATOL_INPUT
    if not details["coalescence"]:
        issues.append(f"condition 2 (coalescence) violated by {worst2:.3g}")

    # Condition 3: symmetry under exchanging the two components,
    # |E[x', y', x, y] - E[y', x', y, x]|. The residual is nonzero only where
    # an entry or its pair-swapped partner is stored, and it is the same at
    # both positions, so each stored entry is compared with its partner and
    # the first maximum in C order is the smallest flat position
    # (x'N + y') N^2 + (xN + y) among both positions of the worst pairs.
    keys = rows * n2 + cols  # ascending: CSR rows in order, sorted columns
    partner = swap_pair(rows, n) * n2 + swap_pair(cols, n)
    pos = np.searchsorted(keys, partner)
    found = pos < keys.size
    found[found] = keys[pos[found]] == partner[found]
    mirrored = np.zeros_like(vals)
    mirrored[found] = vals[pos[found]]
    asym = np.abs(vals - mirrored)
    worst3, at = float(asym.max(initial=0.0)), (0, 0, 0, 0)
    if worst3 > 0.0:
        tied = asym == worst3
        first = min(keys[tied].min(), partner[tied].min())
        at = np.unravel_index(first, (n, n, n, n))
    details["symmetry"] = worst3 <= ATOL_INPUT
    if not details["symmetry"]:
        issues.append(
            f"condition 3 (symmetry) violated at (x'={at[0]}, y'={at[1]}, x={at[2]}, "
            f"y={at[3]}) by {worst3:.3g}"
        )

    valid = all(details.values())
    report = ValidationReport(valid=valid, issues=issues, details=details)
    object.__setattr__(C, "_validation", report)
    return report


def _marginal_error(keys: np.ndarray, vals: np.ndarray, target: np.ndarray, n: int):
    """Largest |marginal - target| of the (first, x, y) marginal that ``vals``
    add up to at flat ``keys``, with its first index in C order."""
    err = sums_by_key(keys, vals, n**3).reshape(n, n, n)
    err -= target
    np.abs(err, out=err)
    j = int(err.argmax())
    return float(err.flat[j]), np.unravel_index(j, err.shape)


def require_valid_coupling(C: CouplingMatrix):
    report = validate_coupling(C)
    if not report.valid:
        raise InvalidInputError("invalid coupling: " + "; ".join(report.issues))


# ---------------------------------------------------------------------------
# Constructions


def independent_coupling(P: TransitionMatrix) -> CouplingMatrix:
    """Independent coupling: run both components independently until they meet.

    Column (x, y) with x != y holds P[x', x] P[y', y] at row (x', y'), the
    entry of kron(P, P); column (x, x) holds P[x', x] at row (x', x').
    """
    if not validate_chain(P).details["ergodic"]:
        raise NonErgodicError("independent coupling requires an ergodic base chain")
    n = P.n
    xp, x = np.nonzero(P.entries)
    K = kron_square_sum([(xp, x, P.entries[xp, x])], [1.0], n)
    apart = K.indices % (n + 1) != 0  # pair (x, x) has index x (N + 1)
    E = Csr.from_coo(
        np.concatenate([K.data[apart], P.entries[xp, x]]),
        np.concatenate([K.rows[apart], xp * (n + 1)]),
        np.concatenate([K.indices[apart], x * (n + 1)]),
        K.shape,
    )
    return CouplingMatrix(base=P, entries=E)


def grand_coupling_matrix(rmr: RandomMappingRep) -> CouplingMatrix:
    """Grand coupling: both components driven by the same randomness draw.

    Wraps the cached :func:`grand_coupling_operator` (no copy) and validates
    it as a coupling.
    """
    if rmr.base is None:
        raise InvalidInputError("grand coupling matrix requires a mapping with a base chain")
    C = CouplingMatrix(base=rmr.base, entries=grand_coupling_operator(rmr))
    report = validate_coupling(C)
    if not report.valid:
        raise InvalidInputError(
            "grand coupling failed the coupling conditions: " + "; ".join(report.issues)
        )
    return C


def kron_square_sum(factors, weights, n: int) -> Csr:
    """sum_r weights[r] * kron(F_r, F_r), assembled from the nonzeros only.

    Each n x n factor F_r is given as (rows, cols, values) of its nonzeros.
    The entry at (i*n + j, k*n + l) of kron(F_r, F_r) is the single product
    F_r[i, k] * F_r[j, l], as in ``np.kron``. Entries that land on the same
    position are added in r order starting from 0.0 (``np.add.at`` is
    unbuffered and sequential), so the result equals the dense
    ``S = 0; S += w_r * kron(F_r, F_r)`` loop bit for bit.
    """
    rows, cols, vals = [], [], []
    for (i, k, v), w in zip(factors, weights):
        rows.append((i[:, None] * n + i[None, :]).ravel())
        cols.append((k[:, None] * n + k[None, :]).ravel())
        vals.append(w * (v[:, None] * v[None, :]).ravel())
    n2 = n * n
    keys = np.concatenate(rows) * n2 + np.concatenate(cols)
    positions, slot = np.unique(keys, return_inverse=True)
    data = np.zeros(positions.size)
    np.add.at(data, slot, np.concatenate(vals))
    keep = data != 0
    positions, data = positions[keep], data[keep]
    indptr = np.searchsorted(positions, np.arange(n2 + 1) * n2)
    return Csr(data, positions % n2, indptr, (n2, n2))


def grand_coupling_operator(rmr: RandomMappingRep) -> Csr:
    """Pair-space transition matrix of the grand coupling, built from the table.

    C = sum_r Pr(r) kron(F_r, F_r) with F_r[f(x, r), x] = 1, so column
    idx(x, y) holds Pr(r) at row idx(f(x, r), f(y, r)): at most |R| nonzeros
    per column. It is a coupling by construction: both marginals are the
    induced chain, which :class:`RandomMappingRep` checks against its base;
    a diagonal start (x, x) only reaches diagonal pairs (f(x, r), f(x, r));
    and swapping the components maps the column of (x, y) onto that of
    (y, x) with the same weights. The base chain is not needed.

    Built on the first call and cached on ``rmr``, so every later call, and
    :func:`grand_coupling_matrix`, returns the same (immutable) matrix.
    """
    if rmr._operator is None:
        n = rmr.n
        x = np.arange(n)
        ones = np.ones(n)
        factors = [(rmr.table[:, r], x, ones) for r in range(rmr.n_r)]
        object.__setattr__(rmr, "_operator", kron_square_sum(factors, rmr.probs, n))
    return rmr._operator


def pair_transition(coupling: CouplingMatrix | RandomMappingRep) -> Csr:
    """Pair-space transition matrix of either kind of coupling, as a :class:`Csr`.

    A random mapping gives :func:`grand_coupling_operator`; a
    :class:`CouplingMatrix` is validated and gives its entries.
    """
    if isinstance(coupling, RandomMappingRep):
        return grand_coupling_operator(coupling)
    require_valid_coupling(coupling)
    return coupling.entries


# ---------------------------------------------------------------------------
# Coalescence tails


def _offdiag_mask(n: int) -> np.ndarray:
    mask = np.ones(n * n, dtype=bool)
    mask[np.arange(n) * n + np.arange(n)] = False
    return mask


def _offdiag_pairs(n: int) -> list[tuple[int, int]]:
    x, y = np.divmod(np.flatnonzero(_offdiag_mask(n)), n)
    return list(zip(x.tolist(), y.tolist()))


def coalescence_tail_exact(
    coupling: CouplingMatrix | RandomMappingRep,
    m_max: int,
    guard_n: int = EXACT_GUARD_N,
    expected_time: bool = False,
    expectation_tol: float = 1e-15,
    expectation_cap: int = 100_000,
) -> CoalescenceReport:
    """Exact tails Pr_{x,y}{tau_coal > m} for all start pairs and m <= m_max.

    The tail at m for start pair (x, y) equals the column sum of C^m over
    off-diagonal pair rows, computed for all starts at once by iterating the
    off-diagonal indicator row vector (never forming C^m). For a random
    mapping each step is the gather V_m[x, y] = sum_r Pr(r) V_{m-1}[f(x, r),
    f(y, r)], applied as the sparse :func:`grand_coupling_operator`. With
    ``expected_time`` the tails are summed past m_max until they fall below
    ``expectation_tol``, giving E[tau_coal] with a stated truncation.
    """
    n = coupling.n
    if n > guard_n:
        raise GuardExceededError(
            f"exact mode guarded at N <= {guard_n}; N = {n}. Use coalescence_tail_mc."
        )
    C = pair_transition(coupling)
    if m_max < 0:
        raise InvalidInputError("m_max must be nonnegative")
    off = _offdiag_mask(n)
    pairs = _offdiag_pairs(n)
    pair_cols = np.flatnonzero(off)  # pair_index of each pair, in the order of pairs

    v = off.astype(float)  # v C^m gives all tails at time m simultaneously
    per_pair = np.empty((m_max + 1, len(pairs)))
    for m in range(m_max + 1):
        per_pair[m] = v[pair_cols]
        if m > 0:
            if np.any(per_pair[m] > per_pair[m - 1] + ATOL_INPUT):
                raise AssertionError(f"exact tails increased at m={m}")
        if m < m_max:
            v = v @ C

    tail_max = per_pair.max(axis=1) if pairs else np.zeros(m_max + 1)
    t_couple = None
    crossing = np.nonzero(tail_max <= COUPLING_THRESHOLD)[0]
    if crossing.size:
        t_couple = int(crossing[0])

    e_tau_max = None
    truncation = None
    if expected_time:
        # E[tau] = sum_{m >= 0} Pr{tau > m}; truncate when the tail is exhausted.
        total = per_pair.sum(axis=0)
        tails = per_pair[-1].copy()
        m = m_max
        while tails.max(initial=0.0) > expectation_tol and m < expectation_cap:
            v = v @ C
            tails = v[pair_cols]
            total += tails
            m += 1
        e_tau_max = float(total.max(initial=0.0))
        truncation = m

    return CoalescenceReport(
        mode="exact",
        m_values=np.arange(m_max + 1),
        tail_max=tail_max,
        pairs=pairs,
        per_pair=per_pair,
        t_couple=t_couple,
        expected_time_max=e_tau_max,
        expected_time_truncation=truncation,
    )


class _InverseCDF:
    """Exact inverse CDF of Pr(r) applied to raw 64-bit Philox words.

    ``Generator.random`` turns a word w into the uniform u = (w >> 11) * 2**-53,
    so with b = CDF_BUCKET_BITS the bucket floor(u * 2**b) is w >> (64 - b),
    the word's top b bits. A bucket that holds no CDF edge maps every uniform
    in it to the same index; only uniforms in the few buckets that straddle an
    edge are located by ``searchsorted``. The result equals
    ``searchsorted(cum, u, "right")`` bit for bit.
    """

    def __init__(self, probs: np.ndarray):
        cum = np.cumsum(probs)
        cum[-1] = 1.0  # guard rounding at the top end
        edges = np.arange((1 << CDF_BUCKET_BITS) + 1) / (1 << CDF_BUCKET_BITS)
        lo = np.searchsorted(cum, edges[:-1], side="right")
        hi = np.searchsorted(cum, edges[1:], side="left")
        n_r = len(probs)  # never an index (u < 1 = cum[-1]): marks straddling buckets
        self.cum = cum
        self.code = np.where(lo == hi, lo, n_r).astype(np.min_scalar_type(n_r))
        self.straddle = n_r if (lo != hi).any() else None

    def __call__(self, words: np.ndarray) -> np.ndarray:
        idx = self.code[(words >> np.uint64(64 - CDF_BUCKET_BITS)).view(np.int64)]
        if self.straddle is not None:
            hit = np.flatnonzero(idx == self.straddle)
            u = (words[hit] >> np.uint64(11)) * 2.0**-53
            idx[hit] = np.searchsorted(self.cum, u, side="right")
        return idx


def mc_block_rows(m_max: int) -> int:
    """Trajectories per randomness block, a multiple of 4 (at least 4).

    A block holds at most MC_BLOCK_ELEMENTS randomness elements; taking m_max
    as at least 4 also keeps the kernel's per-row state (about 33 bytes a row)
    below the draw's 17 bytes per element when m_max is tiny.
    """
    return max(4, MC_BLOCK_ELEMENTS // max(m_max, 4) // 4 * 4)


def _draw_block(
    inverse_cdf: _InverseCDF, seed: int, pair_slot: int, start: int, rows: int, m_max: int
) -> np.ndarray:
    """Randomness indices of trajectories start .. start + rows - 1 for one start pair.

    Trajectory t reads words t * m_max .. (t + 1) * m_max - 1 of the Philox
    stream keyed by (seed, pair_slot). Philox yields 4 words per counter step
    and ``start`` is a multiple of 4, so ``advance`` reaches the block's first
    word exactly, and the blocks reproduce the full (samples, m_max) draw.
    """
    bits = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(pair_slot,)))
    bits.advance(start * m_max // 4)
    return inverse_cdf(bits.random_raw(rows * m_max)).reshape(rows, m_max)


def coalescence_tail_mc(
    rmr: RandomMappingRep,
    start_pairs: list[tuple[int, int]],
    m_grid: list[int],
    samples: int,
    seed: int,
    workers: int = 1,
) -> CoalescenceReport:
    """Monte Carlo tails with normal-approximation 95% CIs.

    Deterministic given (seed, samples): trajectory t of start-pair slot s
    uses row t of a Philox stream keyed by (seed, s). The stream is drawn in
    blocks of ``mc_block_rows(m_max)`` trajectories, each passed to the kernel
    and dropped, so memory stays O(MC_BLOCK_ELEMENTS) per worker. With
    ``workers`` > 1 the blocks run on that many threads; the integer counts are
    summed per pair, so the result is byte-identical for any worker count.
    """
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    if seed < 0:
        raise InvalidInputError(f"--seed must be >= 0, got {seed}")
    if workers < 1:
        raise InvalidInputError(f"--workers must be >= 1, got {workers}")
    if not start_pairs or not list(m_grid):
        raise InvalidInputError("start_pairs and m_grid must be nonempty")
    grid = np.array(sorted(set(int(m) for m in m_grid)), dtype=np.int64)
    if grid[0] < 0:
        raise InvalidInputError("m_grid entries must be nonnegative")
    m_max = int(grid[-1])
    n = rmr.n
    for x, y in start_pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise InvalidInputError(f"start pair ({x}, {y}) out of range")

    inverse_cdf = _InverseCDF(rmr.probs)
    rows = mc_block_rows(m_max)
    blocks = [
        (slot, start) for slot in range(len(start_pairs)) for start in range(0, samples, rows)
    ]

    def run(block):
        slot, start = block
        x0, y0 = start_pairs[slot]
        r_idx = _draw_block(inverse_cdf, seed, slot, start, min(rows, samples - start), m_max)
        return slot, coalescence_counts(rmr.table, r_idx, x0, y0, grid)

    if workers == 1:
        results = list(map(run, blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            results = list(pool.map(run, blocks))
    counts = np.zeros((len(grid), len(start_pairs)), dtype=np.int64)
    for slot, block_counts in results:
        counts[:, slot] += block_counts
    per_pair = counts / samples

    tail_max = per_pair.max(axis=1)
    ci_half = np.maximum(
        1.96 * np.sqrt(tail_max * (1.0 - tail_max) / samples), 3.0 / samples
    )
    t_couple = None
    ok = np.nonzero(tail_max + ci_half <= COUPLING_THRESHOLD)[0]
    if ok.size:
        t_couple = int(grid[ok[0]])
    return CoalescenceReport(
        mode="monte_carlo",
        m_values=grid,
        tail_max=tail_max,
        pairs=[tuple(p) for p in start_pairs],
        per_pair=per_pair,
        samples=samples,
        seed=seed,
        ci_half=ci_half,
        t_couple=t_couple,
    )


def coupling_time(report: CoalescenceReport) -> int:
    """Smallest m with max tail <= 1/4; in MC mode the CI upper bound must cross."""
    if report.t_couple is not None:
        return report.t_couple
    if report.mode == "monte_carlo":
        straddling = np.any(
            (report.tail_max <= COUPLING_THRESHOLD)
            & (report.tail_max + report.ci_half > COUPLING_THRESHOLD)
        )
        if straddling:
            raise ThresholdNotReachedError(
                "threshold not resolved: CI straddles 1/4 at every candidate m"
            )
    raise ThresholdNotReachedError(
        f"tail never crossed {COUPLING_THRESHOLD} within the computed range "
        f"(last tail {report.tail_max[-1]:.6g} at m={int(report.m_values[-1])})"
    )


def check_tail_submultiplicativity(
    coupling: CouplingMatrix | RandomMappingRep, m: int, l: int
) -> CheckResult:
    """Pr_max{tau > l*m} <= (Pr_max{tau > m})^l, plus the block-structure identity.

    Also verifies that C^m restricted to the diagonal block equals P^m (once the
    components meet they stay together forever). A random mapping runs on
    its sparse :func:`grand_coupling_operator`, with P its induced chain.
    """
    if m < 0 or l < 1:
        raise InvalidInputError("need m >= 0 and l >= 1")
    report = coalescence_tail_exact(coupling, m_max=m * l)
    lhs = report.tail_at(m * l)
    rhs = float(report.tail_at(m) ** l)
    n = coupling.n
    C = pair_transition(coupling)
    P = coupling.base.entries if coupling.base is not None else coupling.induced_chain_entries()
    # C^m restricted to diagonal-pair columns, via column iteration (no C^m formed)
    diag_idx = np.arange(n) * n + np.arange(n)
    V = np.zeros((n * n, n))
    V[diag_idx, np.arange(n)] = 1.0
    Pm = np.eye(n)
    for _ in range(m):
        V = C @ V
        Pm = P @ Pm
    diag_block = V[diag_idx, :]
    block_err = float(np.max(np.abs(diag_block - Pm)))
    passed = lhs <= rhs + ATOL_COMPUTED and block_err <= ATOL_INPUT
    return CheckResult(
        name="tail_submultiplicativity",
        passed=passed,
        lhs=lhs,
        rhs=rhs,
        tolerance=ATOL_COMPUTED,
        details={"m": m, "l": l, "diag_block_error": block_err},
    )


def mixing_vs_coalescence_bound(P: TransitionMatrix, report: CoalescenceReport) -> dict:
    """Report (not gate) the classical bound t_mix <= 4 * max E[tau_coal]."""
    from qcoupling.chain import mixing_report

    if report.expected_time_max is None:
        raise InvalidInputError("report lacks expected coalescence time")
    mix = mixing_report(P, (0.25,))
    return {
        "t_mix": mix.t_mix[0.25],
        "four_expected_tau_max": 4.0 * report.expected_time_max,
        "expectation_truncated_at": report.expected_time_truncation,
        "holds": mix.t_mix[0.25] <= 4.0 * report.expected_time_max + ATOL_COMPUTED,
    }


# ---------------------------------------------------------------------------
# JSON interface


def coupling_to_json_dict(C: CouplingMatrix) -> dict:
    """The dense JSON form: the full N^2 x N^2 nested list, formed for output only."""
    return {"kind": "dense", "C": C.entries.toarray().tolist()}


def rmr_to_json_dict(rmr: RandomMappingRep) -> dict:
    return {
        "kind": "rmr",
        "R": [
            {"label": lab, "prob": float(p)} for lab, p in zip(rmr.r_labels, rmr.probs)
        ],
        "f": rmr.table.T.tolist(),  # one successor row per r
    }


def coupling_from_json_dict(doc: dict, base: TransitionMatrix | None = None):
    """Load either a dense CouplingMatrix or a RandomMappingRep.

    If ``base`` is omitted it is reconstructed: for dense couplings from the
    diagonal-to-diagonal block (condition 2), for mappings from the induced
    marginal, with generic integer labels.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidInputError("coupling JSON must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "dense":
        entries = np.array(doc["C"], dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidInputError("field 'C' must be a square nested array")
        n2 = entries.shape[0]
        n = int(round(np.sqrt(n2)))
        if n * n != n2:
            raise InvalidInputError(f"field 'C' has side {n2}, not a perfect square")
        if base is None:
            diag_idx = np.arange(n) * n + np.arange(n)
            P = entries[np.ix_(diag_idx, diag_idx)]
            base = TransitionMatrix(tuple(str(i) for i in range(n)), P)
        return CouplingMatrix(base=base, entries=entries)
    if kind == "rmr":
        rs = doc["R"]
        table = np.array(doc["f"], dtype=np.int64).T
        labels = tuple(str(r["label"]) for r in rs)
        probs = np.array([r["prob"] for r in rs], dtype=float)
        if base is None:
            n = table.shape[0]
            base = TransitionMatrix(tuple(str(i) for i in range(n)), induced_entries(table, probs))
        return RandomMappingRep(base=base, r_labels=labels, probs=probs, table=table)
    raise InvalidInputError(f"unknown coupling kind {kind!r}")


def read_coupling_json(path, base: TransitionMatrix | None = None):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    try:
        return coupling_from_json_dict(doc, base=base)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def write_coupling_json(obj, path):
    doc = rmr_to_json_dict(obj) if isinstance(obj, RandomMappingRep) else coupling_to_json_dict(obj)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")

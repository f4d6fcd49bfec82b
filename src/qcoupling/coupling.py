"""Coupling matrices on the pair space Omega x Omega.

Pair index convention (fixed globally): ``idx(x, y) = x * N + y``. This is the
left-factor-major tensor order, which makes the vectorized identity
``matrix(C*) = C`` in :mod:`qcoupling.quantize` hold entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qcoupling.chain import (
    ATOL_COMPUTED,
    ATOL_INPUT,
    TransitionMatrix,
    _require_ergodic,
    json_numbers,
    read_json_file,
)
from qcoupling.checks import CheckResult, ValidationReport, series_csv
from qcoupling.csr import Csr, as_csr, sums_by_key, table_csr, table_gather
from qcoupling.errors import GuardExceededError, InvalidInputError
from qcoupling.kernels import CounterStream, coalescence_counts

COUPLING_THRESHOLD = 0.25  # t_couple crossing level
EXACT_GUARD_N = 64  # largest state count for exact pair-space work and dense chains
BYTES_GUARD = 1 << 30  # largest array, in bytes, that a stage sized by the user's input holds
# randomness indices held per MC block; memory only. Half a MiB: a smaller
# block runs more Python steps for the same trajectories (2**18 was ~20 % slower)
MC_BLOCK_ELEMENTS = 1 << 19
CDF_BUCKET_BITS = 12  # inverse-CDF buckets are indexed by a random word's top bits


def require_exact(n: int):
    """The exact limit: pair-space work on N states needs N <= EXACT_GUARD_N."""
    if n > EXACT_GUARD_N:
        raise GuardExceededError(f"exact mode guarded at N <= {EXACT_GUARD_N}; N = {n}")


def require_bytes(stage: str, estimate: int):
    """The byte budget: a stage that would hold an array of ``estimate`` bytes
    needs estimate <= BYTES_GUARD. Called before the allocation."""
    if estimate > BYTES_GUARD:
        raise GuardExceededError(
            f"{stage} would hold {estimate:,} bytes; the byte guard is {BYTES_GUARD:,}"
        )


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
    coupling conditions.
    """

    base: TransitionMatrix
    entries: Csr
    _validation: ValidationReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        entries = as_csr(self.entries).without_zeros()
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


def _successor_table(table, name: str) -> np.ndarray:
    """``table`` as int64 successor indices, shared when it is int64 already.

    Integers and floats with integral int64 values are taken; booleans,
    fractions and non-finite values are rejected, not cast.
    """
    table = np.asarray(table)
    if table.dtype.kind == "f" and np.all((np.trunc(table) == table) & (abs(table) < 2.0**63)):
        table = table.astype(np.int64)
    if table.dtype.kind not in "iu":
        raise InvalidInputError(
            f"{name} must hold integer successor indices, not booleans or fractions")
    return table.astype(np.int64, copy=False)


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
    A boolean or fractional ``table`` is rejected, never truncated.
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
        table = _successor_table(self.table, "table")
        probs.flags.writeable = table.flags.writeable = False  # the operator cache relies on it
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "r_labels", tuple(str(l) for l in self.r_labels))
        nr = len(self.r_labels)
        if probs.shape != (nr,):
            raise InvalidInputError("probs must have one entry per randomness value")
        if not (probs.min(initial=0.0) >= 0 and abs(probs.sum() - 1.0) <= ATOL_INPUT):  # NaN fails
            raise InvalidInputError("Pr(r) must be finite, nonnegative and sum to 1 within 1e-12")
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
    """Tail probabilities Pr{tau_coal > m}, exact or Monte Carlo.

    ``tail_max`` is the worst start pair's tail at each m. Only a Monte Carlo
    report names its start ``pairs`` and holds their ``per_pair`` tails; an
    exact report covers every pair, and a pair's own exact tails are read off
    :func:`tail_vectors`, one m at a time.
    """

    mode: str  # "exact" | "monte_carlo"
    m_values: np.ndarray
    tail_max: np.ndarray
    pairs: list[tuple[int, int]] | None = None  # MC only
    per_pair: np.ndarray | None = None  # MC only: shape (len(m_values), len(pairs))
    samples: int | None = None
    seed: int | None = None
    ci_half: np.ndarray | None = None  # 95% CI half-widths on tail_max (MC only)
    t_couple: int | None = None
    words_drawn: int | None = None  # 64-bit random words drawn (MC only)

    def up_to(self, m: int) -> CoalescenceReport:
        """This exact report cut to the one a run to m_max = m gives, bit for bit:
        each tail row depends only on the rows before it, and t_couple is found
        again by the same crossing rule."""
        if self.mode != "exact":
            raise InvalidInputError("only an exact report can be cut at m")
        if not 0 <= m <= self.m_values[-1]:
            raise InvalidInputError(f"m_max must be in 0..{int(self.m_values[-1])}, got {m}")
        m_values, tail_max = self.m_values[: m + 1], self.tail_max[: m + 1]
        return CoalescenceReport(mode="exact", m_values=m_values, tail_max=tail_max,
                                 t_couple=_t_couple(tail_max, m_values))

    def tail_at(self, m: int) -> float:
        pos = np.nonzero(self.m_values == m)[0]
        if pos.size == 0:
            raise InvalidInputError(f"m={m} not covered by this report")
        return float(self.tail_max[pos[0]])

    def to_csv(self) -> str:
        columns = [("tail_max", self.tail_max)]
        if self.mode == "monte_carlo":
            ci = self.ci_half if self.ci_half is not None else 0.0
            columns.append(("tail_ci_hi", self.tail_max + ci))
        return series_csv(self.m_values, columns)


def _t_couple(upper: np.ndarray, m_values: np.ndarray) -> int | None:
    """The first m whose tail bound ``upper`` is at most COUPLING_THRESHOLD."""
    crossing = np.flatnonzero(upper <= COUPLING_THRESHOLD)
    return int(m_values[crossing[0]]) if crossing.size else None


# ---------------------------------------------------------------------------
# Validation of the three coupling conditions


def validate_coupling(C: CouplingMatrix | RandomMappingRep) -> ValidationReport:
    """Check column-stochasticity plus the three coupling conditions.

    Report-style: lists each violated condition with the worst offending
    indices and magnitudes; ``valid`` iff everything holds within 1e-12.

    A random mapping is valid by construction (see
    :func:`grand_coupling_operator`), so no pair-space operator is built for it.

    A :class:`CouplingMatrix` report is computed once and cached on it. Every
    condition is read off the stored entries of the CSR matrix, so the work
    is O(nnz + N^3). Sums are accumulated in row order, as a dense column or
    axis sum would, so the reported values and indices are those of the
    dense N^2 x N^2 computation: a reported index is the first maximum in C
    order of the (x', x, y), (y', x, y) or (x', y', x, y) array.
    """
    if isinstance(C, RandomMappingRep):
        conditions = ("stochastic", "marginals", "coalescence", "symmetry")
        return ValidationReport(valid=True, details=dict.fromkeys(conditions, True))
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
    _require_ergodic(P)
    n = P.n
    xp, x = np.nonzero(P.entries)
    data, rows, cols = kron_square_entries(P.entries)
    apart = cols % (n + 1) != 0  # pair (x, x) has index x (N + 1)
    E = Csr.from_coo(
        np.concatenate([data[apart], P.entries[xp, x]]),
        np.concatenate([rows[apart], xp * (n + 1)]),
        np.concatenate([cols[apart], x * (n + 1)]),
        (n * n, n * n),
    )
    return CouplingMatrix(base=P, entries=E)


def grand_coupling_matrix(rmr: RandomMappingRep) -> CouplingMatrix:
    """Grand coupling: both components driven by the same randomness draw.

    Wraps the cached :func:`grand_coupling_operator` (no copy), stamped with
    the mapping's :func:`validate_coupling` report: it is a coupling by
    construction, so the N^3 check of the matrix never runs on it.
    """
    if rmr.base is None:
        raise InvalidInputError("grand coupling matrix requires a mapping with a base chain")
    C = CouplingMatrix(base=rmr.base, entries=grand_coupling_operator(rmr))
    object.__setattr__(C, "_validation", validate_coupling(rmr))
    return C


def kron_square_entries(F: np.ndarray):
    """(data, rows, cols) of kron(F, F) at the products of F's nonzeros: the
    entry at (i*n + j, k*n + l) is F[i, k] * F[j, l], as in ``np.kron``."""
    i, k = np.nonzero(F)
    v = F[i, k]
    n = F.shape[0]
    return (np.multiply.outer(v, v).ravel(), np.add.outer(i * n, i).ravel(),
            np.add.outer(k * n, k).ravel())


def grand_coupling_operator(rmr: RandomMappingRep) -> Csr:
    """Pair-space transition matrix of the grand coupling, built from the table.

    C = sum_r Pr(r) kron(F_r, F_r) with F_r[f(x, r), x] = 1, so column
    idx(x, y) holds Pr(r) at row idx(f(x, r), f(y, r)): at most |R| nonzeros
    per column, read off the table by :func:`table_csr` (factors f(x, r) N
    and f(y, r) of the row, x N and y of the column, Pr(r) and 1.0 of the
    value) and added in r order at a cell; a cell that sums to zero (only
    Pr(r) = 0 reach it) is not stored. It is a coupling by construction:
    both marginals are the induced chain, which :class:`RandomMappingRep`
    checks against its base; (x, x) only reaches diagonal pairs; and swapping
    the components maps column (x, y) onto (y, x) with the same weights.

    Cached on ``rmr``: every later call, and :func:`grand_coupling_matrix`,
    returns the same (immutable) matrix.
    """
    if rmr._operator is None:
        n, f = rmr.n, rmr.table
        x = np.arange(n)[:, None]
        object.__setattr__(rmr, "_operator",
                           table_csr(n, (f * n, f), (x * n, x), (rmr.probs, 1.0)))
    return rmr._operator


def pair_transition(coupling: CouplingMatrix) -> Csr:
    """Pair-space transition matrix of a :class:`CouplingMatrix`: its entries,
    once the coupling is validated."""
    require_valid_coupling(coupling)
    return coupling.entries


def pair_step(C: CouplingMatrix | RandomMappingRep):
    """The step u -> u C of the pair chain on N^2 vectors u (pair x*N + y): a
    product by a coupling's :func:`pair_transition`, or a mapping's
    :func:`table_gather`."""
    if isinstance(C, RandomMappingRep):
        return table_gather(C.probs, C.table)
    return pair_transition(C).__rmatmul__


# ---------------------------------------------------------------------------
# Coalescence tails


def tail_vectors(coupling: CouplingMatrix | RandomMappingRep, m_max: int):
    """V_0 = 1 - vec(I), then V_m = V_{m-1} C by :func:`pair_step`, for m <= m_max,
    one N^2 vector at a time and none kept. V_m[x*N + y] is the exact tail
    Pr_{x,y}{tau_coal > m}, the column sum of C^m over off-diagonal pair
    rows, for all start pairs at once; a random mapping's step is the gather
    V_m[x, y] = sum_r Pr(r) V_{m-1}[f(x, r), f(y, r)] off its table. No guard
    is checked: the caller sizes what it keeps.
    """
    n = coupling.n
    step = pair_step(coupling)
    v = np.ones(n * n)
    v[:: n + 1] = 0.0  # pair (x, x) has index x (N + 1)
    yield v
    for _ in range(m_max):
        v = step(v)
        yield v


def coalescence_tail_exact(
    coupling: CouplingMatrix | RandomMappingRep, m_max: int
) -> CoalescenceReport:
    """Exact worst tails max_{x != y} Pr_{x,y}{tau_coal > m} for m <= m_max, off
    :func:`tail_vectors`; each step's off-diagonal tails are kept until the
    next, to assert that none grows.

    The byte guard counts, per m, ``tail_max``, ``m_values`` and a tails CSV
    row of up to 32 characters as ``coalesce`` holds it: a str in
    ``series_csv``'s list and its line twice in the joined text, 172 bytes
    (tracemalloc: 161.5 bytes a step at 30 characters); and 7 N^2 doubles,
    the vector, the gather's sum and buffers and two steps' tails (6.4 at N = 64).
    """
    if m_max < 0:
        raise InvalidInputError(f"m_max must be >= 0, got {m_max}")
    n = coupling.n
    require_exact(n)
    require_bytes("exact tails", (m_max + 1) * 172 + 7 * n * n * 8)
    off = np.ones(n * n, dtype=bool)
    off[:: n + 1] = False
    tail_max = np.zeros(m_max + 1)
    last = None
    for m, v in enumerate(tail_vectors(coupling, m_max)):
        tails = v[off]
        if last is not None and np.any(tails > last + ATOL_INPUT):
            raise AssertionError(f"exact tails increased at m={m}")
        if tails.size:
            tail_max[m] = tails.max()
        last = tails
    m_values = np.arange(m_max + 1)
    return CoalescenceReport(
        mode="exact",
        m_values=m_values,
        tail_max=tail_max,
        t_couple=_t_couple(tail_max, m_values),
    )


class _InverseCDF:
    """Exact inverse CDF of Pr(r) applied to 64-bit words.

    A word w stands for the uniform u = (w >> 11) * 2**-53 (its top 53 bits),
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

    def __call__(self, words, scratch=None, finish=None) -> np.ndarray:
        """The indices of the 1-D ``words``. With ``finish``, only their top
        CDF_BUCKET_BITS bits are final, and ``finish`` makes those that land
        in straddling buckets whole. ``scratch``, if given, is overwritten."""
        bucket = np.right_shift(words, np.uint64(64 - CDF_BUCKET_BITS), out=scratch)
        idx = self.code.take(bucket.view(np.int64))
        if self.straddle is not None:
            hit = np.flatnonzero(idx == self.straddle)
            whole = words[hit] if finish is None else finish(words[hit])
            idx[hit] = np.searchsorted(self.cum, (whole >> np.uint64(11)) * 2.0**-53, side="right")
        return idx


def mc_block_rows(m_max: int) -> int:
    """Trajectories per MC block (at least one).

    A block's record ``r_idx`` holds at most MC_BLOCK_ELEMENTS randomness
    indices, 1 byte each (2 when |R| >= 256). The kernel's per-row state is
    the pair of states, 16 bytes a row, and up to about 60 bytes a row while
    it steps or drops the pairs that met (the old and new pair, the apart
    mask, the kept and active rows). Taking m_max as at least 4 keeps that
    within about 15 bytes per element when m_max is tiny. The kernel steps on
    the model's own successor table, so a block makes no table-sized array.
    The row count sets memory only: no result depends on it.
    """
    return max(1, MC_BLOCK_ELEMENTS // max(m_max, 4))


def _checked_seed(seed: int) -> int:
    if seed < 0:
        raise InvalidInputError(f"--seed must be >= 0, got {seed}")
    return seed


def coalescence_tail_mc(
    rmr: RandomMappingRep,
    start_pairs: list[tuple[int, int]],
    m_grid: list[int],
    samples: int,
    seed: int,
) -> CoalescenceReport:
    """Monte Carlo tails with normal-approximation 95% CIs.

    Trajectory t of start-pair slot s reads, at each step, the index of word
    w(t, step) of the counter stream keyed by (seed, s) (``kernels.CounterStream``),
    so the result depends only on the seed, the samples, the m-grid and the
    start pairs. The ``samples`` trajectories of each start pair run in
    blocks of ``mc_block_rows(m_max)`` rows, and the kernel draws words only
    for the trajectories still apart, one window of steps at a time
    (``kernels.coalescence_counts``); blocks and windows bound memory and
    shape no result. The blocks run one after another on the calling thread,
    each adding its integer counts and words drawn to the totals, so beyond
    the model itself memory stays O(MC_BLOCK_ELEMENTS + 16 x block rows +
    kernels.DRAW_CHUNK_WORDS) bytes, whatever the size of the successor table.
    """
    if samples < 1:
        raise InvalidInputError(f"--samples must be >= 1, got {samples}")
    if samples >= 1 << 32:
        raise InvalidInputError(f"--samples must be < 2**32 (trajectory counter), got {samples}")
    if _checked_seed(seed) >= 1 << 64:
        raise InvalidInputError(f"--seed must be < 2**64 (the stream's key), got {seed}")
    if not start_pairs or not list(m_grid):
        raise InvalidInputError("start_pairs and m_grid must be nonempty")
    grid = np.array(sorted(set(int(m) for m in m_grid)), dtype=np.int64)
    if grid[0] < 0:
        raise InvalidInputError(f"--m-grid entries must be nonnegative, got {grid[0]}")
    m_max = int(grid[-1])
    n = rmr.n
    for x, y in start_pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise InvalidInputError(f"start pair ({x}, {y}) out of range")

    inverse_cdf = _InverseCDF(rmr.probs)
    rows = mc_block_rows(m_max)
    # the kernel's counts and report mask, 9 bytes a step, and one block's record r_idx
    require_bytes("MC tails", 9 * (m_max + 1) + rows * m_max * inverse_cdf.code.itemsize)
    assert m_max < 1 << 32  # the step counter: the byte guard stops any larger m first
    stream = CounterStream(inverse_cdf, seed)
    counts = np.zeros((len(grid), len(start_pairs)), dtype=np.int64)
    for slot, (x0, y0) in enumerate(start_pairs):
        for start in range(0, samples, rows):
            # the record of the indices the kernel reads, column-major so that a
            # window's columns are one contiguous run; made inside the call, so
            # it is freed before the next block makes its own
            counts[:, slot] += coalescence_counts(
                rmr.table,
                np.zeros((min(rows, samples - start), m_max),
                         dtype=inverse_cdf.code.dtype, order="F"),
                x0, y0, grid, stream.draw(slot, start),
            )
    per_pair = counts / samples

    tail_max = per_pair.max(axis=1)
    ci_half = np.maximum(
        1.96 * np.sqrt(tail_max * (1.0 - tail_max) / samples), 3.0 / samples
    )
    return CoalescenceReport(
        mode="monte_carlo",
        m_values=grid,
        tail_max=tail_max,
        pairs=[tuple(p) for p in start_pairs],
        per_pair=per_pair,
        samples=samples,
        seed=seed,
        ci_half=ci_half,
        t_couple=_t_couple(tail_max + ci_half, grid),
        words_drawn=stream.words,
    )


def check_tail_submultiplicativity(
    coupling: CouplingMatrix | RandomMappingRep, report: CoalescenceReport, m: int, l: int
) -> CheckResult:
    """Pr_max{tau > l*m} <= (Pr_max{tau > m})^l, plus the block-structure identity.

    Both tails are read from ``report``, the coupling's exact tails to at
    least l*m. The block identity: C^k on the diagonal pairs equals P^k (once
    the components meet they stay together). The diagonal absorbs, so that
    block of C^k is D^k, D the N x N diagonal block of C; D^k is compared with
    P^k at every k <= m, and ``diag_block_error`` also counts the largest mass
    a diagonal column sends to off-diagonal rows. A random mapping's D is its
    induced chain, read off the table (no mass leaves the diagonal).
    """
    if m < 0 or l < 1:
        raise InvalidInputError("need m >= 0 and l >= 1")
    if report.mode != "exact":
        raise InvalidInputError("tail submultiplicativity needs exact tails")
    lhs = report.tail_at(m * l)
    rhs = float(report.tail_at(m) ** l)
    n = coupling.n
    if isinstance(coupling, RandomMappingRep):
        block_err, D = 0.0, coupling.induced_chain_entries()
        P = D if coupling.base is None else coupling.base.entries
    else:
        P, C = coupling.base.entries, pair_transition(coupling)
        diag_idx = np.arange(n) * (n + 1)
        on_diag = np.zeros(n * n, dtype=bool)
        on_diag[diag_idx] = True
        leaving = on_diag[C.indices] & ~on_diag[C.rows]
        block_err = float(sums_by_key(C.indices[leaving], np.abs(C.data[leaving]), n * n).max())
        D = C.block(diag_idx, diag_idx)
    Dk, Pk = np.eye(n), np.eye(n)
    for _ in range(m):
        Dk, Pk = D @ Dk, P @ Pk
        block_err = max(block_err, float(np.max(np.abs(Dk - Pk))))
    passed = lhs <= rhs + ATOL_COMPUTED and block_err <= ATOL_INPUT
    return CheckResult(
        name="tail_submultiplicativity",
        passed=passed,
        lhs=lhs,
        rhs=rhs,
        tolerance=ATOL_COMPUTED,
        details={"m": m, "l": l, "diag_block_error": block_err},
    )


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


def coupling_from_json_dict(doc: dict, base: TransitionMatrix):
    """Load either a dense CouplingMatrix or a RandomMappingRep of the chain ``base``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidInputError("coupling JSON must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in ("dense", "rmr"):
        raise InvalidInputError(f"unknown coupling kind {kind!r}")
    for key in ("C",) if kind == "dense" else ("R", "f"):
        if key not in doc:
            raise InvalidInputError(f"coupling JSON of kind {kind!r} missing field {key!r}")
    if kind == "dense":
        entries = json_numbers(doc["C"], "field 'C'")
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidInputError("field 'C' must be a square nested array")
        n2 = entries.shape[0]
        n = int(round(np.sqrt(n2)))
        if n * n != n2:
            raise InvalidInputError(f"field 'C' has side {n2}, not a perfect square")
        return CouplingMatrix(base=base, entries=entries)
    rs = doc["R"]
    if not isinstance(rs, list) or not rs:
        raise InvalidInputError("field 'R' must be a nonempty array")
    for i, r in enumerate(rs):
        if not (isinstance(r, dict) and "label" in r and "prob" in r):
            raise InvalidInputError(f"field 'R' entry {i} needs fields 'label' and 'prob'")
    table = _successor_table(json_numbers(doc["f"], "field 'f'"), "field 'f'").T
    if table.ndim != 2 or table.shape[1] != len(rs):
        raise InvalidInputError("field 'f' must hold one successor row per entry of 'R'")
    labels = tuple(str(r["label"]) for r in rs)
    probs = json_numbers([r["prob"] for r in rs], "field 'R' prob values")
    return RandomMappingRep(base=base, r_labels=labels, probs=probs, table=table)


def read_coupling_json(path, base: TransitionMatrix):
    return read_json_file(path, lambda doc: coupling_from_json_dict(doc, base=base))

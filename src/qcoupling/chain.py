"""Finite ergodic Markov chains: validation, stationary distributions, mixing diagnostics.

Convention: transition matrices are column stochastic, ``P[i, j] = Pr(j -> i)``,
so distributions are column vectors and a step is ``P @ p``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from qcoupling.checks import ValidationReport
from qcoupling.errors import (
    InvalidInputError,
    NonErgodicError,
    ThresholdNotReachedError,
)

# Absolute tolerances: structural checks on inputs vs computed quantities.
ATOL_INPUT = 1e-12
ATOL_COMPUTED = 1e-10


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic transition matrix over a finite labeled state space."""

    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        entries.flags.writeable = False  # the checks below stay true
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        n = len(self.labels)
        if n < 1:
            raise InvalidInputError("state space must contain at least one state")
        if len(set(self.labels)) != n:
            raise InvalidInputError("state labels must be unique")
        if entries.shape != (n, n):
            raise InvalidInputError(
                f"entries shape {entries.shape} does not match {n} labels"
            )
        if not np.all(np.isfinite(entries)):
            raise InvalidInputError("transition matrix contains non-finite entries")
        if entries.min() < -ATOL_INPUT or entries.max() > 1 + ATOL_INPUT:
            raise InvalidInputError("transition probabilities must lie in [0, 1]")
        colsums = entries.sum(axis=0)
        worst = int(np.argmax(np.abs(colsums - 1.0)))
        if abs(colsums[worst] - 1.0) > ATOL_INPUT:
            raise InvalidInputError(
                f"column {worst} ({self.labels[worst]!r}) sums to {colsums[worst]!r}, "
                "not 1 within 1e-12"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class Distribution:
    """Probability distribution as a nonnegative length-N vector summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 1:
            raise InvalidInputError("distribution must be a nonempty vector")
        if w.min() < -ATOL_INPUT:
            raise InvalidInputError("distribution entries must be nonnegative")
        if abs(w.sum() - 1.0) > ATOL_INPUT:
            raise InvalidInputError(f"distribution sums to {w.sum()!r}, not 1 within 1e-12")

    @property
    def n(self) -> int:
        return self.weights.size


def _components_and_periods(entries: np.ndarray) -> tuple[int, np.ndarray, list[int]]:
    """Strong components of the support digraph, which has an edge j -> i
    where ``entries[i, j] > ATOL_INPUT``, and the period of each.

    Kosaraju-Sharir: a depth-first pass records the finishing order; a
    breadth-first pass over the reversed graph, rooted in reverse finishing
    order, labels each component and finds d(v), the distance from v to its
    component's root. A period is the gcd of |d(i) + 1 - d(j)| over the
    component's internal edges j -> i, and 1 for a component without one.
    Returns (number of components, component of each state, periods).
    """
    support = entries > ATOL_INPUT
    n = support.shape[0]
    succ = [np.flatnonzero(col).tolist() for col in support.T]
    pred = [np.flatnonzero(row).tolist() for row in support]
    seen, finished = [False] * n, []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v = next((v for v in stack[-1][1] if not seen[v]), None)
            if v is None:
                finished.append(stack.pop()[0])
            else:
                seen[v] = True
                stack.append((v, iter(succ[v])))
    comp, dist, n_comp = [-1] * n, [0] * n, 0
    for root in reversed(finished):
        if comp[root] < 0:
            comp[root], queue = n_comp, [root]
            for u in queue:
                for v in pred[u]:
                    if comp[v] < 0:
                        comp[v], dist[v] = n_comp, dist[u] + 1
                        queue.append(v)
            n_comp += 1
    comp, dist = np.array(comp), np.array(dist)
    i, j = np.nonzero(support & (comp[:, None] == comp))
    gcd = np.zeros(n_comp, dtype=np.int64)
    np.gcd.at(gcd, comp[i], np.abs(dist[i] + 1 - dist[j]))
    return n_comp, comp, [int(g) or 1 for g in gcd]


def validate_chain(P: TransitionMatrix) -> ValidationReport:
    """Report irreducibility and aperiodicity of P (its columns sum to 1 by construction)."""
    n_comp, _, periods = _components_and_periods(P.entries)
    issues = []
    irreducible = n_comp == 1
    if not irreducible:
        issues.append(f"support digraph has {n_comp} strong components")
    period = periods[0] if irreducible else max(periods)
    aperiodic = all(p == 1 for p in periods)
    if not aperiodic:
        issues.append(f"chain is periodic with period {period}")
    ergodic = irreducible and aperiodic
    return ValidationReport(
        valid=ergodic,
        issues=issues,
        details={
            "irreducible": irreducible,
            "aperiodic": aperiodic,
            "period": period,
            "ergodic": ergodic,
        },
    )


def _require_ergodic(P: TransitionMatrix):
    details = validate_chain(P).details
    missing = [name for name in ("irreducible", "aperiodic") if not details[name]]
    if missing:
        raise NonErgodicError(f"chain is not ergodic: fails to be {' and '.join(missing)}")


def stationary_distribution(P: TransitionMatrix) -> Distribution:
    """Stationary distribution pi with P pi = pi, by GTH elimination.

    Grassmann-Taksar-Heyman (1985) state reduction: states are censored one
    at a time from the last, and each pivot is the censored state's total
    exit probability, summed from nonnegative entries instead of formed as
    1 - P[k, k]. The elimination has no subtractions, so every pi_x comes out
    with a small relative error, tiny entries included (O'Cinneide 1993).
    Dense O(N^3). Requires an ergodic chain; the residual max |P pi - pi| is
    checked against ATOL_COMPUTED.
    """
    _require_ergodic(P)
    n = P.n
    A = P.entries.T.copy()  # row-stochastic: A[i, j] = Pr(i -> j)
    for k in range(n - 1, 0, -1):
        exit_rate = A[k, :k].sum()
        A[:k, k] /= exit_rate
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    pi /= pi.sum()
    if not np.max(np.abs(P.entries @ pi - pi)) <= ATOL_COMPUTED:  # NaN fails too
        raise InvalidInputError("stationary distribution did not converge to tolerance")
    return Distribution(pi)


def _tv_to_pi_all_starts(M: np.ndarray, pi: np.ndarray) -> float:
    """max over basis starts of the TV distance between M's columns and pi."""
    return 0.5 * float(np.abs(M - pi[:, None]).sum(axis=0).max())


def distance_to_stationary(P: TransitionMatrix, m: int) -> float:
    """Worst-start total variation d(m) = max_x (1/2) sum_x' |[P^m]_{x',x} - pi_x'|."""
    if m < 0:
        raise InvalidInputError("m must be nonnegative")
    pi = stationary_distribution(P).weights
    M = np.eye(P.n)
    for _ in range(m):
        M = P.entries @ M
    return _tv_to_pi_all_starts(M, pi)


def mixing_time(P: TransitionMatrix, eps: float, m_max: int = 10_000) -> int:
    """Smallest m with d(m) <= eps, scanning m upward from 0.

    Asserts that d(m) never increases, and checks the result against the
    standard relation t_mix(eps) <= ceil(log2(1/eps)) * t_mix(1/4).
    """
    pi = stationary_distribution(P).weights
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must lie in (0, 1), got {eps}")
    t_mix: dict[float, int] = {}  # threshold -> first m with d(m) <= threshold
    M = np.eye(P.n)
    d_prev = math.inf
    for m in range(max(m_max, 0) + 1):
        d = _tv_to_pi_all_starts(M, pi)
        if d > d_prev + ATOL_INPUT:
            raise AssertionError(f"d(m) increased at m={m}: {d_prev} -> {d}")
        for threshold in (eps, 0.25):
            if d <= threshold:
                t_mix.setdefault(threshold, m)
        if d <= min(eps, 0.25):
            break
        M = P.entries @ M
        d_prev = d
    else:
        raise ThresholdNotReachedError(
            f"d(m) did not reach eps={max({eps, 0.25} - t_mix.keys())} within m_max={m_max}; "
            f"best d({m}) = {d:.6g}",
            best=(m, d),
        )
    bound = math.ceil(math.log2(1.0 / eps)) * t_mix[0.25]
    if eps <= 0.25 and t_mix[eps] > bound:
        raise AssertionError(
            f"t_mix({eps}) = {t_mix[eps]} exceeds ceil(log2(1/eps)) * t_mix = {bound}"
        )
    return t_mix[eps]


# ---------------------------------------------------------------------------
# JSON interface: { "labels": [...], "P": [[...], ...] } with P[i][j] = Pr(j -> i)


def chain_to_json_dict(P: TransitionMatrix) -> dict:
    return {"labels": list(P.labels), "P": P.entries.tolist()}


def json_numbers(value, name: str) -> np.ndarray:
    """``value``, a JSON number or nested array of numbers, as a float array.

    Only JSON numbers are taken: a boolean, string or null anywhere in
    ``value`` is an error naming ``name``, never cast, and so is a ragged array.
    """
    ragged = f"{name} must be a rectangular array of numbers"
    try:
        cells = np.array(value, dtype=object)  # keeps each parsed JSON value as it is
    except ValueError as exc:
        raise InvalidInputError(ragged) from exc
    kinds = set(map(type, cells.flat))
    if list in kinds:  # rows of unequal length become cells
        raise InvalidInputError(ragged)
    if not kinds <= {int, float}:  # a bool is no int here: its type is bool
        bad = next(c for c in cells.flat if type(c) not in (int, float))
        raise InvalidInputError(f"{name} must hold numbers only, not {json.dumps(bad)}")
    try:
        return cells.astype(float)
    except OverflowError as exc:
        raise InvalidInputError(f"{name} holds an integer beyond the float range") from exc


def chain_from_json_dict(doc: dict) -> TransitionMatrix:
    if not isinstance(doc, dict):
        raise InvalidInputError("chain JSON must be an object")
    for key in ("labels", "P"):
        if key not in doc:
            raise InvalidInputError(f"chain JSON missing field {key!r}")
    labels = doc["labels"]
    rows = doc["P"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidInputError("field 'P' must be a nested array of rows")
    n = len(labels)
    if len(rows) != n:
        raise InvalidInputError(f"field 'P' has {len(rows)} rows for {n} labels")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidInputError(f"field 'P' row {i} has length {len(row)}, expected {n}")
    return TransitionMatrix(labels=tuple(labels), entries=json_numbers(rows, "field 'P'"))


def read_json_file(path, parse):
    """``parse`` of the JSON document at ``path``; every error names the file,
    and malformed JSON also the line. A file that cannot be read, is not
    UTF-8, nests too deeply or holds an integer too long to convert is
    invalid input too."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (OSError, ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise InvalidInputError(f"{path}: cannot read: {exc}") from exc
    try:
        return parse(doc)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def read_chain_json(path) -> TransitionMatrix:
    return read_json_file(path, chain_from_json_dict)

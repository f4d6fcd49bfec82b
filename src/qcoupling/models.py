"""Bundled model chains and couplings.

Four families: the lazy hypercube walk with bit-refresh grand coupling, the
lazy biased cycle walk with the one-particle-moves coupling (plus the checked
in 9x9 Choi fixture for the unbiased 3-cycle), Metropolis recolorings of a
graph, and hardcore (independent-set) Glauber dynamics with fugacity.

State enumeration is lexicographic by configuration vector, which fixes all
matrix layouts and the fixture comparison.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from qcoupling.chain import ATOL_COMPUTED, Distribution, TransitionMatrix
from qcoupling.checks import CheckResult
from qcoupling.coupling import (
    EXACT_GUARD_N,
    CouplingMatrix,
    RandomMappingRep,
    coalescence_tail_exact,
    coalescence_tail_mc,
    grand_coupling_matrix,
    induced_entries,
)
from qcoupling.csr import Csr
from qcoupling.errors import GuardExceededError, InvalidInputError

ENUMERATION_GUARD = 2_000_000  # largest configuration space we will filter


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph given by vertex count and edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = []
        seen = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise InvalidInputError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidInputError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidInputError(f"duplicate edge {key}")
            seen.add(key)
            edges.append(key)
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def max_degree(self) -> int:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg) if deg else 0

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out


def path_graph(n: int) -> GraphSpec:
    return GraphSpec(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> GraphSpec:
    return GraphSpec(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


@dataclass
class ModelInstance:
    """A realized model: chain, grand coupling mapping, and rate constant.

    ``chain`` is None for state spaces beyond the exact guard (MC-only use);
    ``rate`` is the coalescence rate constant in the tail envelope
    n_sites * exp(-m * rate / n_sites), None when the model has no such bound.
    """

    kind: str
    params: dict
    state_labels: tuple[str, ...]
    rmr: RandomMappingRep
    chain: TransitionMatrix | None
    pi: Distribution
    n_sites: int
    rate: float | None = None
    exact: bool = True
    details: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.state_labels)

    def coupling(self) -> CouplingMatrix:
        """The grand coupling as a validated :class:`CouplingMatrix` (sparse)."""
        if not self.exact or self.chain is None:
            raise GuardExceededError(
                f"model {self.kind} with {self.n} states is MC-only; "
                "no dense coupling matrix is built"
            )
        return grand_coupling_matrix(self.rmr)


# ---------------------------------------------------------------------------
# Hypercube


def hypercube_model(n: int) -> ModelInstance:
    """Lazy walk on {0,1}^n: refresh a uniformly chosen coordinate with a fair bit."""
    if not 1 <= n <= 20:
        raise InvalidInputError("hypercube size must satisfy 1 <= n <= 20")
    n_states = 2**n
    labels = tuple(format(x, f"0{n}b") for x in range(n_states))
    r_labels = []
    columns = []
    states = np.arange(n_states, dtype=np.int64)
    for i in range(n):
        bit = 1 << (n - 1 - i)  # coordinate i is character i of the label
        for b in (0, 1):
            r_labels.append(f"coord{i}_bit{b}")
            columns.append((states & ~bit) | (bit if b else 0))
    table = np.stack(columns, axis=1)
    probs = np.full(2 * n, 1.0 / (2 * n))
    exact = n_states <= EXACT_GUARD_N
    chain = None
    if exact:
        chain = TransitionMatrix(
            labels,
            induced_entries(table, probs),
        )
    rmr = RandomMappingRep(base=chain, r_labels=tuple(r_labels), probs=probs, table=table)
    return ModelInstance(
        kind="hypercube",
        params={"n": n},
        state_labels=labels,
        rmr=rmr,
        chain=chain,
        pi=Distribution(np.full(n_states, 1.0 / n_states)),
        n_sites=n,
        rate=1.0,  # coupon-collector envelope n * exp(-m / n)
        exact=exact,
    )


def hypercube_worst_pair(n: int) -> tuple[int, int]:
    """All-zeros vs all-ones: the pair differing in every coordinate."""
    return 0, 2**n - 1


def coupon_collector_tail(n: int, m: int) -> float:
    """Exact Pr{some of n coupons unseen after m draws} by inclusion-exclusion."""
    if m < 0:
        raise InvalidInputError("m must be nonnegative")
    total = 0.0
    for k in range(1, n + 1):
        total += (-1) ** (k + 1) * math.comb(n, k) * (1.0 - k / n) ** m
    return min(1.0, max(0.0, total))


# ---------------------------------------------------------------------------
# Lazy biased cycle and the bundled counterexample fixture


def cycle_coupling_model(
    n: int, p: float = 0.5, variant: str = "prose"
) -> tuple[TransitionMatrix, CouplingMatrix]:
    """Lazy (p, q)-biased cycle walk and its one-particle-moves coupling.

    Off-diagonal starts toss a fair coin to pick which particle jumps (+1 with
    probability p, -1 with probability q = 1 - p); diagonal starts make
    identical lazy moves. The ``printed`` variant doubles the
    off-diagonal-start transition weights so the resulting Choi matrix matches
    the checked-in 9x9 fixture; it is a fixture-matching construction only and
    is flagged as not marginal-verified.
    """
    if n < 3:
        raise InvalidInputError("cycle needs n >= 3")
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError("bias p must lie in [0, 1]")
    if variant not in ("prose", "printed"):
        raise InvalidInputError(f"unknown cycle variant {variant!r}")

    q = 1.0 - p
    labels = tuple(str(i) for i in range(n))
    P = np.zeros((n, n))
    for x in range(n):
        P[x, x] += 0.5
        P[(x + 1) % n, x] += p / 2.0
        P[(x - 1) % n, x] += q / 2.0
    chain = TransitionMatrix(labels, P)

    # start pair (x, y) is column x*n + y; each move is (target row, weight, starts)
    x, y = np.divmod(np.arange(n * n), n)
    same, apart = x == y, x != y
    w = 2.0 if variant == "printed" else 1.0  # printed doubles off-diagonal starts
    moves = [
        (x * (n + 1), 0.5, same),
        ((x + 1) % n * (n + 1), p / 2.0, same),
        ((x - 1) % n * (n + 1), q / 2.0, same),
        ((x + 1) % n * n + y, p / 2.0 * w, apart),
        ((x - 1) % n * n + y, q / 2.0 * w, apart),
        (x * n + (y + 1) % n, p / 2.0 * w, apart),
        (x * n + (y - 1) % n, q / 2.0 * w, apart),
    ]
    rows = np.concatenate([target[starts] for target, _, starts in moves])
    cols = np.concatenate([np.flatnonzero(starts) for _, _, starts in moves])
    vals = np.concatenate([np.full(np.count_nonzero(starts), v) for _, v, starts in moves])
    E = Csr.from_coo(vals, rows, cols, (n * n, n * n))
    coupling = CouplingMatrix(
        base=chain, entries=E, marginal_verified=variant != "printed"
    )
    return chain, coupling


def load_counterexample_fixture() -> dict:
    """The literal 9x9 Choi fixture (matrix, eigenvalues, tensor order)."""
    with resources.files("qcoupling.data").joinpath("counterexample_choi_n3.json").open() as fh:
        doc = json.load(fh)
    doc["matrix"] = np.array(doc["matrix"], dtype=float)
    doc["eigenvalues_2digits"] = np.array(doc["eigenvalues_2digits"], dtype=float)
    return doc


# ---------------------------------------------------------------------------
# Metropolis recolorings


def colorings_model(g: GraphSpec, q: int) -> ModelInstance:
    """Metropolis chain on the proper q-colorings of g.

    A move picks (vertex, color) uniformly and recolors when the color is
    allowable (differs from all neighbor colors); otherwise it stays. The
    state space is restricted to proper colorings; the stationary distribution
    is uniform. Requires q >= max_degree + 2 for ergodicity of the restricted
    chain.
    """
    if q < g.max_degree + 2:
        raise InvalidInputError(
            f"need q >= max_degree + 2 = {g.max_degree + 2} for ergodicity, got q={q}"
        )
    if q**g.n > ENUMERATION_GUARD:
        raise GuardExceededError(f"q^n = {q**g.n} exceeds the enumeration guard")
    neighbors = [g.neighbors(v) for v in range(g.n)]
    states = [
        x
        for x in itertools.product(range(q), repeat=g.n)
        if all(x[u] != x[v] for u, v in g.edges)
    ]
    if not states:
        raise InvalidInputError("graph has no proper coloring with the given q")
    index = {x: i for i, x in enumerate(states)}
    n_states = len(states)

    r_labels = [f"v{v}_k{k}" for v in range(g.n) for k in range(q)]
    table = np.empty((n_states, g.n * q), dtype=np.int64)
    for i, x in enumerate(states):
        for v in range(g.n):
            blocked = {x[w] for w in neighbors[v]}
            for k in range(q):
                r = v * q + k
                if k in blocked:
                    table[i, r] = i
                else:
                    y = list(x)
                    y[v] = k
                    table[i, r] = index[tuple(y)]
    probs = np.full(g.n * q, 1.0 / (g.n * q))
    exact = n_states <= EXACT_GUARD_N
    chain = (
        TransitionMatrix(tuple("".join(map(str, x)) for x in states), induced_entries(table, probs))
        if exact
        else None
    )
    rmr = RandomMappingRep(base=chain, r_labels=tuple(r_labels), probs=probs, table=table)
    return ModelInstance(
        kind="colorings",
        params={"n": g.n, "q": q, "max_degree": g.max_degree},
        state_labels=tuple("".join(map(str, x)) for x in states),
        rmr=rmr,
        chain=chain,
        pi=Distribution(np.full(n_states, 1.0 / n_states)),
        n_sites=g.n,
        rate=1.0 - 3.0 * g.max_degree / q,  # c_met(Delta, q)
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Hardcore model


def hardcore_model(g: GraphSpec, lam: float) -> ModelInstance:
    """Glauber dynamics on hardcore configurations (independent sets) of g.

    A move picks a vertex uniformly and tosses a lambda/(1+lambda) coin:
    tails removes any particle at the vertex, heads places one when all
    neighbors are vacant. pi(x) is proportional to lambda^(occupied count).
    """
    if lam <= 0:
        raise InvalidInputError("fugacity lambda must be positive")
    if 2**g.n > ENUMERATION_GUARD:
        raise GuardExceededError(f"2^n = {2**g.n} exceeds the enumeration guard")
    neighbors = [g.neighbors(v) for v in range(g.n)]
    states = [
        x
        for x in itertools.product((0, 1), repeat=g.n)
        if all(not (x[u] and x[v]) for u, v in g.edges)
    ]
    index = {x: i for i, x in enumerate(states)}
    n_states = len(states)
    exact = n_states <= EXACT_GUARD_N

    heads = lam / (1.0 + lam)
    r_labels, prob_list, columns = [], [], []
    for v in range(g.n):
        for toss, pr in (("heads", heads / g.n), ("tails", (1.0 - heads) / g.n)):
            r_labels.append(f"v{v}_{toss}")
            prob_list.append(pr)
            col = np.empty(n_states, dtype=np.int64)
            for i, x in enumerate(states):
                y = list(x)
                if toss == "tails":
                    y[v] = 0
                elif all(x[w] == 0 for w in neighbors[v]):
                    y[v] = 1
                col[i] = index[tuple(y)]
            columns.append(col)
    table = np.stack(columns, axis=1)
    probs = np.array(prob_list)

    weights = np.array([lam ** sum(x) for x in states], dtype=float)
    pi = Distribution(weights / weights.sum())
    chain = (
        TransitionMatrix(tuple("".join(map(str, x)) for x in states), induced_entries(table, probs))
        if exact
        else None
    )
    rmr = RandomMappingRep(base=chain, r_labels=tuple(r_labels), probs=probs, table=table)
    return ModelInstance(
        kind="hardcore",
        params={"n": g.n, "lambda": lam, "max_degree": g.max_degree},
        state_labels=tuple("".join(map(str, x)) for x in states),
        rmr=rmr,
        chain=chain,
        pi=pi,
        n_sites=g.n,
        rate=(1.0 + lam * (1.0 - g.max_degree)) / (1.0 + lam),  # c_H(lambda)
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Rate envelopes


def default_start_pairs(model: ModelInstance, count: int, seed: int) -> list[tuple[int, int]]:
    """Heuristic worst-case start pairs for MC tail estimation."""
    if model.kind == "hypercube":
        return [hypercube_worst_pair(model.params["n"])]
    if seed < 0:
        raise InvalidInputError(f"--seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    pairs = set()
    n = model.n
    while len(pairs) < min(count, n * (n - 1) // 2):
        x, y = rng.integers(0, n, size=2)
        if x != y:
            pairs.add((int(min(x, y)), int(max(x, y))))
    return sorted(pairs)


def contraction_rate_check(
    model: ModelInstance,
    m_grid: list[int],
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
    start_pairs: list[tuple[int, int]] | None = None,
    workers: int = 1,
) -> CheckResult:
    """Tails never exceed the model's envelope n_sites * exp(-m * rate / n_sites).

    Exact mode compares the worst-pair tail directly; MC mode requires the CI
    upper bound to stay below the envelope. A nonpositive rate makes every
    envelope value >= n_sites and the check is reported vacuous.
    """
    if model.rate is None:
        raise InvalidInputError(f"model {model.kind} has no rate constant")
    grid = sorted(set(int(m) for m in m_grid))
    envelope = {m: model.n_sites * math.exp(-m * model.rate / model.n_sites) for m in grid}
    if model.rate <= 0:
        return CheckResult(
            name="contraction_rate",
            passed=True,
            details={"vacuous": True, "rate": model.rate},
        )

    if mode == "exact":
        report = coalescence_tail_exact(model.rmr, m_max=max(grid))
        rows = [(m, report.tail_at(m), envelope[m]) for m in grid]
        margin = ATOL_COMPUTED
    elif mode == "mc":
        if samples is None or samples < 1_000:
            raise InvalidInputError("MC mode requires samples >= 1000")
        if seed is None:
            raise InvalidInputError("MC mode requires a seed")
        pairs = start_pairs or default_start_pairs(model, count=5, seed=seed)
        report = coalescence_tail_mc(
            model.rmr, pairs, grid, samples=samples, seed=seed, workers=workers
        )
        rows = [
            (m, report.tail_at(m) + float(report.ci_half[i]), envelope[m])
            for i, m in enumerate(report.m_values)
        ]
        margin = 0.0
    else:
        raise InvalidInputError(f"unknown mode {mode!r}")

    worst = max((tail - env for _, tail, env in rows), default=-np.inf)
    passed = worst <= margin
    return CheckResult(
        name="contraction_rate",
        passed=passed,
        lhs=worst,
        rhs=0.0,
        tolerance=margin,
        details={
            "mode": mode,
            "rate": model.rate,
            "rows": [
                {"m": m, "tail": tail, "envelope": env} for m, tail, env in rows
            ],
        },
    )

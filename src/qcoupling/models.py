"""Bundled model chains and couplings, and the one record every input
resolves to, :class:`ModelInstance`.

Four families. Three are one single-site-update rule: the random mapping
draws a site v and a value k and moves to the configuration with x[v] = k
when that is a state, else stays. They are the lazy hypercube walk (every
bit string is a state), Metropolis recolorings of a graph (the proper
colorings) and hardcore Glauber dynamics with fugacity (the independent
sets). Their states are enumerated lexicographically by configuration
vector, site 0 most significant, which fixes all matrix layouts; a state's
label, its digit string, exists only for chains of at most ``EXACT_GUARD_N``
states, the ones with a dense chain. The fourth family is the lazy biased
cycle walk with the one-particle-moves coupling, plus the checked-in 9x9 Choi
fixture for the unbiased 3-cycle.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from qcoupling.chain import (
    ATOL_COMPUTED,
    Distribution,
    TransitionMatrix,
    stationary_distribution,
)
from qcoupling.checks import CheckResult
from qcoupling.coupling import (
    EXACT_GUARD_N,
    CouplingMatrix,
    CoalescenceReport,
    RandomMappingRep,
    _checked_seed,
    grand_coupling_matrix,
    induced_entries,
    require_exact,
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
        if self.n < 1:
            raise InvalidInputError(f"graph needs at least one vertex, got n={self.n}")
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


def path_graph(n: int) -> GraphSpec:
    return GraphSpec(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> GraphSpec:
    return GraphSpec(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


@dataclass
class ModelInstance:
    """A chain and its coupling: every input the CLI takes resolves to one.

    ``kind`` is the bundled family ("hypercube", "colorings", "hardcore",
    "cycle") or "file" for a chain file. The coupling is the random mapping
    ``rmr`` or, for the cycle family and ``"kind": "dense"`` files, the
    pair-space matrix ``dense``; a chain file without a coupling file has
    neither. ``chain`` is None for bundled state spaces beyond the exact
    guard (MC-only use). ``n_sites`` and ``rate``, the coalescence rate
    constant in the tail envelope n_sites * exp(-m * rate / n_sites), are None
    unless the model is a single-site family. ``stationary`` is the builder's
    closed form of pi, or None until :attr:`pi` solves it from the chain.
    ``name`` is the name the model was resolved from.
    """

    kind: str
    chain: TransitionMatrix | None
    rmr: RandomMappingRep | None = None
    dense: CouplingMatrix | None = None
    n_sites: int | None = None
    rate: float | None = None
    stationary: Distribution | None = None
    name: str = ""

    @property
    def n(self) -> int:
        return self.rmr.n if self.rmr is not None else self.chain.n

    @property
    def exact(self) -> bool:
        return self.chain is not None

    @property
    def pi(self) -> Distribution:
        """The stationary distribution, solved from the chain on first use
        when the builder gave no closed form (a non-ergodic chain raises here)."""
        if self.stationary is None:
            self.stationary = stationary_distribution(self.chain)
        return self.stationary

    def exact_coupling(self) -> CouplingMatrix | RandomMappingRep:
        """What the exact path runs on, once N passes :func:`require_exact`:
        the mapping when there is one, so its pair-space operator is built
        once from the successor table, else the coupling matrix."""
        if self.rmr is None and self.dense is None:
            raise InvalidInputError(f"model {self.name} has no coupling")
        require_exact(self.n)
        return self.rmr if self.rmr is not None else self.dense

    def coupling(self) -> CouplingMatrix:
        """The coupling as a sparse :class:`CouplingMatrix`; a random mapping's
        grand coupling wraps its cached pair-space operator and is stamped
        valid by construction."""
        C = self.exact_coupling()
        return grand_coupling_matrix(C) if isinstance(C, RandomMappingRep) else C


# ---------------------------------------------------------------------------
# Single-site updates: hypercube, colorings and hardcore


def _single_site_model(
    kind: str, g: GraphSpec, q: int, *, values, r_labels, probs,
    rate: float, edge_ok=None, weights=None,
) -> ModelInstance:
    """The chain whose mapping draws r = (site v, value k) and moves x to the
    configuration with x[v] = k when that is a state, else stays.

    Configurations of g's sites in {0..q-1}^n are mixed-radix codes in
    lexicographic order (site 0 most significant); the states are the codes
    whose every edge (u, v) has ``edge_ok(x[u], x[v])``. ``values`` lists a
    site's k in r order: column v * len(values) + j of the table sets site v to
    values[j], looked up as the moved code's state index. ``weights(codes)`` is
    pi up to normalization, uniform when None.
    The dense chain and its labels, the states' digit strings, are built only
    for at most EXACT_GUARD_N states.
    """
    size = q**g.n
    if size > ENUMERATION_GUARD:
        raise GuardExceededError(f"{q}^{g.n} = {size} configurations exceed the enumeration guard")
    place = [q ** (g.n - 1 - v) for v in range(g.n)]
    codes = np.zeros(1, dtype=np.int64)  # the states' codes on sites 0 .. s, ascending
    for s in range(g.n):
        codes = (codes[:, None] * q + np.arange(q)).ravel()
        for u, v in g.edges:  # u < v: an edge is checked once its later site v is placed
            if v == s:
                codes = codes[edge_ok(codes // q ** (s - u) % q, codes % q)]
    n_states = codes.size
    stay = np.arange(n_states)
    table = np.empty((n_states, g.n * len(values)), dtype=np.int64)
    for v, p in enumerate(place):
        cleared = codes - codes // p % q * p  # one site's digits at a time, never an N x n matrix
        for j, k in enumerate(values):
            i = cleared + k * p  # the moved code: its own index when every code is a state
            if n_states < size:  # else its index by bisection, or stay where it is no state
                found = codes.searchsorted(i)
                i = np.where(codes.take(found, mode="clip") == i, found, stay)
            table[:, v * len(values) + j] = i
    chain = None
    if n_states <= EXACT_GUARD_N:
        labels = tuple("".join(str(c // p % q) for p in place) for c in codes.tolist())
        chain = TransitionMatrix(labels, induced_entries(table, probs))
    w = np.ones(n_states) if weights is None else weights(codes)
    rmr = RandomMappingRep(base=chain, r_labels=r_labels, probs=probs, table=table)
    return ModelInstance(kind=kind, chain=chain, rmr=rmr, n_sites=g.n,
                         rate=rate, stationary=Distribution(w / w.sum()))


def hypercube_model(n: int) -> ModelInstance:
    """Lazy walk on {0,1}^n: refresh a uniformly chosen coordinate with a fair bit."""
    if not 1 <= n <= 20:
        raise InvalidInputError("hypercube size must satisfy 1 <= n <= 20")
    return _single_site_model(
        "hypercube", GraphSpec(n, ()), 2, values=(0, 1),
        r_labels=[f"coord{i}_bit{b}" for i in range(n) for b in (0, 1)],
        probs=np.full(2 * n, 1.0 / (2 * n)),
        rate=1.0,  # coupon-collector envelope n * exp(-m / n)
    )


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
    return _single_site_model(
        "colorings", g, q, values=range(q),
        r_labels=[f"v{v}_k{k}" for v in range(g.n) for k in range(q)],
        probs=np.full(g.n * q, 1.0 / (g.n * q)),
        rate=1.0 - 3.0 * g.max_degree / q,  # c_met(Delta, q)
        edge_ok=np.not_equal,
    )


def hardcore_model(g: GraphSpec, lam: float) -> ModelInstance:
    """Glauber dynamics on hardcore configurations (independent sets) of g.

    A move picks a vertex uniformly and tosses a lambda/(1+lambda) coin:
    tails removes any particle at the vertex, heads places one when all
    neighbors are vacant. pi(x) is proportional to lambda^(occupied count).
    """
    if not 0 < lam < math.inf:  # NaN fails too
        raise InvalidInputError(f"fugacity lambda must be positive and finite, got {lam}")
    heads = lam / (1.0 + lam)
    try:  # lam ** k as a Python float, k the occupied count
        power = np.array([lam**k for k in range(g.n + 1)], dtype=float)
    except OverflowError:
        raise InvalidInputError(f"fugacity lambda = {lam} too large: lambda**{g.n} overflows") from None

    return _single_site_model(
        "hardcore", g, 2,
        values=(1, 0),  # heads places a particle, tails removes it
        r_labels=[f"v{v}_{toss}" for v in range(g.n) for toss in ("heads", "tails")],
        probs=np.tile([heads / g.n, (1.0 - heads) / g.n], g.n),
        rate=(1.0 + lam * (1.0 - g.max_degree)) / (1.0 + lam),  # c_H(lambda)
        edge_ok=lambda a, b: (a & b) == 0,
        weights=lambda codes: power[sum(codes >> v & 1 for v in range(g.n))],
    )


def hypercube_worst_pair(n: int) -> tuple[int, int]:
    """All-zeros vs all-ones: the pair differing in every coordinate."""
    return 0, 2**n - 1


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
    the checked-in 9x9 fixture; it is a fixture-matching construction only,
    and :func:`validate_coupling` fails it on stochasticity and marginals.
    """
    if n < 3:
        raise InvalidInputError("cycle needs n >= 3")
    require_exact(n)  # the family has no random mapping, so no MC path either
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
    return chain, CouplingMatrix(base=chain, entries=E)


def load_counterexample_fixture() -> dict:
    """The literal 9x9 Choi fixture (matrix, eigenvalues, tensor order)."""
    with resources.files("qcoupling.data").joinpath("counterexample_choi_n3.json").open() as fh:
        doc = json.load(fh)
    doc["matrix"] = np.array(doc["matrix"], dtype=float)
    doc["eigenvalues_2digits"] = np.array(doc["eigenvalues_2digits"], dtype=float)
    return doc


# ---------------------------------------------------------------------------
# Rate envelopes


def default_start_pairs(model: ModelInstance, count: int, seed: int) -> list[tuple[int, int]]:
    """Heuristic worst-case start pairs for MC tail estimation.

    A hypercube gives its all-zeros vs all-ones pair; any other model, a
    mapping read from a file too, gives ``count`` pairs drawn by ``random.Random(seed)``.
    """
    if model.kind == "hypercube":
        return [hypercube_worst_pair(model.n_sites)]
    rng = random.Random(_checked_seed(seed))
    pairs = set()
    n = model.n
    while len(pairs) < min(count, n * (n - 1) // 2):
        x, y = rng.randrange(n), rng.randrange(n)
        if x != y:
            pairs.add((min(x, y), max(x, y)))
    return sorted(pairs)


def contraction_rate_check(
    model: ModelInstance, report: CoalescenceReport, m_grid: list[int]
) -> CheckResult:
    """Tails never exceed the model's envelope n_sites * exp(-m * rate / n_sites).

    ``report`` holds the model's tails at every m in the grid. An exact report
    is compared directly; a Monte Carlo report, which needs samples >= 1000,
    must keep its CI upper bound below the envelope. A nonpositive rate makes
    every envelope value >= n_sites and the check is reported vacuous.
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

    mc = report.mode == "monte_carlo"
    if mc and (report.samples is None or report.samples < 1_000):
        raise InvalidInputError("MC mode requires samples >= 1000")
    ci_half = dict(zip(report.m_values.tolist(), report.ci_half.tolist())) if mc else {}
    rows = [(m, report.tail_at(m) + ci_half.get(m, 0.0), envelope[m]) for m in grid]
    margin = 0.0 if mc else ATOL_COMPUTED

    worst = max((tail - env for _, tail, env in rows), default=-np.inf)
    passed = worst <= margin
    return CheckResult(
        name="contraction_rate",
        passed=passed,
        lhs=worst,
        rhs=0.0,
        tolerance=margin,
        details={
            "mode": report.mode,
            "rate": model.rate,
            "rows": [
                {"m": m, "tail": tail, "envelope": env} for m, tail, env in rows
            ],
        },
    )

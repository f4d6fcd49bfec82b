"""The single-site-update builder against the three per-family builders it
replaced, bit for bit.

The reference builders below are the earlier ``hypercube_model``,
``colorings_model`` and ``hardcore_model`` verbatim, except that they return a
``SimpleNamespace`` (``ModelInstance`` has no ``state_labels`` field any
more) and read neighbours from ``_Graph.neighbors``, the method
``GraphSpec`` used to have.

Then the enumeration by prefixes against the filter over all q ** n codes it
replaced, whose table ``ref_arange_table`` rebuilds: bit for bit on every
bundled family and on drawn graphs, and a tracemalloc bound on the
hardcore-path20 build.
"""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoupling.chain import Distribution, TransitionMatrix
from qcoupling.cli import resolve_model
from qcoupling.coupling import EXACT_GUARD_N, RandomMappingRep, induced_entries
from qcoupling.errors import GuardExceededError, InvalidInputError
from qcoupling.models import (
    ENUMERATION_GUARD,
    GraphSpec,
    colorings_model,
    complete_graph,
    hardcore_model,
    hypercube_model,
    path_graph,
)


class _Graph(GraphSpec):
    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out


def _graph(g: GraphSpec) -> _Graph:
    return _Graph(g.n, g.edges)


def ref_hypercube_model(n: int):
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
    chain = None
    if n_states <= EXACT_GUARD_N:
        chain = TransitionMatrix(
            labels,
            induced_entries(table, probs),
        )
    rmr = RandomMappingRep(base=chain, r_labels=tuple(r_labels), probs=probs, table=table)
    return SimpleNamespace(
        kind="hypercube",
        state_labels=labels,
        rmr=rmr,
        chain=chain,
        pi=Distribution(np.full(n_states, 1.0 / n_states)),
        n_sites=n,
        rate=1.0,  # coupon-collector envelope n * exp(-m / n)
    )


def ref_colorings_model(g: _Graph, q: int):
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
    chain = (
        TransitionMatrix(tuple("".join(map(str, x)) for x in states), induced_entries(table, probs))
        if n_states <= EXACT_GUARD_N
        else None
    )
    rmr = RandomMappingRep(base=chain, r_labels=tuple(r_labels), probs=probs, table=table)
    return SimpleNamespace(
        kind="colorings",
        state_labels=tuple("".join(map(str, x)) for x in states),
        rmr=rmr,
        chain=chain,
        pi=Distribution(np.full(n_states, 1.0 / n_states)),
        n_sites=g.n,
        rate=1.0 - 3.0 * g.max_degree / q,  # c_met(Delta, q)
    )


def ref_hardcore_model(g: _Graph, lam: float):
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
        if n_states <= EXACT_GUARD_N
        else None
    )
    rmr = RandomMappingRep(base=chain, r_labels=tuple(r_labels), probs=probs, table=table)
    return SimpleNamespace(
        kind="hardcore",
        state_labels=tuple("".join(map(str, x)) for x in states),
        rmr=rmr,
        chain=chain,
        pi=pi,
        n_sites=g.n,
        rate=(1.0 + lam * (1.0 - g.max_degree)) / (1.0 + lam),  # c_H(lambda)
    )


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_same_model(got, want):
    _same_bits(got.rmr.table, want.rmr.table)
    _same_bits(got.rmr.probs, want.rmr.probs)
    assert got.rmr.r_labels == want.rmr.r_labels
    _same_bits(got.pi.weights, want.pi.weights)
    assert (got.chain is None) == (want.chain is None)
    if want.chain is not None:
        _same_bits(got.chain.entries, want.chain.entries)
        assert got.chain.labels == want.chain.labels
    assert got.n == len(want.state_labels)
    _same_bits(np.float64(got.rate), np.float64(want.rate))
    assert (got.kind, got.n_sites) == (want.kind, want.n_sites)


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return _Graph(n, tuple(p for p, keep in zip(pairs, chosen) if keep))


FUGACITIES = (0.3, 0.5, 1.0, 2.0, 3.7)


@pytest.mark.parametrize("n", range(1, 15))
def test_hypercube(n):
    assert_same_model(hypercube_model(n), ref_hypercube_model(n))


@pytest.mark.parametrize("n", [10, 14])
@pytest.mark.parametrize("lam", FUGACITIES)
def test_hardcore_path(n, lam):
    g = path_graph(n)
    assert_same_model(hardcore_model(g, lam), ref_hardcore_model(_graph(g), lam))


@pytest.mark.parametrize("g, q", [
    (path_graph(6), 4),
    (complete_graph(3), 4),
    (GraphSpec(1, ()), 10),  # two-digit colours in the chain labels
    (GraphSpec(1, ()), 12),
])
def test_colorings(g, q):
    assert_same_model(colorings_model(g, q), ref_colorings_model(_graph(g), q))


@settings(max_examples=15, deadline=None)
@given(g=graphs(), extra=st.integers(0, 2))
def test_colorings_on_drawn_graphs(g, extra):
    q = g.max_degree + 2 + extra
    assert_same_model(colorings_model(g, q), ref_colorings_model(g, q))


@settings(max_examples=40, deadline=None)
@given(g=graphs(), lam=st.one_of(
    st.sampled_from(FUGACITIES),
    st.floats(min_value=1e-6, max_value=1e6),
))
def test_hardcore_on_drawn_graphs(g, lam):
    assert_same_model(hardcore_model(g, lam), ref_hardcore_model(g, lam))


# ---------------------------------------------------------------------------
# The enumeration by prefixes against the filter over all q ** n codes


def ref_arange_table(g: GraphSpec, q: int, values, edge_ok) -> np.ndarray:
    """The table as ``_single_site_model`` made it from all q ** n codes:
    filter them edge by edge, then look each moved code up in an index array
    of q ** n entries (-1 where a code is no state, which stays)."""
    place = [q ** (g.n - 1 - v) for v in range(g.n)]
    codes = np.arange(q**g.n, dtype=np.int64)
    for u, v in g.edges:
        codes = codes[edge_ok(codes // place[u] % q, codes // place[v] % q)]
    index = np.full(q**g.n, -1, dtype=np.int64)
    index[codes] = stay = np.arange(codes.size)
    table = np.empty((codes.size, g.n * len(values)), dtype=np.int64)
    for v, p in enumerate(place):
        cleared = codes - codes // p % q * p
        for j, k in enumerate(values):
            i = index[cleared + k * p]
            table[:, v * len(values) + j] = np.where(i < 0, stay, i)
    return table


def _hardcore_ok(a, b):
    return (a & b) == 0


@pytest.mark.parametrize("name, g, q, values, edge_ok", [
    *[(f"hypercube{n}", GraphSpec(n, ()), 2, (0, 1), None) for n in (1, 6, 12)],
    *[(f"hardcore-path{n}", path_graph(n), 2, (1, 0), _hardcore_ok) for n in (3, 10, 14, 20)],
    ("colorings-path6-q4", path_graph(6), 4, range(4), np.not_equal),
    ("colorings-k3-q4", complete_graph(3), 4, range(4), np.not_equal),
])
def test_enumeration_equals_arange_filter(name, g, q, values, edge_ok):
    model = resolve_model(name, SimpleNamespace(bias=0.5, fugacity=2.0))
    _same_bits(model.rmr.table, ref_arange_table(g, q, values, edge_ok))


@settings(max_examples=40, deadline=None)
@given(g=graphs(max_n=10))
def test_hardcore_enumeration_on_drawn_graphs(g):
    _same_bits(hardcore_model(g, 1.0).rmr.table, ref_arange_table(g, 2, (1, 0), _hardcore_ok))


@settings(max_examples=30, deadline=None)
@given(g=graphs(max_n=5), extra=st.integers(0, 1))
def test_colorings_enumeration_on_drawn_graphs(g, extra):
    q = g.max_degree + 2 + extra  # at most 7 ** 5 codes
    _same_bits(colorings_model(g, q).rmr.table, ref_arange_table(g, q, range(q), np.not_equal))


def test_hardcore_path20_builds_without_q_to_the_n_arrays():
    # 17,711 states out of 2^20 codes: the table is 5.4 MiB, and one int64
    # array over all codes is 8 MiB (the arange filter peaked at 33 MiB)
    tracemalloc.start()
    try:
        m = hardcore_model(path_graph(20), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.n == 17711
    assert peak < 7 * 2**20, f"peak {peak / 2**20:.1f} MiB"

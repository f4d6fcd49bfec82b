import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoupling
from conftest import random_ergodic_chain
from qcoupling.chain import (
    ATOL_INPUT,
    TransitionMatrix,
    chain_from_json_dict,
    chain_to_json_dict,
    distance_to_stationary,
    mixing_time,
    read_chain_json,
    stationary_distribution,
    validate_chain,
    _components_and_periods,
)
from qcoupling.errors import (
    InvalidInputError,
    NonErgodicError,
    ThresholdNotReachedError,
)


def two_state(a=0.3, b=0.4):
    # columns: Pr(0->.) = (1-a, a), Pr(1->.) = (b, 1-b)
    return TransitionMatrix(("0", "1"), np.array([[1 - a, b], [a, 1 - b]]))


class TestTransitionMatrix:
    def test_rejects_bad_column_sums(self):
        with pytest.raises(InvalidInputError, match="sums to"):
            TransitionMatrix(("a", "b"), np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInputError):
            TransitionMatrix(("a", "b"), np.array([[1.1, 0.5], [-0.1, 0.5]]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidInputError, match="unique"):
            TransitionMatrix(("a", "a"), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="shape"):
            TransitionMatrix(("a", "b", "c"), np.eye(2))

    def test_tolerates_1e13_colsum_error(self):
        m = np.array([[0.5, 0.5], [0.5, 0.5]]) + np.array([[1e-13, 0], [0, 0]])
        TransitionMatrix(("a", "b"), m)  # within the 1e-12 input tolerance

    def test_entries_are_read_only(self):
        # validate_chain relies on the construction checks staying true
        P = two_state()
        with pytest.raises(ValueError, match="read-only"):
            P.entries[0, 0] = 0.5


class TestValidateChain:
    def test_ergodic_chain(self):
        rep = validate_chain(two_state())
        assert rep.valid and rep.details["ergodic"]
        assert rep.details["period"] == 1

    def test_periodic_chain_detected(self):
        swap = TransitionMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = validate_chain(swap)
        assert not rep.valid
        assert rep.details["irreducible"]
        assert not rep.details["aperiodic"]
        assert rep.details["period"] == 2

    def test_reducible_chain_detected(self):
        rep = validate_chain(TransitionMatrix(("a", "b"), np.eye(2)))
        assert not rep.details["irreducible"]
        assert any("strong components" in issue for issue in rep.issues)


def _csgraph_components_and_periods(entries: np.ndarray):
    """Strong components by scipy's csgraph and each period by a BFS from the
    component's first state: the reference for _components_and_periods."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    n = entries.shape[0]
    n_comp, comp = connected_components(
        csr_array(entries > ATOL_INPUT), directed=True, connection="strong")
    adj = [np.nonzero(entries[:, j] > ATOL_INPUT)[0] for j in range(n)]
    periods = []
    for c in range(n_comp):
        root = int(np.nonzero(comp == c)[0][0])
        level, g, queue = {root: 0}, 0, [root]
        for u in queue:
            for v in map(int, adj[u]):
                if comp[v] != c:
                    continue
                if v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
                else:
                    g = np.gcd(g, level[u] + 1 - level[v])
        periods.append(abs(int(g)) or 1)
    return n_comp, comp, periods


def _assert_matches_csgraph(E: np.ndarray):
    n_comp, comp, periods = _csgraph_components_and_periods(E)
    got_n_comp, got_comp, got_periods = _components_and_periods(E)
    assert got_n_comp == n_comp
    for x in range(E.shape[0]):
        assert set(np.flatnonzero(got_comp == got_comp[x])) == set(np.flatnonzero(comp == comp[x]))
        assert got_periods[got_comp[x]] == periods[comp[x]]
    assert all(type(p) is int for p in got_periods)  # JSON writes them as it did


class TestStrongComponents:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    def test_property_matches_csgraph(self, n, seed, density):
        # disjoint cycles of random lengths (periodic components) plus random
        # extra edges; entries at ATOL_INPUT are not edges
        rng = np.random.Generator(np.random.Philox(seed))
        E = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
        order = rng.permutation(n)
        cuts = np.flatnonzero(rng.random(n - 1) < 0.3) + 1
        for cycle in np.split(order, cuts):
            E[np.roll(cycle, -1), cycle] = 0.5
        E[rng.random((n, n)) < 0.1] = ATOL_INPUT
        _assert_matches_csgraph(E)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(10, 60), seed=st.integers(0, 2**32 - 1),
           step=st.integers(1, 4), extra=st.integers(0, 4))
    def test_property_long_cycles_match_csgraph(self, n, seed, step, extra):
        # a few long cycles, most of a length divisible by ``step``, joined by
        # a few random edges: BFS levels run deep, and periodic components
        # meet in one component or feed into each other
        rng = np.random.Generator(np.random.Philox(seed))
        E = np.zeros((n, n))
        order = rng.permutation(n)
        cuts = [c for c in range(step, n, step) if rng.random() < 0.08]
        for cycle in np.split(order, cuts):
            E[np.roll(cycle, -1), cycle] = 0.5
        E[rng.integers(0, n, extra), rng.integers(0, n, extra)] = 0.25
        E[rng.integers(0, n, 3), rng.integers(0, n, 3)] = ATOL_INPUT
        _assert_matches_csgraph(E)

    def test_cli_jobs_never_load_scipy(self, tmp_path):
        # numpy alone: neither scipy nor scipy.sparse is loaded by the import
        # or after any job; a fresh interpreter runs the jobs in turn. The
        # import also leaves out numpy.random and OpenSSL's _hashlib (which
        # numpy.random loads through secrets; about 5 MB of RSS), unless
        # numpy's own import loads them, as older numpy releases do; that no
        # job loads them is tests/test_cli.py::TestImportFootprint's to check
        src = Path(qcoupling.__file__).resolve().parent.parent
        code = (
            "import contextlib, io, sys\n"
            "import numpy\n"
            "numpy_loads = set(sys.modules)\n"
            "import qcoupling.cli as cli\n"
            "def loaded(*more):\n"
            "    names = ('scipy', 'scipy.sparse', *more)\n"
            "    return [m for m in names if m in sys.modules and m not in numpy_loads]\n"
            "print('import', *loaded('numpy.random', '_hashlib'))\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv.split()) == 0, argv\n"
            "    print(argv.split()[0], *loaded())\n"
        )
        jobs = [
            "coalesce --model hypercube3 --mc --samples 1000 --seed 1 --m-grid 2 4",
            "model --model hypercube3",
            "dilate --model hypercube3",
            "coalesce --model hypercube3 --m-max 6",  # exact: the CSR pair operator
            "validate --model cycle5-prose",  # a coupling built from triplets
            "quantize --model hypercube3",
            "evolve --model hypercube3 --m-max 6",
            "verify --model hypercube2 --m-max 4",  # trace identity, N x N block identity
        ]
        out = subprocess.run(
            [sys.executable, "-c", code, *(f"{job} --out {tmp_path}" for job in jobs)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            check=True, timeout=120,
        )
        assert out.stdout.splitlines() == ["import"] + [job.split()[0] for job in jobs]


def _exact_stationary(P: TransitionMatrix) -> list[Fraction]:
    """pi in exact rational arithmetic for the chain with P's off-diagonal
    entries and each diagonal entry 1 minus its column's off-diagonal sum,
    the chain GTH elimination solves."""
    n = P.n
    A = [[Fraction(float(P.entries[i, j])) if i != j else Fraction(0) for j in range(n)]
         for i in range(n)]
    for j in range(n):
        A[j][j] = -sum(A[i][j] for i in range(n))
    A[-1] = [Fraction(1)] * n  # replace one balance equation by sum(pi) = 1
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p], b[c], b[p] = A[p], A[c], b[p], b[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [a - f * q for a, q in zip(A[r], A[c])]
                b[r] -= f * b[c]
    return [b[i] / A[i][i] for i in range(n)]


def _assert_small_relative_error(P: TransitionMatrix):
    pi = stationary_distribution(P).weights
    exact = _exact_stationary(P)
    worst = max(abs(Fraction(float(p)) - e) / e for p, e in zip(pi, exact))
    assert worst <= P.n * P.n * np.finfo(float).eps


class TestStationary:
    def test_two_state_closed_form(self):
        # pi = (b, a) / (a + b) for the two-state chain
        a, b = 0.3, 0.4
        pi = stationary_distribution(two_state(a, b))
        np.testing.assert_allclose(pi.weights, [b / (a + b), a / (a + b)], atol=1e-12)

    def test_fixed_point_residual(self):
        rng = np.random.Generator(np.random.Philox(3))
        for n in (2, 4, 6):
            P = random_ergodic_chain(n, rng)
            pi = stationary_distribution(P)
            assert np.max(np.abs(P.entries @ pi.weights - pi.weights)) <= 1e-10

    def test_rejects_non_ergodic(self):
        with pytest.raises(NonErgodicError):
            stationary_distribution(TransitionMatrix(("a", "b"), np.eye(2)))

    def test_tiny_entries_keep_relative_accuracy(self):
        # a chain sent back to state 0 with most of its mass: pi_5 is about 1e-6
        n = 6
        P = np.zeros((n, n))
        P[0] += 14 / 22
        P[np.arange(n), np.arange(n)] += 7 / 22
        P[(np.arange(n) + 1) % n, np.arange(n)] += 1 / 22
        chain = TransitionMatrix(tuple(str(i) for i in range(n)), P)
        assert stationary_distribution(chain).weights.min() < 2e-6
        _assert_small_relative_error(chain)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_property_relative_accuracy_over_scales(self, n, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        M = rng.random((n, n)) * 10.0 ** -rng.integers(0, 9, size=(n, n)) + 1e-9
        _assert_small_relative_error(
            TransitionMatrix(tuple(str(i) for i in range(n)), M / M.sum(axis=0)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_property_stationary_is_fixed(self, n, seed):
        P = random_ergodic_chain(n, np.random.Generator(np.random.Philox(seed)))
        pi = stationary_distribution(P)
        assert np.max(np.abs(P.entries @ pi.weights - pi.weights)) <= 1e-10


class TestDistances:
    def test_distance_decreases(self):
        P = two_state()
        d = [distance_to_stationary(P, m) for m in range(6)]
        assert all(d[i + 1] <= d[i] + 1e-12 for i in range(5))

    def test_mixing_time_is_first_crossing(self):
        P = two_state()
        t_q, t_e = mixing_time(P, 0.25), mixing_time(P, 0.01)
        assert 0 < t_q <= t_e
        for eps, t in ((0.25, t_q), (0.01, t_e)):
            assert distance_to_stationary(P, t) <= eps < distance_to_stationary(P, t - 1)

    def test_mixing_time_relation(self):
        P = two_state()
        t_q = mixing_time(P, 0.25)
        t_8 = mixing_time(P, 1 / 8)
        assert t_8 <= int(np.ceil(np.log2(8))) * t_q

    def test_threshold_not_reached(self):
        slow = TransitionMatrix(
            ("a", "b"), np.array([[1 - 1e-6, 1e-6], [1e-6, 1 - 1e-6]])
        )
        with pytest.raises(ThresholdNotReachedError) as exc:
            mixing_time(slow, 0.25, m_max=10)
        assert exc.value.best is not None


class TestChainJson:
    def test_roundtrip(self, tmp_path):
        P = two_state()
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_to_json_dict(P)))
        P2 = read_chain_json(path)
        assert P2.labels == P.labels
        np.testing.assert_array_equal(P2.entries, P.entries)

    def test_missing_field_diagnostic(self):
        with pytest.raises(InvalidInputError, match="missing field 'P'"):
            chain_from_json_dict({"labels": ["a"]})

    def test_ragged_rows_diagnostic(self):
        with pytest.raises(InvalidInputError, match="row 1 has length"):
            chain_from_json_dict({"labels": ["a", "b"], "P": [[1, 0], [0]]})

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"labels": [,]}')
        with pytest.raises(InvalidInputError, match="line 1"):
            read_chain_json(path)

    @pytest.mark.parametrize("body", [
        pytest.param(b'{"labels": ["a"], "P": [[' + b"1" * 5000 + b"]]}", marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")),
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["long-integer", "deep-nesting"])
    def test_parser_limits_name_path(self, tmp_path, body):
        # json.load raises ValueError and RecursionError here, not JSONDecodeError
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: cannot read: "):
            read_chain_json(path)

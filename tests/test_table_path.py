"""Differential tests: the table-driven exact path against the dense reference.

- the sparse pair operator built from the successor table against the
  4-tensor scatter it replaced, and against ``grand_coupling_matrix`` (bit
  for bit);
- verify's checks run on a random mapping against the same checks on its
  dense grand coupling and that coupling's similarity-route channel;
- the sparse Kraus superoperator and its certificate against the dense
  sum of Kronecker products and the blockwise residual;
- the Choi spectrum computed on the support against the full ``eigvalsh``;
- coupling files of either kind.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoupling import quantize
from qcoupling.chain import (
    ATOL_COMPUTED,
    TransitionMatrix,
    stationary_distribution,
    write_chain_json,
)
from qcoupling.cli import main, resolve_model
from qcoupling.coupling import (
    RandomMappingRep,
    check_tail_submultiplicativity,
    coalescence_tail_exact,
    grand_coupling_matrix,
    grand_coupling_operator,
    induced_entries,
    write_coupling_json,
)
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import (
    coalescence_trace_identity_check,
    evolve_trace,
    laplacian_preservation_check,
    main_theorem_check,
    qperp_bound_check,
    qsample,
    random_density,
)
from qcoupling.models import contraction_rate_check, load_counterexample_fixture
from qcoupling.quantize import (
    ChoiMatrix,
    KrausSet,
    Superoperator,
    c_star_superop,
    certify_kraus_cp,
    choi_matrix,
    kraus_from_grand,
    quantized_coupling,
    superop_from_kraus,
    unvec,
    vec,
    verify_cp,
)

# every bundled random-mapping model family, up to the N = 64 guard
BUNDLED = [
    "hypercube1", "hypercube2", "hypercube3", "hypercube4", "hypercube5", "hypercube6",
    "colorings-k3-q4", "colorings-k3-q5", "colorings-path2-q3", "colorings-path2-q4",
    "colorings-path3-q4", "hardcore-path2", "hardcore-path3", "hardcore-path5",
    "hardcore-path8",
]
CHECKED = ["hypercube3", "hypercube4", "hardcore-path3", "hardcore-path5",
           "colorings-k3-q4", "colorings-path2-q4"]
LHS_TOL = 1e-14


def _model(name, fugacity=2.0):
    return resolve_model(name, SimpleNamespace(bias=0.5, fugacity=fugacity))


@st.composite
def mappings(draw, ergodic=False):
    """Random tables and probabilities: zero probabilities, repeated successors
    (few distinct targets, duplicated columns) and unequal weights. An
    ``ergodic`` mapping also holds a lazy step and a cyclic shift with
    positive weight, so its chain is irreducible and aperiodic."""
    n = draw(st.integers(1, 6))
    n_r = draw(st.integers(1, 6))
    targets = draw(st.integers(1, n))
    columns = [draw(st.lists(st.integers(0, targets - 1), min_size=n, max_size=n))
               for _ in range(n_r)]
    if draw(st.booleans()):
        columns.append(columns[0])
    weights = draw(st.lists(st.integers(0, 7), min_size=len(columns), max_size=len(columns)))
    if ergodic:
        columns += [list(range(n)), [(x + 1) % n for x in range(n)]]
        weights += draw(st.lists(st.integers(1, 7), min_size=2, max_size=2))
    if sum(weights) == 0:
        weights[0] = 1
    table = np.array(columns, dtype=np.int64).T
    probs = np.array(weights, dtype=float) / sum(weights)
    base = TransitionMatrix(tuple(str(i) for i in range(n)), induced_entries(table, probs))
    return RandomMappingRep(base, tuple(str(r) for r in range(len(columns))), probs, table)


def _scatter_grand_coupling(rmr: RandomMappingRep) -> np.ndarray:
    """Independent dense construction: E[f(x, r), f(y, r), x, y] += Pr(r), r in order."""
    n = rmr.n
    E = np.zeros((n, n, n, n))
    x = np.arange(n)
    for r in range(rmr.n_r):
        succ = rmr.table[:, r]
        E[succ[:, None], succ[None, :], x[:, None], x[None, :]] += rmr.probs[r]
    return E.reshape(n * n, n * n)


def _assert_operator_matches_dense(rmr: RandomMappingRep):
    op = grand_coupling_operator(rmr)
    dense = _scatter_grand_coupling(rmr)
    full = op.toarray()
    assert np.array_equal(full, dense)
    assert np.array_equal(np.signbit(full), np.signbit(dense))
    assert grand_coupling_matrix(rmr).entries is op
    assert np.diff(op.T.indptr).max(initial=0) <= rmr.n_r  # nonzeros per column


# ---------------------------------------------------------------------------
# Table-built pair operator


class TestPairOperator:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bit_identical_on_bundled_models(self, name):
        _assert_operator_matches_dense(_model(name).rmr)

    def test_unequal_probs(self):
        _assert_operator_matches_dense(_model("hardcore-path5", fugacity=0.3).rmr)

    @settings(max_examples=150, deadline=None)
    @given(mappings())
    def test_property_bit_identical(self, rmr):
        _assert_operator_matches_dense(rmr)

    def test_is_the_matrix_of_c_star(self, hypercube3):
        dense = c_star_superop(hypercube3.coupling()).matrix.toarray()
        assert np.array_equal(c_star_superop(hypercube3.rmr).matrix.toarray(), dense)

    def test_needs_no_base_chain(self, hypercube3):
        rmr = hypercube3.rmr
        bare = RandomMappingRep(None, rmr.r_labels, rmr.probs, rmr.table)
        report = coalescence_tail_exact(bare, m_max=8)
        np.testing.assert_array_equal(
            report.per_pair, coalescence_tail_exact(rmr, m_max=8).per_pair)
        assert check_tail_submultiplicativity(bare, 2, 3).passed


# ---------------------------------------------------------------------------
# verify's checks: table path against the dense path


def _close(a, b):
    assert a.passed == b.passed
    assert abs(a.lhs - b.lhs) <= LHS_TOL
    if b.rhs is not None:
        assert abs(a.rhs - b.rhs) <= LHS_TOL


def _similarity_channel(m) -> Superoperator:
    """T quantized from the model's dense grand coupling, CP-verified by eigensolve."""
    T, _ = quantized_coupling(m.coupling(), m.pi)
    verify_cp(T)
    return T


class TestChecksAgree:
    @pytest.mark.parametrize("name", CHECKED)
    def test_tails(self, name):
        m = _model(name, fugacity=0.5)
        table = coalescence_tail_exact(m.rmr, m_max=30, expected_time=True)
        dense = coalescence_tail_exact(m.coupling(), m_max=30, expected_time=True)
        np.testing.assert_allclose(table.per_pair, dense.per_pair, rtol=0, atol=LHS_TOL)
        assert table.t_couple == dense.t_couple
        assert table.expected_time_truncation == dense.expected_time_truncation
        assert table.expected_time_max == pytest.approx(dense.expected_time_max, abs=1e-12)

    @pytest.mark.parametrize("name", CHECKED)
    def test_structural_checks(self, name):
        m = _model(name, fugacity=0.5)
        C, n = m.coupling(), m.rmr.n
        for x, y in [(0, n - 1), (n - 1, 0), (1 % n, 0)]:
            if x != y:
                _close(laplacian_preservation_check(m.rmr, x, y),
                       laplacian_preservation_check(C, x, y))
        _close(coalescence_trace_identity_check(m.rmr, 10),
               coalescence_trace_identity_check(C, 10))
        _close(check_tail_submultiplicativity(m.rmr, 2, 3),
               check_tail_submultiplicativity(C, 2, 3))

    @pytest.mark.parametrize("name", ["hypercube3", "hardcore-path3", "colorings-path2-q4"])
    def test_contraction_rate(self, name):
        m = _model(name, fugacity=0.5).instance
        grid = [m.n_sites * k for k in range(1, 8)]
        res = contraction_rate_check(m, grid, mode="exact")
        dense = coalescence_tail_exact(m.coupling(), m_max=max(grid))
        worst = max(dense.tail_at(g) - m.n_sites * math.exp(-g * m.rate / m.n_sites)
                    for g in grid)
        assert res.passed == (worst <= ATOL_COMPUTED)
        assert abs(res.lhs - worst) <= LHS_TOL

    @pytest.mark.parametrize("name", CHECKED)
    def test_channel_checks(self, name):
        m = _model(name, fugacity=0.5)
        T = superop_from_kraus(kraus_from_grand(m.rmr, m.pi))
        T_dense = _similarity_channel(m)
        table = coalescence_tail_exact(m.rmr, m_max=15)
        dense = coalescence_tail_exact(m.coupling(), m_max=15)
        rng = np.random.Generator(np.random.Philox(3))
        states = [random_density(m.rmr.n, rng) for _ in range(3)]
        _close(qperp_bound_check(T, m.pi, table, states, list(range(16))),
               qperp_bound_check(T_dense, m.pi, dense, states, list(range(16))))
        if table.t_couple is not None:
            _close(main_theorem_check(T, m.pi, table, states, [0.25]),
                   main_theorem_check(T_dense, m.pi, dense, states, [0.25]))
        a = evolve_trace(T, states[0], qsample(m.pi), 15, report=table)
        b = evolve_trace(T_dense, states[0], qsample(m.pi), 15, report=dense)
        np.testing.assert_allclose(a.trace_distance, b.trace_distance, rtol=0, atol=LHS_TOL)
        np.testing.assert_allclose(a.qperp_bound, b.qperp_bound, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Sparse Kraus superoperator and its certificate


def _dense_kraus_residual(S: np.ndarray, ops) -> float:
    """The blockwise residual the nonzero evaluation replaces."""
    n = ops[0].shape[0]
    kraus = np.stack(ops)
    flat = kraus.reshape(len(ops), n * n)
    choi = S.reshape(n, n, n, n).transpose(1, 3, 0, 2)
    total = 0.0
    for i in range(n):
        diff = choi[i] - (kraus[:, i, :].T @ flat).reshape(n, n, n)
        total += float(np.vdot(diff, diff))
    return math.sqrt(total)


def _isometry_kraus(n: int, n_r: int, seed: int) -> KrausSet:
    """Dense Kraus operators: the n x n blocks of a random (n_r n) x n isometry."""
    rng = np.random.Generator(np.random.Philox(seed))
    Q, _ = np.linalg.qr(rng.standard_normal((n_r * n, n)))
    return KrausSet(n, [Q[r * n:(r + 1) * n] for r in range(n_r)])


def _assert_superop_matches_dense(ks: KrausSet):
    S = superop_from_kraus(ks)
    dense = np.zeros((ks.dim**2, ks.dim**2))
    for T in ks.ops:
        dense += np.kron(T, T)
    assert np.array_equal(S.matrix.toarray(), dense)
    assert S.cp_status == "verified"
    tol = quantize._cp_tolerance(dense)
    assert (quantize._kraus_residual(S, ks.ops) <= tol) == (
        _dense_kraus_residual(dense, ks.ops) <= tol)


class TestSparseKraus:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_grand_kraus_equals_kron_sum(self, name, eigensolves):
        m = _model(name)
        ks = kraus_from_grand(m.rmr, m.pi)
        _assert_superop_matches_dense(ks)
        assert eigensolves == []
        per_row = np.diff(superop_from_kraus(ks).matrix.indptr)
        assert per_row.max() <= m.rmr.n_r

    @settings(max_examples=40, deadline=None)
    @given(mappings(ergodic=True))
    def test_property_grand_kraus(self, rmr):
        pi = stationary_distribution(rmr.base)
        _assert_superop_matches_dense(kraus_from_grand(rmr, pi))

    def test_small_pi_mapping(self):
        # KrausSet checks sum_r T_r^T T_r = I to 1e-10 and its diagonal at y
        # divides the stationarity residual by pi_y: this mapping (lazy step,
        # cyclic shift, most mass sent back to state 0) has min pi about 1e-6
        n = 6
        columns = [[0] * n, [0] * n, list(range(n)), [(x + 1) % n for x in range(n)]]
        table = np.array(columns, dtype=np.int64).T
        probs = np.array([7.0, 7.0, 7.0, 1.0]) / 22.0
        base = TransitionMatrix(tuple(str(i) for i in range(n)), induced_entries(table, probs))
        rmr = RandomMappingRep(base, ("0", "1", "2", "3"), probs, table)
        pi = stationary_distribution(base)
        assert pi.weights.min() < 2e-6
        _assert_superop_matches_dense(kraus_from_grand(rmr, pi))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), n_r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_property_dense_kraus_operators(self, n, n_r, seed):
        _assert_superop_matches_dense(_isometry_kraus(n, n_r, seed))

    @pytest.mark.parametrize("where", ["stored", "outside"])
    def test_corrupted_entry_reaches_eigensolve(self, hypercube2, eigensolves, where):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        n = ks.dim
        S = superop_from_kraus(ks).matrix.toarray()  # it stores no zeros
        rows, cols = np.nonzero(S) if where == "stored" else np.nonzero(S == 0)
        p, q = rows[3], cols[3]
        # bump the entry and its mirror under the Choi transpose, so Choi(S)
        # stays symmetric and the eigensolve can decide
        for a, b in {(p, q), ((p % n) * n + p // n, (q % n) * n + q // n)}:
            S[a, b] += 1e-6
        bumped = Superoperator(ks.dim, S)
        ref = Superoperator(ks.dim, S.copy())
        verify_cp(ref)
        assert certify_kraus_cp(bumped, ks.ops) == ref.cp_status
        assert eigensolves == [bumped]

    def test_apply_matches_dense(self, hypercube3):
        T = superop_from_kraus(kraus_from_grand(hypercube3.rmr, hypercube3.pi))
        rho = random_density(8, np.random.Generator(np.random.Philox(1))).matrix
        np.testing.assert_allclose(
            T.apply(rho), unvec(T.matrix.toarray() @ vec(rho)), rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            T.apply(rho), kraus_from_grand(hypercube3.rmr, hypercube3.pi).apply(rho),
            rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Choi spectrum on its support


def _assert_spectrum_matches_full(J: np.ndarray):
    n2 = J.shape[0]
    n = math.isqrt(n2)
    got = ChoiMatrix(n, J).eigenvalues
    want = np.linalg.eigvalsh(0.5 * (J + J.T))
    scale = max(float(np.max(np.abs(J), initial=0.0)), 1e-300)
    assert got.shape == want.shape
    assert np.all(np.diff(got) >= 0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


class TestSupportSpectrum:
    @pytest.mark.parametrize("name", ["hypercube3", "hardcore-path4", "colorings-k3-q4",
                                      "cycle3-prose", "cycle5-printed"])
    def test_bundled_choi(self, name):
        C = _model(name).coupling()
        for order in ("map_first", "basis_first"):
            _assert_spectrum_matches_full(
                choi_matrix(c_star_superop(C), order=order).matrix.toarray())

    def test_counterexample_fixture(self):
        fx = load_counterexample_fixture()
        J = ChoiMatrix(3, fx["matrix"], order=fx["order"])
        _assert_spectrum_matches_full(fx["matrix"])
        assert round(float(J.eigenvalues[0]), 2) == -1.04
        assert not quantize.is_completely_positive(J)

    def test_zero_rows_give_exact_zeros(self):
        J = np.zeros((9, 9))
        J[np.ix_([1, 4], [1, 4])] = [[2.0, 1.0], [1.0, 2.0]]
        eigs = ChoiMatrix(3, J).eigenvalues
        np.testing.assert_allclose(eigs[-2:], [1.0, 3.0], rtol=0, atol=1e-15)
        assert np.all(eigs[:-2] == 0.0)

    def test_all_zero(self):
        assert np.all(ChoiMatrix(2, np.zeros((4, 4))).eigenvalues == 0.0)

    def test_asymmetry_in_zero_row_pattern_raises(self):
        # row 1 and column 0 are zero; J[0, 1] has no mirror entry
        J = np.eye(4)
        J[0, 0] = J[1, 1] = 0.0
        J[0, 1] = 1.0
        with pytest.raises(InvalidInputError, match="asymmetric"):
            ChoiMatrix(2, J).eigenvalues

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           zero_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_property_matches_full_eigvalsh(self, n, seed, zero_share):
        rng = np.random.Generator(np.random.Philox(seed))
        G = rng.standard_normal((n * n, n * n))
        J = G + G.T
        zero = rng.random(n * n) < zero_share
        J[zero, :] = 0.0
        J[:, zero] = 0.0
        _assert_spectrum_matches_full(J)


# ---------------------------------------------------------------------------
# Coupling files: a mapping runs the table path, a dense matrix the dense one


class TestCouplingFiles:
    def _files(self, tmp_path, model, dense):
        chain, coupling = tmp_path / "chain.json", tmp_path / "coupling.json"
        write_chain_json(model.chain, chain)
        write_coupling_json(model.coupling() if dense else model.rmr, coupling)
        return ["--chain", str(chain), "--coupling", str(coupling)]

    @pytest.mark.parametrize("dense", [False, True])
    def test_coalesce_matches_named_model(self, hypercube3, tmp_path, dense):
        files = self._files(tmp_path, hypercube3, dense)
        assert main(["coalesce", *files, "--m-max", "12", "--out", str(tmp_path / "f")]) == 0
        assert main(["coalesce", "--model", "hypercube3", "--m-max", "12",
                     "--out", str(tmp_path / "m")]) == 0
        [a] = (tmp_path / "f").glob("*.csv")
        [b] = (tmp_path / "m").glob("*.csv")
        got = np.loadtxt(a, delimiter=",", skiprows=1)
        want = np.loadtxt(b, delimiter=",", skiprows=1)
        np.testing.assert_allclose(got, want, rtol=0, atol=LHS_TOL)

    def test_mapping_file_still_validates_and_quantizes(self, hypercube3, tmp_path):
        files = self._files(tmp_path, hypercube3, dense=False)
        assert main(["validate", *files, "--out", str(tmp_path / "v")]) == 0
        assert main(["quantize", *files, "--out", str(tmp_path / "q")]) == 0

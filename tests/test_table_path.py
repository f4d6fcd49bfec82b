"""Differential tests: the table-driven exact path against the dense reference.

- the sparse pair operator built from the successor table against the
  4-tensor scatter it replaced, and against ``grand_coupling_matrix`` (bit
  for bit);
- verify's checks run on a random mapping against the same checks on its
  dense grand coupling, the channel checks against references that run each
  state's orbit under that coupling's similarity-route channel;
- the Kraus superoperator built from the table against the dense sum of
  Kronecker products, its Gram-route CP verdict against verify_cp's
  eigensolve of the same matrix, and the gather ``KrausSet.apply`` against
  sum T rho T^T: bundled and hypothesis grand mappings and a mapping with
  min pi about 1e-6; a misrouted table column fails both;
- ``KrausSet.apply`` on a stack of matrices against each matrix alone (bit for
  bit), and the checks' stacked Kraus orbit against the superoperator's;
- the Choi spectrum computed on the support against the full ``eigvalsh``;
- a mapping's one T, built from its Kraus set, against the rescaled C* of
  its dense grand coupling: the same sparsity and entries within 1e-15;
- a mapping's C* and T Choi spectra from the |R| x |R| Gram matrix against
  the support eigensolve of the same maps built from the dense grand
  coupling: bundled and hypothesis mappings; ``verify_cp`` of a map with a
  table builds no Choi matrix;
- coupling files of either kind.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_kraus_ops,
    main_theorem_reference,
    mappings,
    qperp_bound_reference,
    reference_orbit,
    tail_rows,
)
from qcoupling import cli, quantize
from qcoupling.chain import (
    ATOL_COMPUTED,
    TransitionMatrix,
    chain_to_json_dict,
    stationary_distribution,
)
from qcoupling.cli import _quantize_summary, main, resolve_model
from qcoupling.coupling import (
    RandomMappingRep,
    check_tail_submultiplicativity,
    coalescence_tail_exact,
    coupling_to_json_dict,
    grand_coupling_matrix,
    grand_coupling_operator,
    induced_entries,
    rmr_to_json_dict,
)
from qcoupling.csr import Csr
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import (
    _orbit,
    coalescence_trace_identity_check,
    evolve_trace,
    laplacian_preservation_check,
    main_theorem_check,
    qperp_bound_check,
    qsample,
    random_density,
    start_state_rng,
    trace_distance,
)
from qcoupling.models import (
    ModelInstance,
    contraction_rate_check,
    load_counterexample_fixture,
)
from qcoupling.quantize import (
    ChoiMatrix,
    KrausSet,
    Superoperator,
    TableKraus,
    c_star_superop,
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
        np.testing.assert_array_equal(tail_rows(bare, 8), tail_rows(rmr, 8))
        np.testing.assert_array_equal(report.tail_max, coalescence_tail_exact(rmr, 8).tail_max)
        assert check_tail_submultiplicativity(bare, report, 2, 3).passed


# ---------------------------------------------------------------------------
# verify's checks: table path against the dense path


def _close(a, b):
    assert a.passed == b.passed
    assert abs(a.lhs - b.lhs) <= LHS_TOL
    if b.rhs is not None:
        assert abs(a.rhs - b.rhs) <= LHS_TOL


def _similarity_channel(m) -> Superoperator:
    """T quantized from the model's dense grand coupling, CP-verified by eigensolve."""
    T, _ = quantized_coupling(c_star_superop(m.coupling()), m.pi)
    verify_cp(T)
    return T


class TestChecksAgree:
    @pytest.mark.parametrize("name", CHECKED)
    def test_tails(self, name):
        m = _model(name, fugacity=0.5)
        table = coalescence_tail_exact(m.rmr, m_max=30)
        dense = coalescence_tail_exact(m.coupling(), m_max=30)
        np.testing.assert_allclose(tail_rows(m.rmr, 30), tail_rows(m.coupling(), 30),
                                   rtol=0, atol=LHS_TOL)
        np.testing.assert_allclose(table.tail_max, dense.tail_max, rtol=0, atol=LHS_TOL)
        assert table.t_couple == dense.t_couple

    @pytest.mark.parametrize("name", CHECKED)
    def test_structural_checks(self, name):
        m = _model(name, fugacity=0.5)
        C, n = m.coupling(), m.rmr.n
        for x, y in [(0, n - 1), (n - 1, 0), (1 % n, 0)]:
            if x != y:
                _close(laplacian_preservation_check(m.rmr, x, y),
                       laplacian_preservation_check(C, x, y))
        table, dense = coalescence_tail_exact(m.rmr, m_max=10), coalescence_tail_exact(C, m_max=10)
        _close(coalescence_trace_identity_check(m.rmr, table),
               coalescence_trace_identity_check(C, dense))
        _close(check_tail_submultiplicativity(m.rmr, table, 2, 3),
               check_tail_submultiplicativity(C, dense, 2, 3))

    @pytest.mark.parametrize("name", ["hypercube3", "hardcore-path3", "colorings-path2-q4"])
    def test_contraction_rate(self, name):
        m = _model(name, fugacity=0.5)
        grid = [m.n_sites * k for k in range(1, 8)]
        res = contraction_rate_check(m, coalescence_tail_exact(m.rmr, m_max=max(grid)), grid)
        dense = coalescence_tail_exact(m.coupling(), m_max=max(grid))
        worst = max(dense.tail_at(g) - m.n_sites * math.exp(-g * m.rate / m.n_sites)
                    for g in grid)
        assert res.passed == (worst <= ATOL_COMPUTED)
        assert abs(res.lhs - worst) <= LHS_TOL

    @pytest.mark.parametrize("name", CHECKED)
    def test_channel_checks(self, name):
        # the checks on the Kraus set and the table's tails against the same
        # checks run state by state on the similarity-route channel and the
        # dense coupling's tails
        m = _model(name, fugacity=0.5)
        ks = kraus_from_grand(m.rmr, m.pi)
        apply = _similarity_channel(m).apply
        table = coalescence_tail_exact(m.rmr, m_max=15)
        dense = coalescence_tail_exact(m.coupling(), m_max=15)
        rng = start_state_rng(3)
        states = [random_density(m.rmr.n, rng) for _ in range(3)]
        _close(qperp_bound_check(ks, m.pi, table, states, list(range(16))),
               qperp_bound_reference(apply, m.pi, dense, states, list(range(16))))
        if table.t_couple is not None:
            _close(main_theorem_check(ks, m.pi, table, states, [0.25]),
                   main_theorem_reference(apply, m.pi, dense, states, [0.25]))
        a = evolve_trace(ks, states[0], m.pi, 15, report=table)
        Q = qsample(m.pi).projector
        want = [trace_distance(rho, Q) for rho in reference_orbit(apply, states[0].matrix, 15)]
        np.testing.assert_allclose(a.trace_distance, want, rtol=0, atol=LHS_TOL)
        bound = np.array([dense.tail_at(k) for k in range(16)]) / m.pi.weights.min()
        np.testing.assert_allclose(a.qperp_bound, bound, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Sparse Kraus superoperator and its CP verdict


def _assert_matches_dense(ks: KrausSet, seed: int = 0):
    """superop_from_kraus and KrausSet.apply against the dense operators."""
    ops = dense_kraus_ops(ks)
    S = superop_from_kraus(ks)
    dense = Csr.from_dense(sum(np.kron(T, T) for T in ops))
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(S.matrix, name), getattr(dense, name)), name
    # the Gram-route verdict against the eigensolve of the same matrix
    assert verify_cp(S) is verify_cp(Superoperator(ks.dim, dense)) is True
    rho = random_density(ks.dim, start_state_rng(seed)).matrix
    np.testing.assert_allclose(ks.apply(rho), sum(T @ rho @ T.T for T in ops),
                               rtol=0, atol=1e-14)


class TestSparseKraus:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_grand_kraus_equals_kron_sum(self, name, eigensolves):
        m = _model(name)
        ks = kraus_from_grand(m.rmr, m.pi)
        _assert_matches_dense(ks, seed=len(name))
        assert eigensolves == []
        per_row = np.diff(superop_from_kraus(ks).matrix.indptr)
        assert per_row.max() <= m.rmr.n_r

    @settings(max_examples=40, deadline=None)
    @given(mappings(ergodic=True))
    def test_property_grand_kraus(self, rmr):
        pi = stationary_distribution(rmr.base)
        _assert_matches_dense(kraus_from_grand(rmr, pi))

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
        _assert_matches_dense(kraus_from_grand(rmr, pi))
        summary = _quantize_summary(ModelInstance("file", base, rmr=rmr, name="small-pi"))[1]
        assert summary["trace_preserving"] and summary["fixed_point_holds"]
        assert summary["channel_cp"] and summary["cp"]

    @pytest.mark.parametrize("name", ["hypercube3", "hardcore-path5", "colorings-path3-q4"])
    def test_misrouted_column_fails(self, name):
        # a mutant table whose column 0 sends every state one further
        m = _model(name)
        ks = kraus_from_grand(m.rmr, m.pi)
        table = ks.table.copy()
        table[:, 0] = (table[:, 0] + 1) % ks.dim
        mutant = TableKraus(ks.probs, table, ks.weights)  # unchecked: no Kraus condition
        ops = dense_kraus_ops(ks)
        dense = sum(np.kron(T, T) for T in ops)
        assert not np.array_equal(superop_from_kraus(mutant).matrix.toarray(), dense)
        rho = random_density(ks.dim, start_state_rng(2)).matrix
        want = sum(T @ rho @ T.T for T in ops)
        assert np.abs(KrausSet.apply(mutant, rho) - want).max() > 1e-6

    def test_cancelling_products_are_not_stored(self):
        # complete dephasing: two identity routes with amplitudes (1, 1) and
        # (1, -1) over sqrt(2), whose products cancel off the diagonal
        ks = KrausSet([0.5, 0.5], [[0, 0], [1, 1]], [[1.0, 1.0], [1.0, -1.0]])
        _assert_matches_dense(ks)
        assert superop_from_kraus(ks).matrix.nnz == 2

    def test_apply_matches_dense(self, hypercube3):
        T = superop_from_kraus(kraus_from_grand(hypercube3.rmr, hypercube3.pi))
        rho = random_density(8, start_state_rng(1)).matrix
        np.testing.assert_allclose(
            T.apply(rho), unvec(T.matrix.toarray() @ vec(rho)), rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            T.apply(rho), kraus_from_grand(hypercube3.rmr, hypercube3.pi).apply(rho),
            rtol=0, atol=1e-15)


def _assert_stack_matches_each(ks: KrausSet, seed: int = 0):
    """A (2, 3, N, N) stack through KrausSet.apply gives each matrix the bits it
    gets on its own, and those are the bits of the index-grid gather
    sum_r M[ix_(f_r, f_r)] * a_r[:, None] * a_r."""
    rng = start_state_rng(seed)
    stack = np.stack([random_density(ks.dim, rng).matrix for _ in range(6)])
    stack = stack.reshape(2, 3, ks.dim, ks.dim)
    out = ks.apply(stack)
    assert out.shape == stack.shape
    for idx in np.ndindex(2, 3):
        M = stack[idx]
        want = np.zeros(M.shape)
        for a, f in zip(ks.amplitudes.T, ks.table.T):
            want += M[np.ix_(f, f)] * a[:, None] * a
        assert np.array_equal(ks.apply(M), want)
        assert np.array_equal(out[idx], want)


class TestKrausOrbit:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_stack_equals_each_matrix(self, name):
        m = _model(name)
        _assert_stack_matches_each(kraus_from_grand(m.rmr, m.pi), seed=len(name))

    @settings(max_examples=40, deadline=None)
    @given(mappings(ergodic=True), st.integers(0, 2**32))
    def test_property_stack_equals_each_matrix(self, rmr, seed):
        pi = stationary_distribution(rmr.base)
        _assert_stack_matches_each(kraus_from_grand(rmr, pi), seed)

    @pytest.mark.parametrize("name", BUNDLED)  # N <= 64
    def test_orbit_equals_superoperator_orbit(self, name):
        # 30 steps of a stack of three states under the gather against each
        # state's orbit under the sparse matrix of the same Kraus set, within
        # 1e-15 or eps per step: on hypercube1 the matrix holds
        # a_r(x) a_r(y) = sqrt(1/2)^2 rounded up, and its orbit's entries, all
        # 1/2 from step 1, gain eps/2 a step (3.2e-15 at step 30)
        m = _model(name)
        ks = kraus_from_grand(m.rmr, m.pi)
        rng = start_state_rng(len(name))
        rho0s = [random_density(m.n, rng).matrix for _ in range(3)]
        apply = superop_from_kraus(ks).apply
        want = [reference_orbit(apply, rho0, 30) for rho0 in rho0s]
        for k, rhos in enumerate(_orbit(ks, np.stack(rho0s), 30)):
            tol = max(1e-15, k * np.finfo(float).eps)
            for i, rho in enumerate(rhos):
                assert np.abs(rho - want[i][k]).max() <= tol, (name, k, i)


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
        _assert_spectrum_matches_full(choi_matrix(c_star_superop(C)).matrix.toarray())

    def test_counterexample_fixture(self):
        fx = load_counterexample_fixture()
        J = ChoiMatrix(3, fx["matrix"])
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
# A mapping's two Choi spectra from the |R| x |R| Gram matrix


def _assert_gram_matches_support(table_map: Superoperator, dense_map: Superoperator,
                                 atol: float = 0.0):
    """The Gram spectrum of a map built from a table against the support
    eigensolve of the same map built from the dense grand coupling, whose
    entries agree within ``atol``."""
    assert table_map.kraus is not None and dense_map.kraus is None
    got, want = choi_matrix(table_map), choi_matrix(dense_map)
    assert got.kraus is table_map.kraus and want.kraus is None
    np.testing.assert_allclose(got.matrix.toarray(), want.matrix.toarray(), rtol=0, atol=atol)
    n2 = table_map.dim**2
    assert got.eigenvalues.shape == want.eigenvalues.shape == (n2,)
    assert np.all(np.diff(got.eigenvalues) >= 0)
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)
    # at most |R| nonzero eigenvalues; the rest are exact zeros
    assert np.count_nonzero(got.eigenvalues) <= len(table_map.kraus.probs)


def _assert_c_star_gram(rmr: RandomMappingRep):
    _assert_gram_matches_support(c_star_superop(rmr),
                                 c_star_superop(grand_coupling_matrix(rmr)))


def _assert_channel_gram(rmr: RandomMappingRep, pi):
    """The one T of a mapping, built from its Kraus set, against the rescaled
    C* of its dense grand coupling: the same sparsity, entries within 1e-15
    (measured 1.1e-16 at most), and the Gram spectrum against the support's."""
    T = superop_from_kraus(kraus_from_grand(rmr, pi))
    ref = quantized_coupling(c_star_superop(grand_coupling_matrix(rmr)), pi)[0]
    assert np.array_equal(T.matrix.indptr, ref.matrix.indptr)
    assert np.array_equal(T.matrix.indices, ref.matrix.indices)
    np.testing.assert_allclose(T.matrix.data, ref.matrix.data, rtol=0, atol=1e-15)
    _assert_gram_matches_support(T, ref, atol=1e-15)


class TestGramSpectrum:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_c_star(self, name):
        _assert_c_star_gram(_model(name).rmr)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_channel(self, name):
        m = _model(name)
        _assert_channel_gram(m.rmr, m.pi)

    @settings(max_examples=60, deadline=None)
    @given(mappings())
    def test_property_c_star(self, rmr):
        _assert_c_star_gram(rmr)

    @settings(max_examples=40, deadline=None)
    @given(mappings(ergodic=True))
    def test_property_channel(self, rmr):
        _assert_channel_gram(rmr, stationary_distribution(rmr.base))

    def test_more_values_than_choi_entries(self):
        # one state and three values, one of zero probability: G is the
        # rank-one 3 x 3 outer product of sqrt(Pr(r)), and only its largest
        # eigenvalue, 1, is J's single entry
        table = np.zeros((1, 3), dtype=np.int64)
        probs = np.array([0.25, 0.0, 0.75])
        base = TransitionMatrix(("0",), induced_entries(table, probs))
        rmr = RandomMappingRep(base, ("a", "b", "c"), probs, table)
        np.testing.assert_array_equal(choi_matrix(c_star_superop(rmr)).eigenvalues, [1.0])
        _assert_c_star_gram(rmr)

    def test_quantize_judges_both_maps_by_gram(self, monkeypatch):
        # quantize's C* and T carry the table; its CP verdicts and the
        # summary's spectrum are the Gram route's
        calls = []
        monkeypatch.setattr(cli, "verify_cp", lambda S: calls.append(S) or verify_cp(S))
        m = _model("hardcore-path5")
        J, summary = _quantize_summary(m)
        [T] = calls
        assert isinstance(T.kraus, KrausSet) and J.kraus is not None
        assert summary["cp"] and summary["channel_cp"]
        assert summary["choi_min_eigenvalue"] == 0.0
        assert summary["choi_eigenvalue_sum"] == pytest.approx(m.n, abs=1e-12)

    def test_table_map_builds_no_choi_matrix(self, monkeypatch):
        # verify_cp reads a table map's spectrum off its Gram matrix and its
        # tolerance off its own entries, so quantize builds only C*'s Choi matrix
        calls, build = [], quantize.choi_matrix
        for module in (quantize, cli):
            monkeypatch.setattr(module, "choi_matrix", lambda S: calls.append(S) or build(S))
        m = _model("hardcore-path5")
        T = superop_from_kraus(kraus_from_grand(m.rmr, m.pi))
        assert verify_cp(T) is True and calls == []
        _quantize_summary(m)
        [S] = calls
        assert S.matrix is c_star_superop(m.rmr).matrix


# ---------------------------------------------------------------------------
# Coupling files: a mapping runs the table path, a dense matrix the dense one


class TestCouplingFiles:
    def _files(self, tmp_path, model, dense):
        chain, coupling = tmp_path / "chain.json", tmp_path / "coupling.json"
        chain.write_text(json.dumps(chain_to_json_dict(model.chain)))
        doc = coupling_to_json_dict(model.coupling()) if dense else rmr_to_json_dict(model.rmr)
        coupling.write_text(json.dumps(doc))
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

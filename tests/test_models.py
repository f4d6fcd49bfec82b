import math

import numpy as np
import pytest

from conftest import coupling_4tensor, coupon_collector_tail, unstamped_grand_coupling
from qcoupling.chain import stationary_distribution
from qcoupling.coupling import (
    coalescence_tail_exact,
    coalescence_tail_mc,
    tail_vectors,
    validate_coupling,
)
from qcoupling.errors import GuardExceededError, InvalidInputError
from qcoupling.models import (
    GraphSpec,
    colorings_model,
    complete_graph,
    contraction_rate_check,
    cycle_coupling_model,
    hardcore_model,
    hypercube_model,
    hypercube_worst_pair,
    load_counterexample_fixture,
    path_graph,
)
from qcoupling.quantize import c_star_superop, choi_matrix


class TestGraphSpec:
    def test_path_and_complete(self):
        assert path_graph(5).max_degree == 2
        assert complete_graph(4).max_degree == 3

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(InvalidInputError, match="self-loop"):
            GraphSpec(2, ((0, 0),))
        with pytest.raises(InvalidInputError, match="duplicate"):
            GraphSpec(2, ((0, 1), (1, 0)))


class TestHypercube:
    def test_n1_chain(self):
        m = hypercube_model(1)
        np.testing.assert_allclose(m.chain.entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_n2_column_structure(self):
        # from state 00: stay 1/2, each of the two neighbors 1/4
        m = hypercube_model(2)
        col = m.chain.entries[:, 0]
        assert col[0] == pytest.approx(0.5)
        assert col[m.chain.index("01")] == pytest.approx(0.25)
        assert col[m.chain.index("10")] == pytest.approx(0.25)
        assert col[m.chain.index("11")] == 0.0

    def test_rmr_reproduces_chain(self, hypercube3):
        induced = hypercube3.rmr.induced_chain_entries()
        np.testing.assert_allclose(induced, hypercube3.chain.entries, atol=1e-12)

    def test_stationary_is_uniform(self, hypercube3):
        pi = stationary_distribution(hypercube3.chain)
        np.testing.assert_allclose(pi.weights, np.full(8, 1 / 8), atol=1e-10)

    def test_tails_match_coupon_collector(self, hypercube3):
        C = hypercube3.coupling()
        x, y = hypercube_worst_pair(3)
        for m, v in enumerate(tail_vectors(C, 12)):
            assert v[x * C.n + y] == pytest.approx(coupon_collector_tail(3, m), abs=1e-12)

    def test_large_instance_is_mc_only(self):
        m = hypercube_model(8)
        assert not m.exact and m.chain is None
        with pytest.raises(GuardExceededError):
            m.coupling()

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            hypercube_model(0)
        with pytest.raises(InvalidInputError):
            hypercube_model(21)


class TestCycleCoupling:
    def test_chain_is_lazy_biased_walk(self):
        chain, _ = cycle_coupling_model(5, p=0.7)
        col = chain.entries[:, 0]
        assert col[0] == pytest.approx(0.5)
        assert col[1] == pytest.approx(0.35)  # clockwise p/2
        assert col[4] == pytest.approx(0.15)  # counterclockwise q/2

    def test_prose_variant_is_valid_coupling(self):
        _, C = cycle_coupling_model(3, 0.5, variant="prose")
        assert validate_coupling(C).valid

    def test_printed_variant_flagged_and_doubled(self):
        _, C_prose = cycle_coupling_model(3, 0.5, variant="prose")
        _, C_print = cycle_coupling_model(3, 0.5, variant="printed")
        for n in (3, 5):  # no stochastic coupling: validation fails it, so it has no channel
            details = validate_coupling(cycle_coupling_model(n, 0.5, variant="printed")[1]).details
            assert not details["stochastic"] and not details["marginals"]
        Ep, Ed = coupling_4tensor(C_prose), coupling_4tensor(C_print)
        for x in range(3):
            for y in range(3):
                factor = 1.0 if x == y else 2.0
                np.testing.assert_allclose(
                    Ed[:, :, x, y], factor * Ep[:, :, x, y], atol=1e-15
                )

    def test_printed_choi_matches_fixture(self):
        _, C = cycle_coupling_model(3, 0.5, variant="printed")
        J = choi_matrix(c_star_superop(C))
        fx = load_counterexample_fixture()
        np.testing.assert_allclose(J.matrix.toarray(), fx["matrix"], atol=1e-15)
        np.testing.assert_allclose(
            np.round(np.sort(J.eigenvalues), 2), fx["eigenvalues_2digits"], atol=1e-12
        )

    def test_prose_diag_blocks_match_printed(self):
        _, C_prose = cycle_coupling_model(3, 0.5, variant="prose")
        _, C_print = cycle_coupling_model(3, 0.5, variant="printed")
        Jp = choi_matrix(c_star_superop(C_prose)).matrix.toarray()
        Jd = choi_matrix(c_star_superop(C_print)).matrix.toarray()
        for x in range(3):
            np.testing.assert_allclose(
                Jp[3 * x : 3 * x + 3, 3 * x : 3 * x + 3],
                Jd[3 * x : 3 * x + 3, 3 * x : 3 * x + 3],
                atol=1e-15,
            )

    def test_prose_variant_also_not_cp(self):
        # settled empirically: the undoubled construction is non-CP as well
        _, C = cycle_coupling_model(3, 0.5, variant="prose")
        J = choi_matrix(c_star_superop(C))
        assert J.eigenvalues[0] < -1e-6

    def test_rejects_small_n_and_bad_variant(self):
        with pytest.raises(InvalidInputError):
            cycle_coupling_model(2, 0.5)
        with pytest.raises(InvalidInputError):
            cycle_coupling_model(3, 0.5, variant="other")


class TestColorings:
    def test_k3_q4_state_count(self, colorings_k3_q4):
        # chromatic polynomial of K3: q(q-1)(q-2) = 4*3*2 = 24
        assert colorings_k3_q4.n == 24
        np.testing.assert_allclose(
            colorings_k3_q4.pi.weights, np.full(24, 1 / 24), atol=1e-15
        )

    def test_rate_formula(self):
        m = colorings_model(path_graph(5), 7)
        assert m.rate == pytest.approx(1 - 3 * 2 / 7)  # c = 1 - 3*maxdeg/q

    def test_single_vertex_always_recolors(self):
        m = colorings_model(GraphSpec(1, ()), 2)
        assert m.n == 2
        # f(x, (v, k)) = k for every x: both table columns are constant
        np.testing.assert_array_equal(m.rmr.table[:, 0], [0, 0])
        np.testing.assert_array_equal(m.rmr.table[:, 1], [1, 1])

    def test_grand_coupling_valid(self, colorings_k3_q4):
        assert validate_coupling(unstamped_grand_coupling(colorings_k3_q4.rmr)).valid

    def test_ergodicity_guard(self):
        with pytest.raises(InvalidInputError, match="q >= max_degree"):
            colorings_model(complete_graph(3), 3)

    def test_large_space_is_mc_only(self):
        m = colorings_model(path_graph(5), 7)
        assert not m.exact and m.chain is None

    def test_enumeration_guard(self):
        # 7^8 = 5,764,801 configurations exceed ENUMERATION_GUARD before any is built
        with pytest.raises(GuardExceededError, match="7\\^8 = 5764801 configurations exceed the enumeration guard"):
            colorings_model(path_graph(8), 7)


class TestHardcore:
    def test_p3_stationary_oracle(self, hardcore_p3_lam2):
        # independent sets of the path 0-1-2: {}, {0}, {1}, {2}, {0,2}
        assert hardcore_p3_lam2.n == 5
        np.testing.assert_allclose(
            np.sort(hardcore_p3_lam2.pi.weights * 11), [1, 2, 2, 2, 4], atol=1e-12
        )

    def test_rate_formula(self, hardcore_p3_lam_half):
        assert hardcore_p3_lam_half.rate == pytest.approx(1 / 3)

    def test_single_vertex_lam1(self):
        m = hardcore_model(GraphSpec(1, ()), 1.0)
        assert m.n == 2
        np.testing.assert_allclose(m.pi.weights, [0.5, 0.5], atol=1e-15)

    def test_grand_coupling_valid(self, hardcore_p3_lam2):
        assert validate_coupling(unstamped_grand_coupling(hardcore_p3_lam2.rmr)).valid

    def test_rmr_reproduces_chain(self, hardcore_p3_lam_half):
        induced = hardcore_p3_lam_half.rmr.induced_chain_entries()
        np.testing.assert_allclose(
            induced, hardcore_p3_lam_half.chain.entries, atol=1e-12
        )

    def test_rejects_nonpositive_fugacity(self):
        with pytest.raises(InvalidInputError):
            hardcore_model(path_graph(2), 0.0)

    def test_enumeration_guard(self):
        with pytest.raises(GuardExceededError, match="2\\^21 = 2097152 configurations exceed the enumeration guard"):
            hardcore_model(path_graph(21), 1.0)


class TestContractionRate:
    def test_hypercube_exact_envelope(self, hypercube3):
        report = coalescence_tail_exact(hypercube3.rmr, m_max=12)
        res = contraction_rate_check(hypercube3, report, [3, 6, 9, 12])
        assert res.passed
        assert not res.details.get("vacuous", False)

    def test_hardcore_exact_envelope(self, hardcore_p3_lam_half):
        grid = list(range(3, 61, 3))
        report = coalescence_tail_exact(hardcore_p3_lam_half.rmr, m_max=max(grid))
        res = contraction_rate_check(hardcore_p3_lam_half, report, grid)
        assert res.passed
        # envelope is 3*exp(-m/9)
        row = res.details["rows"][0]
        assert row["envelope"] == pytest.approx(3 * math.exp(-row["m"] / 9))

    def test_negative_rate_vacuous(self, hardcore_p3_lam2):
        report = coalescence_tail_exact(hardcore_p3_lam2.rmr, m_max=6)
        res = contraction_rate_check(hardcore_p3_lam2, report, [3, 6])
        assert res.passed and res.details["vacuous"]

    def test_mc_mode_guards(self, hypercube3):
        report = coalescence_tail_mc(hypercube3.rmr, [(0, 7)], [3], samples=10, seed=0)
        with pytest.raises(InvalidInputError, match="samples"):
            contraction_rate_check(hypercube3, report, [3])


class TestFixture:
    def test_fixture_shape_and_symmetry(self):
        fx = load_counterexample_fixture()
        assert fx["matrix"].shape == (9, 9)
        assert fx["order"] == "basis_first"
        np.testing.assert_array_equal(fx["matrix"], fx["matrix"].T)
        assert set(np.unique(fx["matrix"])) == {0.0, 0.25, 0.5}

    def test_fixture_eigenvalues_self_consistent(self):
        fx = load_counterexample_fixture()
        eigs = np.sort(np.linalg.eigvalsh(fx["matrix"]))
        np.testing.assert_allclose(
            np.round(eigs, 2), fx["eigenvalues_2digits"], atol=1e-12
        )

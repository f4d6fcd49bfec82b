import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import main_theorem_reference, qperp_bound_reference
from qcoupling.chain import Distribution, stationary_distribution
from qcoupling.coupling import coalescence_tail_exact
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import (
    DensityMatrix,
    coalescence_trace_identity_check,
    edge_state,
    evolve_trace,
    gentle_measurement_step_check,
    laplacian_preservation_check,
    main_theorem_check,
    qperp_bound_check,
    qsample,
    random_density,
    rescaled_qperp_decomposition_check,
    start_state_rng,
    trace_distance,
    uniform_entries,
)
from qcoupling.models import cycle_coupling_model
from qcoupling.quantize import (
    KrausSet,
    Superoperator,
    c_star_superop,
    choi_matrix,
    kraus_from_grand,
    min_choi_eigenvalue,
    superop_from_kraus,
    verify_cp,
)


def channel_for(model):
    return kraus_from_grand(model.rmr, model.pi)


class TestStates:
    def test_density_matrix_validation(self):
        with pytest.raises(InvalidInputError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(InvalidInputError, match="symmetric"):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
        with pytest.raises(InvalidInputError, match="eigenvalue"):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**70), st.integers(min_value=1, max_value=40))
    def test_property_uniform_entries(self, seed, k):
        x = uniform_entries(start_state_rng(seed), (k,))
        assert x.shape == (k,) and np.all(x >= -1.0) and np.all(x < 1.0)
        assert np.array_equal(np.floor(x * 2.0**52), x * 2.0**52)  # multiples of 2**-52
        # each entry from its little-endian word in integer arithmetic
        raw = start_state_rng(seed).randbytes(8 * k)
        words = [int.from_bytes(raw[i:i + 8], "little") for i in range(0, 8 * k, 8)]
        assert x.tolist() == [(w >> 11) / 2**52 - 1 for w in words]
        assert np.array_equal(uniform_entries(start_state_rng(seed), (k,)), x)
        assert not np.array_equal(uniform_entries(start_state_rng(seed + 1), (k,)), x)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_property_random_density_is_a_state(self, n, seed):
        m = random_density(n, start_state_rng(seed)).matrix
        assert np.array_equal(m, m.T)
        assert np.linalg.eigvalsh(m)[0] >= -1e-12
        assert np.trace(m) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(random_density(n, start_state_rng(seed)).matrix, m)

    def test_qsample_amplitudes(self):
        pi = Distribution(np.array([0.25, 0.75]))
        q = qsample(pi)
        np.testing.assert_allclose(q.amplitudes, [0.5, np.sqrt(0.75)], atol=1e-15)
        np.testing.assert_allclose(q.projector + q.complement, np.eye(2), atol=1e-15)

    def test_trace_distance_basics(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(1.0)
        assert trace_distance(a, a) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_property_trace_distance_range(self, n, seed):
        rng = start_state_rng(seed)
        a, b = random_density(n, rng), random_density(n, rng)
        d = trace_distance(a, b)
        assert -1e-12 <= d <= 1.0 + 1e-12


class TestEvolveTrace:
    def test_monotone_and_converges(self, hypercube3):
        T = channel_for(hypercube3)
        report = coalescence_tail_exact(hypercube3.coupling(), m_max=25)
        rho0 = DensityMatrix(np.eye(8) / 8)
        trace = evolve_trace(T, rho0, hypercube3.pi, 25, report=report)
        assert np.all(np.diff(trace.trace_distance) <= 1e-10)
        assert trace.trace_distance[-1] < 0.05
        # csv has every column
        header = trace.to_csv().splitlines()[0]
        assert header == (
            "m,trace_distance,qperp_overlap,classical_tail_max,"
            "qperp_bound,theorem_envelope"
        )

    def test_requires_cp_verified(self, hypercube3):
        # a KrausSet is CP by construction, and no other channel is taken: not
        # the transpose map M -> M^T, positive and trace preserving but not CP
        # (its Choi matrix is the swap, with eigenvalue -1), and not the CP
        # matrix of the grand Kraus set
        k = np.arange(64)
        transpose = Superoperator(8, np.eye(64)[k % 8 * 8 + k // 8])
        rho = random_density(8, start_state_rng(0)).matrix
        np.testing.assert_array_equal(transpose.apply(rho), rho.T)
        assert verify_cp(transpose) is False
        T = superop_from_kraus(channel_for(hypercube3))
        assert verify_cp(T) is True
        for channel in (transpose, T):
            with pytest.raises(InvalidInputError, match="must be a KrausSet, not Superoperator"):
                evolve_trace(channel, DensityMatrix(np.eye(8) / 8), hypercube3.pi, 2)


class TestStructuralChecks:
    def test_laplacian_preservation_all_pairs(self, hypercube2):
        C = hypercube2.coupling()
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert laplacian_preservation_check(C, x, y).passed

    def test_laplacian_rejects_diagonal(self, hypercube2):
        with pytest.raises(InvalidInputError):
            laplacian_preservation_check(hypercube2.coupling(), 1, 1)

    def test_rescaled_decomposition(self, hardcore_p3_lam2):
        assert rescaled_qperp_decomposition_check(hardcore_p3_lam2.pi).passed

    def test_coalescence_trace_identity(self, hypercube2):
        for m in (0, 1, 3, 6):
            C = hypercube2.coupling()
            assert coalescence_trace_identity_check(C, coalescence_tail_exact(C, m_max=m)).passed

    def test_qperp_bound(self, hypercube3):
        T = channel_for(hypercube3)
        report = coalescence_tail_exact(hypercube3.coupling(), m_max=15)
        rng = start_state_rng(7)
        rho0s = [random_density(8, rng) for _ in range(10)]
        res = qperp_bound_check(T, hypercube3.pi, report, rho0s, list(range(16)))
        assert res.passed
        assert res.details["violations"] == 0


def _hypercube3_inputs(hypercube3):
    """hypercube3's exact report to m = 15 and ten seeded random states."""
    rng = start_state_rng(7)
    report = coalescence_tail_exact(hypercube3.coupling(), m_max=15)
    return report, [random_density(8, rng) for _ in range(10)]


def _identity_kraus(model):
    return KrausSet([1.0], np.arange(model.n)[:, None])


def _grand_kraus(model):
    return kraus_from_grand(model.rmr, model.pi)


class TestChannelCheckGates:
    """qperp_bound_check and main_theorem_check on failing channels, on other
    channel types, and against the checks run state by state on the Kraus
    set's superoperator matrix."""

    def test_identity_channel_fails_both(self, hypercube3):
        report, rho0s = _hypercube3_inputs(hypercube3)
        identity = _identity_kraus(hypercube3)
        res = qperp_bound_check(identity, hypercube3.pi, report, rho0s, list(range(16)))
        assert not res.passed
        assert res.details["violations"] > 0
        res = main_theorem_check(identity, hypercube3.pi, report, rho0s, [0.25, 0.04])
        assert not res.passed
        assert res.lhs > 0

    def test_non_cp_superoperator_refused_alike(self):
        # C* of the printed 3-cycle, whose Choi lambda_min is about -1.04,
        # with the exact tails of the prose 3-cycle on the same 3 states
        chain, printed = cycle_coupling_model(3, p=0.5, variant="printed")
        S = c_star_superop(printed)
        assert min_choi_eigenvalue(choi_matrix(S)) == pytest.approx(-1.04, abs=0.01)
        pi = stationary_distribution(chain)
        report = coalescence_tail_exact(cycle_coupling_model(3, p=0.5)[1], m_max=8)
        assert report.t_couple is not None  # main_theorem_check reaches its orbit
        rho0s = [DensityMatrix(np.eye(3) / 3)]
        for check in (lambda: evolve_trace(S, rho0s[0], pi, 2, report=report),
                      lambda: qperp_bound_check(S, pi, report, rho0s, [0, 1, 2]),
                      lambda: main_theorem_check(S, pi, report, rho0s, [0.25])):
            with pytest.raises(InvalidInputError, match="must be a KrausSet"):
                check()

    def test_vacuous_rows_match_direct_computation(self, hypercube3):
        report, rho0s = _hypercube3_inputs(hypercube3)
        ks = _grand_kraus(hypercube3)
        grid = list(range(16))
        res = qperp_bound_check(ks, hypercube3.pi, report, rho0s, grid)
        want = qperp_bound_reference(superop_from_kraus(ks).apply, hypercube3.pi, report,
                                     rho0s, grid)
        assert res.details["vacuous_rows"] == want.details["vacuous_rows"] == 80
        assert res.details["worst_ratio_incl_vacuous"] == pytest.approx(
            want.details["worst_ratio_incl_vacuous"], rel=1e-12)

    @pytest.mark.parametrize("kraus", [_identity_kraus, _grand_kraus])
    def test_kraus_set_matches_its_superoperator(self, hypercube3, kraus):
        report, rho0s = _hypercube3_inputs(hypercube3)
        ks = kraus(hypercube3)
        apply = superop_from_kraus(ks).apply
        for check, reference, arg in (
                (qperp_bound_check, qperp_bound_reference, list(range(16))),
                (main_theorem_check, main_theorem_reference, [0.25, 0.04])):
            got = check(ks, hypercube3.pi, report, rho0s, arg)
            want = reference(apply, hypercube3.pi, report, rho0s, arg)
            assert got.passed == want.passed
            assert abs(got.lhs - want.lhs) <= 1e-12
            assert got.details == pytest.approx(want.details, rel=0, abs=1e-12)


class TestGentleMeasurement:
    def test_holds_on_near_fixed_states(self, hypercube2):
        q = qsample(hypercube2.pi)
        for delta in (1e-4, 1e-3, 1e-2):
            rho = DensityMatrix((1 - delta) * q.projector + delta * np.eye(4) / 4)
            res = gentle_measurement_step_check(rho, q, eps=2 * delta)
            assert res.passed and res.details["precondition_holds"]

    def test_precondition_violation_reported_not_raised(self, hypercube2):
        q = qsample(hypercube2.pi)
        rho = DensityMatrix(np.eye(4) / 4)
        res = gentle_measurement_step_check(rho, q, eps=1e-6)
        assert not res.passed
        assert res.details["precondition_holds"] is False


class TestMainTheorem:
    def test_hypercube3_schedule(self, hypercube3):
        # t_couple = 7, pi_* = 1/8: eps 0.25 -> m=21, 0.04 -> 28, 0.01 -> 35
        report = coalescence_tail_exact(hypercube3.coupling(), m_max=10)
        assert report.t_couple == 7
        pi_star = 1 / 8
        for eps, m_expected in ((0.25, 21), (0.04, 28), (0.01, 35)):
            l = math.ceil(0.5 * math.log2(1 / (eps * pi_star)))
            assert l * report.t_couple == m_expected

    def test_bound_holds(self, hypercube3):
        T = channel_for(hypercube3)
        report = coalescence_tail_exact(hypercube3.coupling(), m_max=10)
        rng = start_state_rng(13)
        rho0s = [random_density(8, rng) for _ in range(5)]
        res = main_theorem_check(T, hypercube3.pi, report, rho0s, [0.25, 0.04])
        assert res.passed

    def test_one_orbit_per_state(self, hypercube3, monkeypatch):
        # acceptance criterion 05's inputs: 28 states, eps scheduled at m = 21,
        # 28, 35, run as one stacked orbit to m = 35
        ks = _grand_kraus(hypercube3)
        report = coalescence_tail_exact(hypercube3.coupling(), m_max=10)
        rng = start_state_rng(5)
        rho0s = [DensityMatrix(np.diag(np.eye(8)[i])) for i in range(8)]
        rho0s += [random_density(8, rng) for _ in range(20)]
        eps_list = [0.25, 0.04, 0.01]
        calls = []
        apply = KrausSet.apply

        def counted(self, M):
            calls.append(np.shape(M))
            return apply(self, M)

        monkeypatch.setattr(KrausSet, "apply", counted)
        res = main_theorem_check(ks, hypercube3.pi, report, rho0s, eps_list)
        assert calls == [(28, 8, 8)] * 35
        calls.clear()
        # a stack maps each matrix with its own bits, so the results are equal
        want = main_theorem_reference(ks.apply, hypercube3.pi, report, rho0s, eps_list)
        assert calls == [(8, 8)] * (28 * (21 + 28 + 35))
        assert res == want
        assert res.passed

    def test_eps_sharing_a_step_are_each_tested(self, hypercube3):
        # pi_* = 1/8 and t_couple = 7 put eps 0.25 and 0.26 both at m = 21. Under
        # the identity channel rho0 = (1 - d) Q + d I / 8 stays at halved trace
        # distance 7 d / 8 = 0.505 from Q: over sqrt(0.25), under sqrt(0.26).
        report = coalescence_tail_exact(hypercube3.coupling(), m_max=10)
        Q = qsample(hypercube3.pi).projector
        d = 0.505 * 8 / 7
        rho0s = [DensityMatrix((1 - d) * Q + d * np.eye(8) / 8)]
        identity = _identity_kraus(hypercube3)
        for eps_list in ([0.25, 0.26], [0.26, 0.25]):
            res = main_theorem_check(identity, hypercube3.pi, report, rho0s, eps_list)
            assert not res.passed
            assert res.lhs == pytest.approx(0.005, abs=1e-12)
            assert res == main_theorem_reference(identity.apply, hypercube3.pi, report,
                                                 rho0s, eps_list)

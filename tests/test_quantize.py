import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coupling_4tensor, random_ergodic_chain
from qcoupling.chain import Distribution, stationary_distribution
from qcoupling.coupling import CouplingMatrix, independent_coupling, swap_pair, validate_coupling
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import DensityMatrix, qsample, random_density, start_state_rng
from qcoupling.models import cycle_coupling_model
from qcoupling.quantize import (
    ChoiMatrix,
    KrausSet,
    c_star_superop,
    choi_matrix,
    independent_choi_structure_check,
    is_completely_positive,
    kraus_from_grand,
    min_choi_eigenvalue,
    quantized_coupling,
    superop_from_kraus,
    unvec,
    vec,
    verify_cp,
)


class TestVec:
    def test_column_stacking_convention(self):
        M = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(M), [1, 2, 3, 4])
        np.testing.assert_array_equal(unvec(vec(M)), M)

    def test_kron_identity(self):
        rng = np.random.Generator(np.random.Philox(2))
        A, M, B = (rng.standard_normal((3, 3)) for _ in range(3))
        np.testing.assert_allclose(
            vec(A @ M @ B), np.kron(B.T, A) @ vec(M), atol=1e-12
        )

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(InvalidInputError):
            unvec(np.zeros(5))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_property_roundtrip(self, n, seed):
        M = np.random.Generator(np.random.Philox(seed)).standard_normal((n, n))
        np.testing.assert_array_equal(unvec(vec(M)), M)


class TestCStar:
    def test_matrix_equals_coupling_entrywise(self, hypercube2):
        C = hypercube2.coupling()
        S = c_star_superop(C)
        np.testing.assert_allclose(S.matrix.toarray(), C.entries.toarray(), atol=1e-14)

    def test_dense_coupling_matrix_is_its_entries(self, hypercube2):
        for C in (hypercube2.coupling(), cycle_coupling_model(5, p=0.7)[1]):
            assert c_star_superop(C).matrix is C.entries

    def test_fields_are_frozen(self, hypercube2):
        S = c_star_superop(hypercube2.rmr)
        for name, value in (("dim", 3), ("matrix", S.matrix.T), ("kraus", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(S, name, value)

    def test_elementwise_definition(self, hypercube2):
        # S(E_xy) = sum_{x',y'} c_{(x'y'),(xy)} |x'><y'|, checked on matrix units
        C = hypercube2.coupling()
        S = c_star_superop(C)
        E4 = coupling_4tensor(C)
        n = C.n
        rng = np.random.Generator(np.random.Philox(0))
        for _ in range(5):
            x, y = rng.integers(0, n, size=2)
            unit = np.zeros((n, n))
            unit[x, y] = 1.0
            np.testing.assert_allclose(S.apply(unit), E4[:, :, x, y], atol=1e-14)

    def test_asymmetric_coupling_rejected(self, hypercube2):
        C = hypercube2.coupling()
        E = coupling_4tensor(C)
        x, y = 0, 1
        # an off-diagonal successor pair; a diagonal one would cancel out
        xps, yps = np.nonzero(E[:, :, x, y])
        xp, yp = next((a, b) for a, b in zip(xps, yps) if a != b)
        E[yp, xp, y, x] -= 0.01
        E[xp, yp, y, x] += 0.01
        bad = CouplingMatrix(base=C.base, entries=E.reshape(C.n**2, C.n**2))
        # four tied residuals; the first in C order is at (min, max, x, y)
        issue = (f"condition 3 (symmetry) violated at (x'={min(xp, yp)}, y'={max(xp, yp)}, "
                 f"x={x}, y={y}) by 0.01")
        assert issue in validate_coupling(bad).issues
        with pytest.raises(InvalidInputError, match=re.escape(issue + ";")):
            c_star_superop(bad)


class TestQuantizedCoupling:
    def test_trace_preservation_and_fixed_point(self, hardcore_p3_lam2):
        C = hardcore_p3_lam2.coupling()
        pi = hardcore_p3_lam2.pi
        T, T_star = quantized_coupling(c_star_superop(C), pi)
        n = pi.n
        np.testing.assert_allclose(T_star.apply(np.eye(n)), np.eye(n), atol=1e-10)
        Q = qsample(pi).projector
        np.testing.assert_allclose(T.apply(Q), Q, atol=1e-10)

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.0, 0.25, 0.25, 0.5]])
    def test_one_pi_guard(self, hypercube2, weights):
        # a pi of the wrong length or with a zero weight: one message from both
        pi = Distribution(np.array(weights))
        S = c_star_superop(hypercube2.coupling())
        for build in (lambda: quantized_coupling(S, pi),
                      lambda: kraus_from_grand(hypercube2.rmr, pi)):
            with pytest.raises(InvalidInputError, match="^pi must be 4 positive weights"):
                build()

    def test_adjoint_is_transpose(self, hypercube2):
        T, T_star = quantized_coupling(c_star_superop(hypercube2.coupling()), hypercube2.pi)
        np.testing.assert_array_equal(T.matrix.toarray(), T_star.matrix.T.toarray())

    def test_kraus_route_equals_superop_route(self, hypercube3):
        T, _ = quantized_coupling(c_star_superop(hypercube3.coupling()), hypercube3.pi)
        ks = kraus_from_grand(hypercube3.rmr, hypercube3.pi)
        T2 = superop_from_kraus(ks)
        np.testing.assert_allclose(T2.matrix.toarray(), T.matrix.toarray(), atol=1e-12)

    def test_kraus_route_nonuniform_pi(self, hardcore_p3_lam2):
        m = hardcore_p3_lam2
        T, _ = quantized_coupling(c_star_superop(m.coupling()), m.pi)
        ks = kraus_from_grand(m.rmr, m.pi)
        np.testing.assert_allclose(superop_from_kraus(ks).matrix.toarray(), T.matrix.toarray(),
                                   atol=1e-12)

    def test_kraus_condition_enforced(self):
        with pytest.raises(InvalidInputError, match="Kraus condition"):
            KrausSet([1.0, 1.0], [[0, 0], [1, 1]])

    @pytest.mark.parametrize("probs,table,weights,match", [
        ([1.0], [[0], [2]], None, "in range"),
        ([1.0], np.empty((2, 0), dtype=int), None, "nonempty"),
        ([-1.0, 2.0], [[0, 0], [1, 1]], None, "Pr"),
        ([np.nan], [[0], [1]], None, "Pr"),
        ([1.0], [[0], [1]], [1.0, 1.0], "weights"),
        ([1.0], [[0.5], [1.0]], None, "integer"),
    ])
    def test_malformed_table_rejected(self, probs, table, weights, match):
        with pytest.raises(InvalidInputError, match=match):
            KrausSet(probs, table, weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kraus_operator_rejected(self, hypercube2, bad):
        # a Kraus set is CP by construction only when its operators are
        # finite, so a non-finite operator must never enter one
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        weights = ks.weights.copy()
        weights[0, 0] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            KrausSet(ks.probs, ks.table, weights)

    def test_overflowing_kraus_condition_rejected(self):
        # finite amplitudes whose squares overflow: the condition holds inf
        with np.errstate(over="ignore"), \
                pytest.raises(InvalidInputError, match="Kraus condition"):
            KrausSet([1.0], [[0], [1]], [[1e200], [1.0]])

    def test_checked_set_is_read_only(self, hypercube2):
        # the Kraus condition holds for the life of the set
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        for arr in (ks.probs, ks.table, ks.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(AttributeError):
            ks.weights = None


class TestChoi:
    def test_orders_share_spectrum(self, hypercube2):
        # J is sum E_xy (x) S(E_xy); re-indexed by the pair swap it is the
        # map-first layout sum S(E_xy) (x) E_xy, with the same spectrum
        S = c_star_superop(hypercube2.coupling())
        n = S.dim
        units = [np.outer(np.eye(n)[x], np.eye(n)[y]) for x in range(n) for y in range(n)]
        J = choi_matrix(S)
        np.testing.assert_allclose(J.matrix.toarray(), sum(np.kron(E, S.apply(E)) for E in units),
                                   atol=1e-14)
        p = swap_pair(np.arange(n * n), n)
        J_mf = ChoiMatrix(n, J.matrix.toarray()[np.ix_(p, p)])
        np.testing.assert_allclose(J_mf.matrix.toarray(),
                                   sum(np.kron(S.apply(E), E) for E in units), atol=1e-14)
        np.testing.assert_allclose(J_mf.eigenvalues, J.eigenvalues, atol=1e-12)

    def test_choi_trace_equals_dimension(self):
        n = 3
        S = c_star_superop(
            independent_coupling(
                random_ergodic_chain(n, np.random.Generator(np.random.Philox(4)))
            )
        )
        # trace of the Choi equals sum_x tr S(E_xx) = sum of column sums = n
        J = choi_matrix(S)
        assert np.trace(J.matrix.toarray()) == pytest.approx(n, abs=1e-10)

    def test_grand_coupling_channel_is_cp(self, hypercube3):
        T, _ = quantized_coupling(c_star_superop(hypercube3.coupling()), hypercube3.pi)
        assert verify_cp(T) is True
        J = choi_matrix(T)
        assert min_choi_eigenvalue(J) >= -1e-9 * np.max(np.abs(J.matrix.toarray()))

    def test_asymmetric_choi_rejected(self):
        with pytest.raises(InvalidInputError, match="asymmetric"):
            ChoiMatrix(2, np.arange(16.0).reshape(4, 4)).eigenvalues


class TestIndependentCouplingCP:
    def test_seeded_random_chains(self):
        rng = np.random.Generator(np.random.Philox(21))
        for trial in range(20):
            n = int(rng.integers(2, 7))
            P = random_ergodic_chain(n, rng)
            C = independent_coupling(P)
            J = choi_matrix(c_star_superop(C))
            assert is_completely_positive(J)
            assert independent_choi_structure_check(P).passed

    def test_block_decomposition_detail(self):
        P = random_ergodic_chain(4, np.random.Generator(np.random.Philox(8)))
        res = independent_choi_structure_check(P)
        assert res.passed and res.details["diagonally_dominant"]
        assert res.lhs <= 1e-12


class TestApplyChannel:
    def test_cp_verified_returns_density(self, hypercube2):
        T, _ = quantized_coupling(c_star_superop(hypercube2.coupling()), hypercube2.pi)
        verify_cp(T)
        rho = random_density(4, start_state_rng(1))
        DensityMatrix(T.apply(rho.matrix))  # a state: symmetric, PSD, trace 1

    def test_kraus_channel_preserves_trace(self, hypercube2):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        rho = random_density(4, start_state_rng(2))
        assert np.trace(ks.apply(rho.matrix)) == pytest.approx(1.0, abs=1e-12)

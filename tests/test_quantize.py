import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coupling_4tensor, random_ergodic_chain
from qcoupling.chain import Distribution, stationary_distribution
from qcoupling.coupling import CouplingMatrix, independent_coupling
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import DensityMatrix, qsample, random_density
from qcoupling.quantize import (
    ChoiMatrix,
    KrausSet,
    apply_channel,
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
        with pytest.raises(InvalidInputError, match=r"symmetry condition by 0\.01;"):
            c_star_superop(bad)


class TestQuantizedCoupling:
    def test_trace_preservation_and_fixed_point(self, hardcore_p3_lam2):
        C = hardcore_p3_lam2.coupling()
        pi = hardcore_p3_lam2.pi
        T, T_star = quantized_coupling(C, pi)
        n = pi.n
        np.testing.assert_allclose(T_star.apply(np.eye(n)), np.eye(n), atol=1e-10)
        Q = qsample(pi).projector
        np.testing.assert_allclose(T.apply(Q), Q, atol=1e-10)

    def test_adjoint_is_transpose(self, hypercube2):
        T, T_star = quantized_coupling(hypercube2.coupling(), hypercube2.pi)
        np.testing.assert_array_equal(T.matrix.toarray(), T_star.matrix.T.toarray())

    def test_kraus_route_equals_superop_route(self, hypercube3):
        T, _ = quantized_coupling(hypercube3.coupling(), hypercube3.pi)
        ks = kraus_from_grand(hypercube3.rmr, hypercube3.pi)
        T2 = superop_from_kraus(ks)
        np.testing.assert_allclose(T2.matrix.toarray(), T.matrix.toarray(), atol=1e-12)

    def test_kraus_route_nonuniform_pi(self, hardcore_p3_lam2):
        T, _ = quantized_coupling(hardcore_p3_lam2.coupling(), hardcore_p3_lam2.pi)
        ks = kraus_from_grand(hardcore_p3_lam2.rmr, hardcore_p3_lam2.pi)
        np.testing.assert_allclose(superop_from_kraus(ks).matrix.toarray(), T.matrix.toarray(),
                                   atol=1e-12)

    def test_kraus_condition_enforced(self):
        with pytest.raises(InvalidInputError, match="Kraus condition"):
            KrausSet(dim=2, ops=[np.eye(2), np.eye(2)])


class TestChoi:
    def test_orders_share_spectrum(self, hypercube2):
        S = c_star_superop(hypercube2.coupling())
        J1 = choi_matrix(S, order="map_first")
        J2 = choi_matrix(S, order="basis_first")
        np.testing.assert_allclose(J1.eigenvalues, J2.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(J1.swapped().matrix.toarray(), J2.matrix.toarray(), atol=1e-14)

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
        T, _ = quantized_coupling(hypercube3.coupling(), hypercube3.pi)
        J = verify_cp(T)
        assert T.cp_status == "verified"
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
        T, _ = quantized_coupling(hypercube2.coupling(), hypercube2.pi)
        verify_cp(T)
        rho = random_density(4, np.random.Generator(np.random.Philox(1)))
        out = apply_channel(T, rho)
        assert isinstance(out, DensityMatrix)

    def test_unverified_returns_raw_matrix(self, hypercube2):
        T, _ = quantized_coupling(hypercube2.coupling(), hypercube2.pi)
        rho = random_density(4, np.random.Generator(np.random.Philox(1)))
        out = apply_channel(T, rho)  # cp_status still "unchecked"
        assert isinstance(out, np.ndarray)

    def test_kraus_channel_preserves_trace(self, hypercube2):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        rho = random_density(4, np.random.Generator(np.random.Philox(2)))
        out = apply_channel(ks, rho)
        assert np.trace(out.matrix) == pytest.approx(1.0, abs=1e-12)

import math

import numpy as np
import pytest

from qcoupling.dilation import (
    EXACT_ROTATION_ITERATIONS,
    amplify_and_extract,
    build_dilation,
    channel_via_dilation,
    dilation_route_check,
    sqrtm_psd,
    state_decomposition_check,
    unitary_completion,
)
from qcoupling.errors import GuardExceededError, InvalidInputError
from qcoupling.evolve import random_density
from qcoupling.quantize import KrausSet, kraus_from_grand


def swap_kraus_pair():
    """kappa = 2 channel mixing identity and a bit flip, each weight 1/2."""
    A0 = np.eye(2) / math.sqrt(2)
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2)
    return KrausSet(dim=2, ops=[A0, A1])


class TestSqrtmPsd:
    def test_square_of_root(self):
        rng = np.random.Generator(np.random.Philox(0))
        g = rng.standard_normal((4, 4))
        M = g @ g.T
        R = sqrtm_psd(M)
        np.testing.assert_allclose(R @ R, M, atol=1e-10)
        np.testing.assert_allclose(R, R.T, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError, match="not PSD"):
            sqrtm_psd(np.diag([1.0, -1.0]))


class TestUnitaryCompletion:
    def test_blocks(self):
        A = np.diag([0.5, 0.8])
        enc = unitary_completion(A)
        np.testing.assert_allclose(enc.A, A, atol=1e-14)
        np.testing.assert_allclose(
            enc.U.T @ enc.U, np.eye(4), atol=1e-12
        )
        np.testing.assert_allclose(enc.B, np.diag(np.sqrt([0.75, 0.36])), atol=1e-12)

    def test_unitary_input_gives_zero_b_block(self):
        enc = unitary_completion(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(enc.B, 0.0, atol=1e-12)

    def test_rejects_expansion(self):
        with pytest.raises(InvalidInputError, match="not a contraction"):
            unitary_completion(1.5 * np.eye(2))


class TestBuildDilation:
    def test_block_sum_identity_kappa1(self):
        ks = KrausSet(dim=2, ops=[np.array([[0.0, 1.0], [1.0, 0.0]])])
        circ = build_dilation(ks)
        assert circ.kappa == 1
        np.testing.assert_allclose(circ.encodings[0].B, 0.0, atol=1e-12)

    def test_block_sum_identity_hypercube(self, hypercube2):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        circ = build_dilation(ks)
        total = sum(enc.B.T @ enc.B for enc in circ.encodings)
        np.testing.assert_allclose(total, (circ.kappa - 1) * np.eye(4), atol=1e-9)

    def test_w_unitary_and_projector(self, hypercube2):
        circ = build_dilation(kraus_from_grand(hypercube2.rmr, hypercube2.pi))
        eye = np.eye(circ.total_dim)
        W = circ.controlled(eye)
        np.testing.assert_allclose(W.T @ W, eye, atol=1e-10)
        np.testing.assert_array_equal(circ.controlled(eye, transpose=True), W.T)
        P = circ.project_flag(eye)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)

    def test_dimension_guard(self, hypercube3):
        # kappa = 6, d = 8 is fine; force the guard with a tiny cap
        import qcoupling.dilation as dil

        ks = kraus_from_grand(hypercube3.rmr, hypercube3.pi)
        old = dil.DILATION_DIM_GUARD
        dil.DILATION_DIM_GUARD = 8
        try:
            with pytest.raises(GuardExceededError):
                build_dilation(ks)
        finally:
            dil.DILATION_DIM_GUARD = old


class TestStateDecomposition:
    def test_branch_amplitudes(self, hypercube2):
        circ = build_dilation(kraus_from_grand(hypercube2.rmr, hypercube2.pi))
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(10):
            xi = rng.standard_normal(4)
            xi /= np.linalg.norm(xi)
            res = state_decomposition_check(circ, xi)
            assert res.passed
            assert res.details["good_norm"] == pytest.approx(0.5, abs=1e-10)
            assert res.details["bad_norm"] == pytest.approx(
                math.sqrt(3) / 2, abs=1e-10
            )

    def test_kappa1_good_norm_one(self):
        circ = build_dilation(KrausSet(dim=2, ops=[np.eye(2)]))
        res = state_decomposition_check(circ, np.array([1.0, 0.0]))
        assert res.passed and res.details["good_norm"] == pytest.approx(1.0)


class TestAmplification:
    def test_kappa4_one_iteration_exact(self, hypercube2):
        circ = build_dilation(kraus_from_grand(hypercube2.rmr, hypercube2.pi))
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(5):
            xi = rng.standard_normal(4)
            xi /= np.linalg.norm(xi)
            _, fid = amplify_and_extract(circ, xi, 1)
            assert fid >= 1 - 1e-9

    def test_kappa1_zero_iterations(self):
        circ = build_dilation(KrausSet(dim=2, ops=[np.eye(2)]))
        _, fid = amplify_and_extract(circ, np.array([0.0, 1.0]), 0)
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_kappa2_sweep_follows_rotation(self):
        circ = build_dilation(swap_kraus_pair())
        theta = math.asin(1 / math.sqrt(2))
        xi = np.array([1.0, 0.0])
        for l in range(4):
            _, fid = amplify_and_extract(circ, xi, l)
            assert fid == pytest.approx(math.sin((2 * l + 1) * theta), abs=1e-10)


class TestChannelViaDilation:
    def test_postselect_matches_kraus(self, hypercube2):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        circ = build_dilation(ks)
        rng = np.random.Generator(np.random.Philox(6))
        for _ in range(5):
            res = dilation_route_check(circ, ks, random_density(4, rng))
            assert res.passed and res.lhs <= 1e-9
            assert res.details["acceptance_probability"] == pytest.approx(
                0.25, abs=1e-10
            )

    def test_amplified_matches_kraus(self, hypercube2):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        circ = build_dilation(ks)
        rng = np.random.Generator(np.random.Philox(7))
        res = dilation_route_check(circ, ks, random_density(4, rng), mode="amplified")
        assert res.passed and res.details["iterations"] == 1

    def test_amplified_rejected_for_inexact_kappa(self):
        circ = build_dilation(swap_kraus_pair())
        assert 2 not in EXACT_ROTATION_ITERATIONS
        rho = random_density(2, np.random.Generator(np.random.Philox(8)))
        with pytest.raises(InvalidInputError, match="exact-rotation"):
            channel_via_dilation(circ, rho, mode="amplified")

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import dense_kraus_ops, dilation_blocks, mappings, sqrtm_psd, unitary_completion
from qcoupling import coupling
from qcoupling.chain import stationary_distribution
from qcoupling.cli import main, resolve_model
from qcoupling.dilation import (
    EXACT_ROTATION_ITERATIONS,
    DilationCircuit,
    amplify_and_extract,
    build_dilation,
    channel_via_dilation,
    dilation_route_check,
    state_decomposition_check,
)
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import random_density, start_state_rng, uniform_entries
from qcoupling.quantize import KrausSet, TableKraus, kraus_from_grand

IDENTITY = KrausSet([1.0], [[0], [1]])
FLIP = KrausSet([1.0], [[1], [0]])


def swap_kraus_pair():
    """kappa = 2 channel mixing identity and a bit flip, each weight 1/2."""
    return KrausSet([0.5, 0.5], [[0, 1], [1, 0]])


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
    # the dense reference of the closed-form circuit

    def test_blocks(self):
        A = np.diag([0.5, 0.8])
        U = unitary_completion(A)
        np.testing.assert_allclose(U[:2, :2], A, atol=1e-14)
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(U[2:, :2], np.diag(np.sqrt([0.75, 0.36])), atol=1e-12)

    def test_unitary_input_gives_zero_b_block(self):
        U = unitary_completion(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(U[2:, :2], 0.0, atol=1e-12)

    def test_rejects_expansion(self):
        with pytest.raises(InvalidInputError, match="not a contraction"):
            unitary_completion(1.5 * np.eye(2))


class TestBuildDilation:
    def test_block_sum_identity_kappa1(self):
        circ = build_dilation(FLIP)
        assert circ.kappa == 1
        np.testing.assert_allclose(dilation_blocks(circ)[0, 2:, :2], 0.0, atol=1e-12)

    def test_block_sum_identity_hypercube(self, hypercube2):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        circ = build_dilation(ks)
        total = sum(U[4:, :4].T @ U[4:, :4] for U in dilation_blocks(circ))
        np.testing.assert_allclose(total, (circ.kappa - 1) * np.eye(4), atol=1e-9)
        np.testing.assert_allclose(circ.s.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    def test_w_unitary_and_projector(self, hypercube2):
        circ = build_dilation(kraus_from_grand(hypercube2.rmr, hypercube2.pi))
        eye = np.eye(circ.total_dim)
        W = circ.controlled(eye)
        np.testing.assert_allclose(W.T @ W, eye, atol=1e-10)
        np.testing.assert_array_equal(circ.controlled(eye, transpose=True), W.T)
        P = circ.project_flag(eye)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)

    def test_dimension_guard(self, tmp_path, monkeypatch):
        # dilate meets the byte guard before the Kraus set: on hypercube3
        # (kappa = 6, d = 8) the route batch holds 6 x 8^2 x 8 bytes, which
        # runs at a budget of exactly that and stops one byte under
        estimate = 6 * 8 * 8 * 8
        argv = ["dilate", "--model", "hypercube3"]
        monkeypatch.setattr(coupling, "BYTES_GUARD", estimate)
        assert main([*argv, "--out", str(tmp_path / "at")]) == 0
        monkeypatch.setattr(coupling, "BYTES_GUARD", estimate - 1)
        assert main([*argv, "--out", str(tmp_path / "under")]) == 3
        assert not (tmp_path / "under").exists()

    def test_zero_rows_and_operators(self):
        # a zero Kraus operator (a zero-probability column of a table) has
        # a = 0 in every row, and its U_k is [[0, I], [I, 0]]
        ks = KrausSet([0.0, 1.0], [[1, 0], [1, 1]])
        circ = build_dilation(ks)
        np.testing.assert_array_equal(circ.a[0], 0.0)
        np.testing.assert_array_equal(dilation_blocks(circ)[0], np.eye(4)[[2, 3, 0, 1]])

    @pytest.mark.parametrize("scale", [pytest.param(0.5, id="0.5-violated"),
                                       pytest.param(2.0, id="2.0-not a contraction")])
    def test_rejects_a_broken_kraus_list(self, hypercube2, scale):
        # operator 0 scaled by 1/2 breaks sum_k s_k = 1, and by 2 (s_0 = 2 on
        # its fibres) the contraction: KrausSet refuses both tables, and the
        # dilation takes nothing but a KrausSet, so not a bare TableKraus,
        # which has no Kraus condition of its own
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        weights = ks.weights.copy()
        weights[:, 0] *= scale
        with pytest.raises(InvalidInputError, match="Kraus condition"):
            KrausSet(ks.probs, ks.table, weights)
        with pytest.raises(InvalidInputError, match="needs a KrausSet, not TableKraus"):
            build_dilation(TableKraus(ks.probs, ks.table, weights))


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
        circ = build_dilation(IDENTITY)
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
        circ = build_dilation(IDENTITY)
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
        rng = start_state_rng(6)
        for _ in range(5):
            res = dilation_route_check(circ, ks, random_density(4, rng))
            assert res.passed and res.lhs <= 1e-9
            assert res.details["acceptance_probability"] == pytest.approx(
                0.25, abs=1e-10
            )

    def test_amplified_matches_kraus(self, hypercube2):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        circ = build_dilation(ks)
        rng = start_state_rng(7)
        res = dilation_route_check(circ, ks, random_density(4, rng), mode="amplified")
        assert res.passed and res.details["iterations"] == 1

    def test_amplified_rejected_for_inexact_kappa(self):
        circ = build_dilation(swap_kraus_pair())
        assert 2 not in EXACT_ROTATION_ITERATIONS
        rho = random_density(2, start_state_rng(8))
        with pytest.raises(InvalidInputError, match="exact-rotation"):
            channel_via_dilation(circ, rho, mode="amplified")


# ---------------------------------------------------------------------------
# The closed form against the dense completion

BUNDLED = [
    "hypercube2", "hypercube3", "hypercube6", "hardcore-path3", "hardcore-path5",
    "colorings-k3-q4", "colorings-path2-q4", "colorings-path3-q4",
]
TOL = 1e-13


def _kraus(name):
    m = resolve_model(name, SimpleNamespace(bias=0.5, fugacity=2.0))
    return kraus_from_grand(m.rmr, m.pi)


def _dense_blocks(ks):
    return np.stack([unitary_completion(T) for T in dense_kraus_ops(ks)])


def _circuit_from_rows(ks) -> DilationCircuit:
    """The circuit read off the rows of the dense operators: a row's one
    nonzero gives f and a, and a zero row a = 0 (at f = 0)."""
    ops = np.stack(dense_kraus_ops(ks))
    f = (ops != 0).argmax(axis=2)
    a = np.take_along_axis(ops, f[:, :, None], axis=2)[:, :, 0]
    s = np.stack([np.bincount(fk, weights=ak**2, minlength=ks.dim) for fk, ak in zip(f, a)])
    return DilationCircuit(f=f, a=a, s=s, mu=np.full(len(ops), 1.0 / math.sqrt(len(ops))))


def _blockwise(U, X):
    """sum_k |k><k| (x) U_k applied to the columns of X."""
    blocks = X.reshape(len(U), U.shape[1], -1)
    return np.matmul(U, blocks).reshape(X.shape)


def _dense_route(U, mu, rho, mode):
    """The dilation route through the dense U_k: rho's eigenvectors through
    W, G^l if amplified, and the flag-0 branch, renormalized if postselected."""
    kappa, d = len(U), U.shape[1] // 2
    w, V = np.linalg.eigh(rho.matrix)
    keep = w >= 1e-10
    lam, V = w[keep], V[:, keep]
    states = np.zeros((kappa, 2, d, V.shape[1]))
    states[:, 0] = mu[:, None, None] * V
    states = _blockwise(U, states.reshape(2 * kappa * d, -1))
    if mode == "amplified":
        eye = np.eye(2 * kappa * d)
        P = np.kron(np.eye(kappa), np.kron(np.diag([1.0, 0.0]), np.eye(d)))
        P0 = np.kron(np.outer(mu, mu), np.kron(np.diag([1.0, 0.0]), np.eye(d)))
        W = _blockwise(U, eye)
        G = -W @ (2 * P0 - eye) @ W.T @ (2 * P - eye)
        states = np.linalg.matrix_power(G, EXACT_ROTATION_ITERATIONS[kappa]) @ states
    good = states.reshape(kappa, 2, d, -1)[:, 0]
    if mode == "postselect":
        lam = lam / np.sum(good**2, axis=(0, 1))
    return np.einsum("kxb,kyb,b->xy", good, good, lam)


def _assert_matches_dense(ks, seed):
    circ = build_dilation(ks)
    U = _dense_blocks(ks)
    rng = start_state_rng(seed)
    # the circuit the rows of the dense operators give: the same a and s,
    # and the same f wherever a row has its nonzero
    rows = _circuit_from_rows(ks)
    np.testing.assert_array_equal(circ.a, rows.a)
    np.testing.assert_array_equal(circ.s, rows.s)
    np.testing.assert_array_equal(circ.mu, rows.mu)
    np.testing.assert_array_equal(np.where(rows.a != 0, circ.f, 0), rows.f)
    X = uniform_entries(rng, (circ.total_dim, 3))
    for transpose in (False, True):
        np.testing.assert_array_equal(circ.controlled(X, transpose), rows.controlled(X, transpose))
    for X in (uniform_entries(rng, (circ.total_dim,)),
              uniform_entries(rng, (circ.total_dim, 5))):
        np.testing.assert_allclose(circ.controlled(X), _blockwise(U, X), rtol=0, atol=TOL)
        np.testing.assert_allclose(circ.controlled(X, transpose=True),
                                   _blockwise(U.transpose(0, 2, 1), X), rtol=0, atol=TOL)
    # W on every basis state gives its columns: block-diagonal, each block
    # orthogonal and equal to the dense completion
    read = dilation_blocks(circ)
    np.testing.assert_allclose(read, U, rtol=0, atol=TOL)
    eye = np.eye(2 * circ.dim)
    for block in read:
        np.testing.assert_allclose(block.T @ block, eye, rtol=0, atol=TOL)
    xi = uniform_entries(rng, (circ.dim,))
    xi /= np.linalg.norm(xi)
    want = np.zeros((circ.kappa, 2, circ.dim))
    want[:, 0] = [T @ xi for T in dense_kraus_ops(ks)]
    want = want.reshape(-1)
    np.testing.assert_allclose(circ.good_state(xi), want / np.linalg.norm(want), rtol=0, atol=TOL)
    rho = random_density(circ.dim, rng)
    modes = ["postselect"] + (["amplified"] if circ.kappa in EXACT_ROTATION_ITERATIONS else [])
    for mode in modes:
        out, _ = channel_via_dilation(circ, rho, mode=mode)
        np.testing.assert_allclose(out.matrix, _dense_route(U, circ.mu, rho, mode),
                                   rtol=0, atol=TOL, err_msg=mode)


class TestClosedForm:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_mapping_matches_dense_completion(self, name):
        _assert_matches_dense(_kraus(name), seed=len(name))

    @settings(max_examples=60, deadline=None)
    @given(mappings(ergodic=True))
    def test_mapping_table_matches_dense_completion(self, rmr):
        _assert_matches_dense(kraus_from_grand(rmr, stationary_distribution(rmr.base)), seed=1)

    def test_swap_pair_matches_dense_completion(self):
        _assert_matches_dense(swap_kraus_pair(), seed=2)

    @pytest.mark.parametrize("name", ["hypercube3", "hardcore-path5", "colorings-path3-q4"])
    def test_fibre_missing_an_x_fails(self, name):
        # a mutant s_k(z) that leaves out one x of a fibre of two or more
        ks = _kraus(name)
        circ = build_dilation(ks)
        k, x = next((k, x) for k in range(circ.kappa) for x in range(circ.dim)
                    if circ.a[k, x] != 0 and np.sum(circ.f[k] == circ.f[k, x]) > 1)
        s = circ.s.copy()
        s[k, circ.f[k, x]] -= circ.a[k, x] ** 2
        mutant = dataclasses.replace(circ, s=s)
        X = np.random.Generator(np.random.Philox(4)).standard_normal((circ.total_dim, 3))
        U = _dense_blocks(ks)
        assert np.abs(mutant.controlled(X) - _blockwise(U, X)).max() > 1e-6
        block = dilation_blocks(mutant)[k]
        assert np.abs(block.T @ block - np.eye(2 * circ.dim)).max() > 1e-6
        assert np.abs(mutant.s.sum(axis=0) - 1.0).max() > 1e-6  # the block-sum identity

"""Differential tests: each fast path against the dense reference it replaces.

- the trace identity evolved with a sparse C* against the dense matmul;
- the CSR superoperators against the dense reshapes they replaced: the
  Choi scatter, the re-indexed C* of a dense coupling, the rescaled T*, and
  the congruence residual;
- the Kraus and congruence CP certificates against verify_cp's eigensolve;
- matrix_to_csv, and the Choi CSV that quantize writes: the dense matrix
  rebuilt from its triplets against the dense reference, bit for bit, and
  the text against a per-cell formatter on that reference;
- the forms that hold no N^4-sized temporary against the ones they replaced,
  bit for bit: the trace identity's edge-Laplacian panels against the full
  stack, the CSR ChoiMatrix against its dense matrix, validate_coupling's
  symmetry residual from the stored entries, the rescaled-Qperp scatter and
  emit_report's incremental digest; then tracemalloc bounds on the trace
  identity and the Choi spectrum at N = 64.
"""

import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import coupling_4tensor, random_ergodic_chain
from qcoupling import evolve, quantize
from qcoupling.chain import ATOL_COMPUTED, ATOL_INPUT, Distribution, TransitionMatrix
from qcoupling.cli import emit_report, main, resolve_model
from qcoupling.coupling import (
    CouplingMatrix,
    _offdiag_pairs,
    coalescence_tail_exact,
    independent_coupling,
    swap_pair,
    validate_coupling,
)
from qcoupling.csr import Csr
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import (
    coalescence_trace_identity_check,
    edge_laplacian_traces,
    edge_state,
)
from qcoupling.models import load_counterexample_fixture
from qcoupling.quantize import (
    ChoiMatrix,
    Superoperator,
    c_star_superop,
    certify_cp_by_congruence,
    certify_kraus_cp,
    choi_matrix,
    kraus_from_grand,
    matrix_to_csv,
    quantized_coupling,
    is_completely_positive,
    superop_from_kraus,
    vec,
    verify_cp,
)

# every bundled model family at N <= 27
RMR_MODELS = [
    "hypercube2", "hypercube3", "hypercube4", "colorings-k3-q4", "colorings-path2-q4",
    "hardcore-path3", "hardcore-path4", "hardcore-path5", "hardcore-path6",
]
DENSE_MODELS = ["cycle3-prose", "cycle5-prose"]


def _model(name, bias=0.5, fugacity=2.0):
    return resolve_model(name, SimpleNamespace(bias=bias, fugacity=fugacity))


def _reference_status(S: Superoperator) -> str:
    ref = Superoperator(S.dim, S.matrix)
    verify_cp(ref)
    return ref.cp_status


# ---------------------------------------------------------------------------
# Trace identity: sparse C* against the dense matmul


def _dense_reference_traces(S: np.ndarray, pairs, n: int, m: int) -> np.ndarray:
    """The evolution edge_laplacian_traces replaces: every ordered pair, dense matmul."""
    V = np.column_stack(
        [vec(np.outer(edge_state(x, y, n), edge_state(x, y, n))) for x, y in pairs]
    )
    trace_rows = np.arange(n) * (n + 1)
    out = np.empty((m + 1, len(pairs)))
    for k in range(m + 1):
        out[k] = V[trace_rows, :].sum(axis=0)
        if k < m:
            V = S @ V
    return out


def _assert_sparse_matches_dense(C: CouplingMatrix, m: int):
    report = coalescence_tail_exact(C, m_max=m)
    S = c_star_superop(C).matrix
    dense = _dense_reference_traces(S.toarray(), report.pairs, C.n, m)
    sparse = edge_laplacian_traces(S, report.pairs, C.n, m)
    np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-14)
    np.testing.assert_allclose(sparse, report.per_pair, rtol=0, atol=ATOL_COMPUTED)
    assert coalescence_trace_identity_check(C, m).passed


class TestSparseTraceIdentity:
    @pytest.mark.parametrize("name", RMR_MODELS + DENSE_MODELS)
    def test_bundled_models(self, name):
        _assert_sparse_matches_dense(_model(name, bias=0.7).coupling(), 10)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_independent_coupling(self, n, seed):
        P = random_ergodic_chain(n, np.random.Generator(np.random.Philox(seed)))
        _assert_sparse_matches_dense(independent_coupling(P), 6)


# ---------------------------------------------------------------------------
# CSR superoperators against the dense reshapes they replaced


def _reshape_choi(S: np.ndarray, n: int, order: str) -> np.ndarray:
    """Choi matrix by reshape and transpose: S's axes are (j, i, y, x)."""
    axes = (1, 3, 0, 2) if order == "map_first" else (3, 1, 2, 0)
    return S.reshape(n, n, n, n).transpose(axes).reshape(n * n, n * n)


def _swap_transpose(C: CouplingMatrix) -> np.ndarray:
    """matrix(C*) of a dense coupling by permuting the axes of its 4-tensor."""
    n = C.n
    return np.array(coupling_4tensor(C).transpose(1, 0, 3, 2), order="C").reshape(n * n, n * n)


def _row_block_t_star(C: CouplingMatrix, pi: Distribution) -> np.ndarray:
    """T* = D^{-1/2} C* D^{1/2} rescaled n rows at a time on the dense matrix."""
    n = C.n
    s = np.sqrt(np.outer(pi.weights, pi.weights)).reshape(-1, order="F")
    S = _swap_transpose(C)
    for i in range(0, n * n, n):
        S[i:i + n] *= s[None, :] / s[i:i + n, None]
    return S


def _blockwise_congruence_residual(T: np.ndarray, J: ChoiMatrix, k: np.ndarray) -> float:
    """||Choi_map_first(T) - K Choi_basis_first(C*) K||_F one block at a time."""
    n = J.dim
    k = k.reshape(n, n)  # K's diagonal at (i, x)
    choi_t = T.reshape(n, n, n, n).transpose(1, 3, 0, 2)  # axes (i, x, j, y)
    J4 = J.matrix.toarray().reshape(n, n, n, n)
    choi_c = J4 if J.order == "basis_first" else J4.transpose(1, 0, 3, 2)
    total = 0.0
    for b in range(n):
        diff = choi_c[b] * k
        diff *= k[b][:, None, None]
        np.subtract(choi_t[b], diff, out=diff)
        total += float(np.vdot(diff, diff))
    return float(np.sqrt(total))


def _assert_bit_identical(a: np.ndarray, b: np.ndarray):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _bundled_superops(name):
    """Every superoperator the pipeline builds for one bundled model."""
    m = _model(name, bias=0.7)
    C = m.coupling()
    out = [c_star_superop(C), _similarity_channel(C, m.pi)]
    if m.rmr is not None:
        out += [c_star_superop(m.rmr), superop_from_kraus(kraus_from_grand(m.rmr, m.pi))]
    return out


ALL_DENSE = DENSE_MODELS + ["cycle3-printed", "cycle5-printed"]


class TestCsrSuperoperators:
    @pytest.mark.parametrize("order", ["map_first", "basis_first"])
    @pytest.mark.parametrize("name", RMR_MODELS + ALL_DENSE)
    def test_choi_scatter_equals_reshape(self, name, order):
        for S in _bundled_superops(name):
            J = choi_matrix(S, order=order)
            _assert_bit_identical(J.matrix.toarray(), _reshape_choi(S.matrix.toarray(), S.dim, order))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
           order=st.sampled_from(["map_first", "basis_first"]))
    def test_property_choi_scatter_equals_reshape(self, n, seed, zero_share, order):
        rng = np.random.Generator(np.random.Philox(seed))
        M = rng.standard_normal((n * n, n * n))
        M[rng.random(M.shape) < zero_share] = 0.0
        J = choi_matrix(Superoperator(n, M), order=order)
        _assert_bit_identical(J.matrix.toarray(), _reshape_choi(M, n, order))

    def test_unknown_order_rejected(self, hypercube2):
        with pytest.raises(InvalidInputError, match="factor order"):
            choi_matrix(c_star_superop(hypercube2.rmr), order="diagonal")

    @pytest.mark.parametrize("bias", [0.5, 0.7])
    @pytest.mark.parametrize("name", RMR_MODELS + ALL_DENSE + ["cycle7-prose"])
    def test_c_star_equals_swap_transpose(self, name, bias):
        C = _model(name, bias=bias).coupling()
        S = c_star_superop(C).matrix
        _assert_bit_identical(S.toarray(), _swap_transpose(C))
        assert isinstance(S, Csr)  # canonical by construction

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_property_independent_coupling(self, n, seed):
        P = random_ergodic_chain(n, np.random.Generator(np.random.Philox(seed)))
        C = independent_coupling(P)
        _assert_bit_identical(c_star_superop(C).matrix.toarray(), _swap_transpose(C))

    @pytest.mark.parametrize("name", RMR_MODELS + DENSE_MODELS)
    def test_t_star_equals_row_block_rescaling(self, name):
        m = _model(name, bias=0.7)
        C = m.coupling()
        T, T_star = quantized_coupling(C, m.pi)
        ref = _row_block_t_star(C, m.pi)
        _assert_bit_identical(T_star.matrix.toarray(), ref)
        _assert_bit_identical(T.matrix.toarray(), ref.T)

    @pytest.mark.parametrize("order", ["basis_first", "map_first"])
    @pytest.mark.parametrize("name", RMR_MODELS + ALL_DENSE)
    def test_congruence_residual_equals_blockwise(self, name, order):
        m = _model(name, bias=0.7)
        C = m.coupling()
        J = choi_matrix(c_star_superop(C), order=order)
        T = _similarity_channel(C, m.pi)
        k = np.kron(np.sqrt(m.pi.weights), 1.0 / np.sqrt(m.pi.weights))
        np.testing.assert_allclose(
            quantize._congruence_residual(T, J, k),
            _blockwise_congruence_residual(T.matrix.toarray(), J, k), rtol=1e-12, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           zero_share=st.sampled_from([0.0, 0.5, 0.9]),
           order=st.sampled_from(["map_first", "basis_first"]))
    def test_property_congruence_residual(self, n, seed, zero_share, order):
        # T congruent to a perturbed J: the residual is far from zero
        rng = np.random.Generator(np.random.Philox(seed))
        pi = Distribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        J = _choi_with_min_eigenvalue(n, -0.5, rng) if n > 1 else np.ones((1, 1))
        J[rng.random(J.shape) < zero_share] = 0.0
        J = 0.5 * (J + J.T)
        T = _congruent_channel(J + rng.standard_normal(J.shape), pi)
        J_c = ChoiMatrix(n, J, "basis_first")
        J_c = J_c if order == "basis_first" else J_c.swapped()
        k = np.kron(np.sqrt(pi.weights), 1.0 / np.sqrt(pi.weights))
        np.testing.assert_allclose(
            quantize._congruence_residual(T, J_c, k),
            _blockwise_congruence_residual(T.matrix.toarray(), J_c, k), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Kraus certificate


class TestKrausCertificate:
    @pytest.mark.parametrize("name", RMR_MODELS)
    def test_verdict_matches_verify_cp(self, name, eigensolves):
        m = _model(name)
        S = superop_from_kraus(kraus_from_grand(m.rmr, m.pi))
        assert S.cp_status == _reference_status(S) == "verified"
        assert eigensolves == []

    def test_matrix_equals_kron_sum(self, hypercube3):
        ks = kraus_from_grand(hypercube3.rmr, hypercube3.pi)
        S = superop_from_kraus(ks)
        np.testing.assert_array_equal(S.matrix.toarray(), sum(np.kron(T, T) for T in ks.ops))

    def test_non_cp_kraus_shaped_map_fails(self, hypercube2, eigensolves):
        # sum_r s_r kron(T_r, T_r) with one s_r = -1: Kraus-shaped, not CP
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        signs = [1.0] * (len(ks.ops) - 1) + [-1.0]
        S = Superoperator(ks.dim, sum(s * np.kron(T, T) for s, T in zip(signs, ks.ops)))
        assert _reference_status(S) == "failed"
        assert certify_kraus_cp(S, ks.ops) == "failed"
        assert eigensolves == [S]

    def test_perturbation_beyond_tolerance_reaches_eigensolve(self, hypercube2, eigensolves):
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        S = superop_from_kraus(ks)
        bumped = Superoperator(S.dim, S.matrix.toarray() + 1e-6 * np.eye(S.dim**2))
        assert certify_kraus_cp(bumped, ks.ops) == _reference_status(bumped)
        assert eigensolves == [bumped]


# ---------------------------------------------------------------------------
# Congruence certificate


def _similarity_channel(C: CouplingMatrix, pi: Distribution) -> Superoperator:
    """T of the similarity route; built directly where quantized_coupling refuses C."""
    if C.marginal_verified and validate_coupling(C).valid:
        return quantized_coupling(C, pi)[0]
    s = np.sqrt(np.outer(pi.weights, pi.weights)).reshape(-1, order="F")
    S_c = c_star_superop(C).matrix
    return Superoperator(C.n, (S_c.toarray() * (s[None, :] / s[:, None])).T)


def _superop_from_map_first_choi(J: np.ndarray, n: int) -> Superoperator:
    """Inverse of choi_matrix(S, "map_first")."""
    return Superoperator(n, J.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n))


def _congruent_channel(J_bf: np.ndarray, pi: Distribution) -> Superoperator:
    """T with Choi_map_first(T) = K J_bf K, K = diag(kron(sqrt(pi), 1/sqrt(pi)))."""
    d = np.sqrt(pi.weights)
    k = np.kron(d, 1.0 / d)
    return _superop_from_map_first_choi(k[:, None] * J_bf * k[None, :], pi.n)


def _choi_with_min_eigenvalue(n: int, lam: float, rng) -> np.ndarray:
    """Symmetric N^2 x N^2 matrix: PSD of rank N^2 - 1, plus lam on the null vector."""
    G = rng.standard_normal((n * n, n * n - 1))
    Q, _ = np.linalg.qr(np.column_stack([G, rng.standard_normal(n * n)]))
    v = Q[:, -1]  # orthogonal to the range of G
    J = G @ G.T + lam * np.outer(v, v)
    return 0.5 * (J + J.T)


class TestCongruenceCertificate:
    @pytest.mark.parametrize("order", ["basis_first", "map_first"])
    @pytest.mark.parametrize(
        "name", RMR_MODELS + DENSE_MODELS + ["cycle3-printed", "cycle5-printed"]
    )
    def test_verdict_matches_verify_cp(self, name, order, eigensolves):
        m = _model(name, bias=0.7)
        C = m.coupling()
        J = choi_matrix(c_star_superop(C), order=order)
        T = _similarity_channel(C, m.pi)
        # grand couplings quantize to channels; the cycle couplings do not
        want = "failed" if name.startswith("cycle") else "verified"
        assert _reference_status(T) == want
        assert certify_cp_by_congruence(T, J, m.pi) == want
        assert eigensolves == []

    def test_congruence_holds_entrywise(self, hardcore_p3_lam2):
        C, pi = hardcore_p3_lam2.coupling(), hardcore_p3_lam2.pi
        T, _ = quantized_coupling(C, pi)
        J_bf = choi_matrix(c_star_superop(C), order="basis_first").matrix.toarray()
        d = np.sqrt(pi.weights)
        k = np.kron(d, 1.0 / d)
        np.testing.assert_allclose(
            choi_matrix(T).matrix.toarray(), k[:, None] * J_bf * k[None, :], rtol=0, atol=1e-15
        )

    def test_nonuniform_pi_non_cp_decided_without_eigensolve(self, eigensolves):
        n = 3
        rng = np.random.Generator(np.random.Philox(5))
        pi = Distribution(np.array([0.2, 0.3, 0.5]))
        J = _choi_with_min_eigenvalue(n, -0.5, rng)
        T = _congruent_channel(J, pi)
        assert certify_cp_by_congruence(T, ChoiMatrix(n, J, "basis_first"), pi) == "failed"
        assert _reference_status(T) == "failed"
        assert eigensolves == []

    def test_inconclusive_band_reaches_eigensolve(self, eigensolves):
        # pi_max / pi_min = 4 puts lambda_min(Choi(T)) in [4 lam, lam / 4]; a lam
        # near -tol straddles the CP threshold, so only the eigensolve can decide
        n = 2
        rng = np.random.Generator(np.random.Philox(9))
        pi = Distribution(np.array([0.2, 0.8]))
        J = _choi_with_min_eigenvalue(n, 0.0, rng)
        tol = quantize.CP_TOL_REL * np.max(np.abs(choi_matrix(_congruent_channel(J, pi)).matrix.toarray()))
        J = _choi_with_min_eigenvalue(n, -tol, np.random.Generator(np.random.Philox(9)))
        T = _congruent_channel(J, pi)
        status = certify_cp_by_congruence(T, ChoiMatrix(n, J, "basis_first"), pi)
        assert eigensolves == [T]
        assert status == _reference_status(T)

    def test_unrelated_choi_reaches_eigensolve(self, hypercube2, eigensolves):
        # a Choi matrix of another coupling is not congruent to Choi(T)
        other = independent_coupling(hypercube2.chain)
        J = choi_matrix(c_star_superop(other), order="basis_first")
        T, _ = quantized_coupling(hypercube2.coupling(), hypercube2.pi)
        assert certify_cp_by_congruence(T, J, hypercube2.pi) == "verified"
        assert eigensolves == [T]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([-1.0, -1e-3, -1e-8, -1e-9, -1e-10, 0.0, 1e-9, 0.5]),
    )
    def test_property_verdict_matches_verify_cp(self, n, seed, lam):
        rng = np.random.Generator(np.random.Philox(seed))
        pi = Distribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        J = _choi_with_min_eigenvalue(n, lam, rng)
        T = _congruent_channel(J, pi)
        status = certify_cp_by_congruence(T, ChoiMatrix(n, J, "basis_first"), pi)
        assert status == _reference_status(T)


# ---------------------------------------------------------------------------
# Choi CSV


def _triplet_reference(matrix: np.ndarray, header: str) -> str:
    """The triplet CSV of a dense matrix, formatted cell by cell: one line for
    each cell that is not 0.0 (NaN is one, -0.0 is not), in row-major order."""
    M = np.asarray(matrix)
    lines = [header, "row,col,value"]
    lines += [f"{i},{j},{M[i, j]:.17g}" for i, j in zip(*np.nonzero(M))]
    return "\n".join(lines) + "\n"


def _from_triplets(csv: str, header: str, shape) -> np.ndarray:
    """The matrix that matrix_to_csv's triplets describe; unlisted cells are 0.0."""
    lines = csv.split("\n")
    assert lines[:2] == [header, "row,col,value"] and lines[-1] == ""
    triplets = [line.split(",") for line in lines[2:-1]]
    rows = np.array([int(i) for i, _, _ in triplets], dtype=np.int64)
    cols = np.array([int(j) for _, j, _ in triplets], dtype=np.int64)
    keys = rows * shape[1] + cols
    assert np.all(np.diff(keys) > 0)  # CSR order, every cell at most once
    M = np.zeros(shape)
    M[rows, cols] = [float(v) for _, _, v in triplets]
    return M


def _assert_triplets(csv: str, header: str, dense: np.ndarray):
    """csv lists dense exactly: rebuilt from the triplets it equals dense bit for
    bit, but for -0.0, which is not written and reads back as 0.0, and for the
    sign and payload of NaN; its text is the per-cell formatter's."""
    dense = np.asarray(dense, dtype=float)
    want = np.where(dense == 0, 0.0, dense)
    rebuilt = _from_triplets(csv, header, dense.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(rebuilt), nan)
    _assert_bit_identical(rebuilt[~nan], want[~nan])
    assert csv == _triplet_reference(dense, header)


def _stored(M: np.ndarray) -> Csr:
    """Csr storing the cells of M that are nonzero or -0.0."""
    rows, cols = np.nonzero((M != 0) | np.signbit(M))
    return Csr.from_coo(M[rows, cols], rows, cols, M.shape)


class TestMatrixCsv:
    def test_special_values(self):
        M = np.array([
            [0.0, -0.0, 5e-324, -5e-324],
            [np.inf, -np.inf, np.nan, 2.2250738585072014e-308 / 3],
            [0.1, -1e300, 1.0, 0.0],
        ])
        csv = matrix_to_csv(_stored(M), "# h")
        _assert_triplets(csv, "# h", M)
        assert csv.splitlines()[2:] == [
            "0,2,4.9406564584124654e-324", "0,3,-4.9406564584124654e-324",
            "1,0,inf", "1,1,-inf", "1,2,nan", "1,3,7.4169128616906696e-309",
            "2,0,0.10000000000000001", "2,1,-1.0000000000000001e+300", "2,2,1",
        ]

    @pytest.mark.parametrize("order", ["map_first", "basis_first"])
    def test_sparse_choi_matrix(self, hypercube3, order):
        J = choi_matrix(c_star_superop(hypercube3.coupling()), order=order).matrix
        _assert_triplets(matrix_to_csv(J, "# choi"), "# choi", J.toarray())

    @pytest.mark.parametrize("order", ["map_first", "basis_first"])
    def test_counterexample_choi(self, order):
        C = _model("cycle3-printed").coupling()
        J = choi_matrix(c_star_superop(C), order=order).matrix
        _assert_triplets(matrix_to_csv(J, "# choi"), "# choi", J.toarray())

    @pytest.mark.parametrize("order", ["map_first", "basis_first"])
    @pytest.mark.parametrize("name", ["hypercube3", "colorings-k3-q4",
                                      "cycle3-printed", "cycle5-prose"])
    def test_quantize_csv_lists_choi_matrix(self, name, order, tmp_path):
        assert main(["quantize", "--model", name, "--order", order,
                     "--out", str(tmp_path)]) == 0
        [csv] = [p for p in tmp_path.iterdir() if "-choi-" in p.name]
        J = choi_matrix(c_star_superop(_model(name).coupling()), order=order).matrix
        header = f"# choi order={order} dim={J.shape[0]}"
        _assert_triplets(csv.read_bytes().decode(), header, J.toarray())

    def test_integer_matrix(self):
        M = np.array([[0, 3], [-2, 0]])
        csv = matrix_to_csv(_stored(M), "h")
        _assert_triplets(csv, "h", M)
        assert csv == "h\nrow,col,value\n0,1,3\n1,0,-2\n"

    def test_all_zero_matrix(self):
        M = np.array([[0.0, -0.0], [0.0, 0.0]])
        assert matrix_to_csv(_stored(M), "h") == "h\nrow,col,value\n"

    @settings(max_examples=100, deadline=None)
    @given(arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from([0.0, -0.0]),
    ))
    def test_property_equals_reference(self, M):
        _assert_triplets(matrix_to_csv(_stored(M), "# h"), "# h", M)


# ---------------------------------------------------------------------------
# Cached coupling validation


class TestValidationCache:
    def test_report_computed_once(self, hypercube2):
        C = hypercube2.coupling()
        assert validate_coupling(C) is validate_coupling(C)

    def test_entries_read_only(self, hypercube2):
        C = hypercube2.coupling()
        with pytest.raises(TypeError):
            C.entries[0, 0] = 1.0  # a stored entry
        with pytest.raises(TypeError):
            C.entries[0, 1] = 1.0  # a new one
        for a in (C.entries.data, C.entries.indices, C.entries.indptr):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_copy_is_validated_afresh(self, hypercube2):
        C = hypercube2.coupling()
        assert validate_coupling(C).valid
        E = C.entries.toarray()
        E[:, 1] = E[:, 2]
        assert not validate_coupling(CouplingMatrix(base=C.base, entries=E)).valid


# ---------------------------------------------------------------------------
# Trace identity in panels against the full edge-Laplacian stack


def _full_stack_traces(S, pairs, n: int, m: int) -> np.ndarray:
    """The evolution the panels replace: all unordered pairs in one dense stack."""
    edges = sorted({(min(x, y), max(x, y)) for x, y in pairs})
    column = {e: c for c, e in enumerate(edges)}
    take = [column[min(x, y), max(x, y)] for x, y in pairs]
    V = np.column_stack(
        [vec(np.outer(edge_state(x, y, n), edge_state(x, y, n))) for x, y in edges]
    )
    trace_rows = np.arange(n) * (n + 1)
    out = np.empty((m + 1, len(pairs)))
    for k in range(m + 1):
        out[k] = V[trace_rows, :].sum(axis=0)[take]
        if k < m:
            V = S @ V
    return out


def _panel_bytes(n: int, n_edges: int, columns: str) -> int:
    """Panel size of one column, or of the fewest columns (>= 2) that leave a
    shorter last panel."""
    if columns == "one":
        return 8 * n * n
    width = next(w for w in range(2, n_edges + 2) if n_edges % w)
    return 8 * n * n * width


class TestTracePanels:
    @pytest.mark.parametrize("columns", ["one", "ragged", "default"])
    @pytest.mark.parametrize("name", RMR_MODELS + DENSE_MODELS + ["hypercube6"])
    def test_bundled_models_equal_full_stack(self, name, columns, monkeypatch):
        C = _model(name, bias=0.7).exact_coupling()
        n = C.n
        pairs = _offdiag_pairs(n)
        if columns != "default":
            monkeypatch.setattr(
                evolve, "TRACE_PANEL_BYTES", _panel_bytes(n, n * (n - 1) // 2, columns))
        S = c_star_superop(C).matrix
        _assert_bit_identical(edge_laplacian_traces(S, pairs, n, 10),
                              _full_stack_traces(S, pairs, n, 10))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           zero_share=st.sampled_from([0.0, 0.5, 0.9]), width=st.integers(1, 11),
           m=st.integers(0, 4))
    def test_property_equal_full_stack(self, n, seed, zero_share, width, m):
        # any sparse S and any pair list: both orders, repeats, a subset
        rng = np.random.Generator(np.random.Philox(seed))
        M = rng.standard_normal((n * n, n * n))
        M[rng.random(M.shape) < zero_share] = 0.0
        S = Csr.from_dense(M)
        pairs = [(int(x), int(y)) for x, y in rng.integers(0, n, size=(3 * n, 2)) if x != y]
        if not pairs:
            pairs = [(0, 1)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolve, "TRACE_PANEL_BYTES", 8 * n * n * width)
            got = edge_laplacian_traces(S, pairs, n, m)
        _assert_bit_identical(got, _full_stack_traces(S, pairs, n, m))

    def test_memory_bound_at_n64(self):
        # two panels in flight plus the (m + 1) x pairs result
        rmr = _model("hypercube6").rmr
        S = c_star_superop(rmr).matrix
        pairs = _offdiag_pairs(rmr.n)
        tracemalloc.start()
        try:
            edge_laplacian_traces(S, pairs, rmr.n, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * evolve.TRACE_PANEL_BYTES + (1 << 20)


# ---------------------------------------------------------------------------
# Rescaled-Qperp combination: four-entry scatter against the outer products


def _outer_product_combination(weights: np.ndarray) -> np.ndarray:
    """The sum rescaled_qperp_decomposition_check formed before: N^2 outer products."""
    n = weights.size
    combo = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            e = edge_state(x, y, n)
            combo += weights[x] * weights[y] * np.outer(e, e)
    return combo


class TestQperpCombination:
    @pytest.mark.parametrize("name", RMR_MODELS + DENSE_MODELS + ["hardcore-path8"])
    def test_bundled_models(self, name):
        w = _model(name, bias=0.7).pi.weights
        _assert_bit_identical(evolve._edge_laplacian_combination(w),
                              _outer_product_combination(w))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_property_random_pi(self, n, seed):
        w = np.random.Generator(np.random.Philox(seed)).dirichlet(np.ones(n) * 0.3)
        _assert_bit_identical(evolve._edge_laplacian_combination(w),
                              _outer_product_combination(w))


# ---------------------------------------------------------------------------
# CSR ChoiMatrix against its dense matrix


def _dense_support_eigenvalues(J: np.ndarray) -> np.ndarray:
    """ChoiMatrix.eigenvalues as computed on a dense J."""
    nonzero = J != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    sub = J[np.ix_(support, support)]
    eigs = np.zeros(J.shape[0])
    eigs[: support.size] = np.linalg.eigvalsh(0.5 * (sub + sub.T))
    return np.sort(eigs)


def _dense_swapped(J: np.ndarray, n: int) -> np.ndarray:
    return J.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)


def _dense_congruence_residual(T: Superoperator, J: np.ndarray, order: str, k) -> float:
    """_congruence_residual as computed on a dense J."""
    n = T.dim
    rows, cols = np.nonzero(J)
    form = J[rows, cols]
    if order == "map_first":
        rows, cols = swap_pair(rows, n), swap_pair(cols, n)
    form = form * k[cols] * k[rows]
    keys = rows.astype(np.int64) * n * n + cols
    sort = np.argsort(keys)
    return quantize._choi_residual(T, keys[sort], form[sort])


def _assert_choi_matches_dense(J: ChoiMatrix, dense: np.ndarray):
    assert isinstance(J.matrix, Csr)
    _assert_bit_identical(J.eigenvalues, _dense_support_eigenvalues(dense))
    swapped = J.swapped()
    assert swapped.order != J.order
    _assert_bit_identical(swapped.matrix.toarray(), _dense_swapped(dense, J.dim))
    _assert_triplets(matrix_to_csv(J.matrix, "# choi"), "# choi", dense)


class TestCsrChoi:
    @pytest.mark.parametrize("order", ["map_first", "basis_first"])
    @pytest.mark.parametrize("name", RMR_MODELS + ALL_DENSE)
    def test_bundled_models(self, name, order):
        m = _model(name, bias=0.7)
        C = m.coupling()
        J = choi_matrix(c_star_superop(C), order=order)
        dense = J.matrix.toarray()
        _assert_choi_matches_dense(J, dense)
        T = _similarity_channel(C, m.pi)
        k = np.kron(np.sqrt(m.pi.weights), 1.0 / np.sqrt(m.pi.weights))
        assert quantize._congruence_residual(T, J, k) == _dense_congruence_residual(
            T, dense, order, k)

    def test_counterexample_fixture(self):
        fx = load_counterexample_fixture()
        dense = np.array(fx["matrix"], dtype=float)
        J = ChoiMatrix(3, dense, order=fx["order"])
        _assert_choi_matches_dense(J, dense)
        assert round(float(J.eigenvalues[0]), 2) == -1.04
        assert not is_completely_positive(J)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           zero_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_property_symmetric_with_zero_rows(self, n, seed, zero_share):
        rng = np.random.Generator(np.random.Philox(seed))
        G = rng.standard_normal((n * n, n * n))
        J = G + G.T
        zero = rng.random(n * n) < zero_share
        J[zero, :] = 0.0
        J[:, zero] = 0.0
        _assert_choi_matches_dense(ChoiMatrix(n, J), J)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           zero_share=st.sampled_from([0.0, 0.5, 0.9]),
           order=st.sampled_from(["map_first", "basis_first"]))
    def test_property_congruence_residual(self, n, seed, zero_share, order):
        rng = np.random.Generator(np.random.Philox(seed))
        pi = Distribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        J = rng.standard_normal((n * n, n * n))
        J[rng.random(J.shape) < zero_share] = 0.0
        J = 0.5 * (J + J.T)
        T = _congruent_channel(J + rng.standard_normal(J.shape), pi)
        k = np.kron(np.sqrt(pi.weights), 1.0 / np.sqrt(pi.weights))
        assert quantize._congruence_residual(T, ChoiMatrix(n, J, order), k) == (
            _dense_congruence_residual(T, J, order, k))

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)), seed=st.integers(0, 2**32 - 1),
           values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                           | st.sampled_from([0.0, -0.0]), max_size=12))
    def test_property_csv_of_stored_entries(self, shape, seed, values):
        # stored zeros and -0.0, and duplicates given in unsorted order, summed
        # by Csr.from_coo; scipy's canonical form of the same triplets is the
        # reference (at most 12 entries a row, so it sums them in input order)
        import scipy.sparse

        rng = np.random.Generator(np.random.Philox(seed))
        rows = rng.integers(0, shape[0], size=len(values))
        cols = rng.integers(0, shape[1], size=len(values))
        values = np.array(values, dtype=float)
        stored = scipy.sparse.csr_array((values, (rows, cols)), shape=shape).tocoo()
        dense = np.zeros(shape)
        dense[stored.row, stored.col] = stored.data  # keeps a stored -0.0
        M = Csr.from_coo(values, rows, cols, shape)
        _assert_triplets(matrix_to_csv(M, "# h"), "# h", dense)

    def test_choi_and_spectrum_memory_at_n64(self):
        S = c_star_superop(_model("hypercube6").rmr)
        tracemalloc.start()
        try:
            choi_matrix(S, order="basis_first").eigenvalues
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the dense 4096 x 4096 J alone is 128 MiB


# ---------------------------------------------------------------------------
# validate_coupling's symmetry residual from the stored entries against the N^4 one


def _n4_symmetry(C: CouplingMatrix) -> tuple[bool, list[str]]:
    """The symmetry verdict and issue formed from the N^4 temporary."""
    E = coupling_4tensor(C)
    asym = E - E.transpose(1, 0, 3, 2)
    np.abs(asym, out=asym)
    passed = float(asym.max()) <= ATOL_INPUT
    if passed:
        return passed, []
    i = np.unravel_index(asym.argmax(), asym.shape)
    return passed, [
        f"condition 3 (symmetry) violated at (x'={i[0]}, y'={i[1]}, x={i[2]}, "
        f"y={i[3]}) by {asym.max():.3g}"
    ]


def _assert_symmetry_matches_n4(C: CouplingMatrix):
    report = validate_coupling(C)
    passed, issues = _n4_symmetry(C)
    assert report.details["symmetry"] == passed
    assert [i for i in report.issues if i.startswith("condition 3")] == issues


class TestSlicedSymmetry:
    @pytest.mark.parametrize("name", RMR_MODELS + ALL_DENSE + ["cycle7-prose"])
    def test_bundled_models(self, name):
        _assert_symmetry_matches_n4(_model(name, bias=0.7).coupling())

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           levels=st.sampled_from([(0.0, 0.5), (0.0, 0.25, 0.5, 1.0), (0.0, 1e-13, 2e-12)]))
    def test_property_asymmetric_with_ties(self, n, seed, levels):
        # few distinct entry values, so the largest violation is often tied
        rng = np.random.Generator(np.random.Philox(seed))
        E = rng.choice(np.array(levels), size=(n * n, n * n))
        base = TransitionMatrix(tuple(str(i) for i in range(n)), np.eye(n))
        _assert_symmetry_matches_n4(CouplingMatrix(base=base, entries=E))


# ---------------------------------------------------------------------------
# emit_report: incremental digest against the digest of the concatenated blob


class TestEmitDigest:
    @pytest.mark.parametrize("series", [
        None,
        {},
        {"tails": "m,tail\n0,1\n"},
        {"b": "zeta\n", "a": "alpha\n", "c": "alpha\n"},
        {"x": "\u00e9t\u00e9\n", "y": "z\n", "w": "\U0001f600\n"},
    ])
    def test_same_names_and_bytes(self, series, tmp_path, capsys):
        summary = {"model": "m", "values": np.arange(3), "x": np.float64(0.5)}
        paths = emit_report(str(tmp_path), "stem", summary, series)
        body = json.dumps(summary, sort_keys=True, indent=2,
                          default=lambda v: v.tolist() if hasattr(v, "tolist") else v) + "\n"
        blob = body + "".join(sorted((series or {}).values()))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
        want = {f"stem-{digest}.json": body}
        want.update({f"stem-{label}-{digest}.csv": csv for label, csv in (series or {}).items()})
        assert [p.name for p in paths] == list(want)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
            name: text.encode() for name, text in want.items()}

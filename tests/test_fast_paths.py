"""Differential tests: each fast path against the dense reference it replaces.

- the exact tails (``tail_vectors``, the Heisenberg picture) against the
  edge Laplacians pushed forward by a sparse C* and by the dense matmul
  (the Schrodinger picture), on which the trace identity rests;
- the CSR superoperators against the dense reshapes they replaced: the
  Choi scatter, a dense coupling's C* (its own matrix) against the
  swap-transposed 4-tensor, also within condition 3's tolerance, and the
  rescaled T*;
- the one CP rule: verify_cp's verdict on a Kraus-built map (its Gram
  spectrum) against the support eigensolve of the same matrix, a
  Kraus-shaped matrix that is no Kraus map judged by its own spectrum, the
  congruence between Choi(T) and the pair-swapped Choi matrix of C*, and
  quantize's two spectra (C*'s Choi matrix and T's, the Kraus-built T for a
  mapping) agreeing;
- matrix_to_csv, and the Choi CSV that quantize writes: the dense matrix
  rebuilt from its triplets against the dense reference, bit for bit, the
  text against a per-cell formatter on that reference, and the chunked text
  against the one-shot join over the whole matrix, around the chunk size;
- the tails' Heisenberg route (one evolved N^2 vector) against the
  Schrodinger references (the full edge-Laplacian stack, and the dense
  matmul), within 1e-14 on every bundled model and hypercube6 and within a
  stated rounding bound on hypothesis mappings; a tracemalloc bound at
  N = 64; the closed form past the guard; and a misrouted C* on the scatter
  side that the trace identity rejects;
- the forms that hold no N^4-sized temporary against the ones they replaced,
  bit for bit: the CSR ChoiMatrix against its dense matrix,
  validate_coupling's symmetry residual from the stored entries, the
  rescaled-Qperp scatter and emit_report's streamed digest; then a
  tracemalloc bound on the Choi spectrum at N = 64.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    coupling_4tensor,
    coupon_collector_tail,
    dense_kraus_ops,
    mappings,
    offdiag_pairs,
    random_ergodic_chain,
    tail_rows,
)
from qcoupling import cli, evolve
from qcoupling.chain import (
    ATOL_COMPUTED,
    ATOL_INPUT,
    Distribution,
    TransitionMatrix,
    stationary_distribution,
)
from qcoupling.cli import _quantize_summary, emit_report, main, resolve_model
from qcoupling.coupling import (
    CouplingMatrix,
    coalescence_tail_exact,
    grand_coupling_operator,
    independent_coupling,
    swap_pair,
    tail_vectors,
    validate_coupling,
)
from qcoupling.csr import Csr
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import coalescence_trace_identity_check, edge_state
from qcoupling.models import (
    hypercube_model,
    hypercube_worst_pair,
    load_counterexample_fixture,
)
from qcoupling.quantize import (
    CSV_CHUNK_ENTRIES,
    ChoiMatrix,
    Superoperator,
    c_star_superop,
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


def _reference_verdict(S: Superoperator) -> bool:
    """verify_cp on S's matrix alone: the support eigensolve of its Choi matrix."""
    return verify_cp(Superoperator(S.dim, S.matrix))


# ---------------------------------------------------------------------------
# Trace identity: the tails against the dense matmul of C*


def _dense_reference_traces(S: np.ndarray, pairs, n: int, m: int) -> np.ndarray:
    """The Schrodinger route: every ordered pair's Laplacian, dense matmul."""
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
    pairs = offdiag_pairs(C.n)
    dense = _dense_reference_traces(c_star_superop(C).matrix.toarray(), pairs, C.n, m)
    np.testing.assert_allclose(tail_rows(C, m), dense, rtol=0, atol=1e-14)
    assert coalescence_trace_identity_check(C, coalescence_tail_exact(C, m_max=m)).passed


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


# Choi matrices are built basis first. The "map_first" cases read them in the
# map-first layout sum S(E_xy) (x) E_xy, by README's re-indexing
# (r, c) -> (sigma(r), sigma(c)) with sigma the pair swap
LAYOUTS = ["map_first", "basis_first"]


def _pair_swap(n: int) -> np.ndarray:
    return swap_pair(np.arange(n * n), n)


def _read_as(J: np.ndarray, layout: str) -> np.ndarray:
    """The dense basis-first Choi matrix J read in ``layout``."""
    if layout == "basis_first":
        return J
    p = _pair_swap(math.isqrt(J.shape[0]))
    return J[np.ix_(p, p)]


def _csr_read_as(J: Csr, layout: str) -> Csr:
    """The built Csr J itself, or the Csr of J read in the map-first layout."""
    return J if layout == "basis_first" else _stored(_read_as(J.toarray(), layout))


def _reshape_choi(S: np.ndarray, n: int, layout: str) -> np.ndarray:
    """Choi matrix by reshape and transpose: S's axes are (j, i, y, x)."""
    axes = (1, 3, 0, 2) if layout == "map_first" else (3, 1, 2, 0)
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


def _assert_bit_identical(a: np.ndarray, b: np.ndarray):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _similarity_channel(C: CouplingMatrix, pi: Distribution) -> Superoperator:
    """T of the similarity route; built directly where quantized_coupling refuses C."""
    if validate_coupling(C).valid:
        return quantized_coupling(c_star_superop(C), pi)[0]
    s = np.sqrt(np.outer(pi.weights, pi.weights)).reshape(-1, order="F")
    S_c = c_star_superop(C).matrix
    return Superoperator(C.n, (S_c.toarray() * (s[None, :] / s[:, None])).T)


def _assert_congruent(T: Superoperator, J: ChoiMatrix, pi: Distribution,
                      layout: str = "basis_first"):
    """Choi(T) = K J[sigma, sigma] K entrywise, J = Choi(C*), sigma the pair
    swap and K = diag(kron(1/sqrt(pi), sqrt(pi))); both sides read in ``layout``."""
    p = _pair_swap(T.dim)
    d = np.sqrt(pi.weights)
    k = np.kron(1.0 / d, d)
    want = k[:, None] * J.matrix.toarray()[np.ix_(p, p)] * k[None, :]
    np.testing.assert_allclose(_read_as(choi_matrix(T).matrix.toarray(), layout),
                               _read_as(want, layout), rtol=1e-14, atol=0)


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
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name", RMR_MODELS + ALL_DENSE)
    def test_choi_scatter_equals_reshape(self, name, layout):
        for S in _bundled_superops(name):
            J = _read_as(choi_matrix(S).matrix.toarray(), layout)
            _assert_bit_identical(J, _reshape_choi(S.matrix.toarray(), S.dim, layout))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    def test_property_choi_scatter_equals_reshape(self, n, seed, zero_share):
        rng = np.random.Generator(np.random.Philox(seed))
        M = rng.standard_normal((n * n, n * n))
        M[rng.random(M.shape) < zero_share] = 0.0
        J = choi_matrix(Superoperator(n, M))
        _assert_bit_identical(J.matrix.toarray(), _reshape_choi(M, n, "basis_first"))

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

    def test_symmetric_within_tolerance_is_taken_as_c(self):
        # 1e-13 of mass moved between two successors of the start pair (2, 3)
        # is inside condition 3's 1e-12: C* is C itself, within 1e-12 of the swap
        C = _model("cycle5-prose", bias=0.7).coupling()
        E = coupling_4tensor(C)
        E[1, 3, 2, 3] += 1e-13
        E[2, 4, 2, 3] -= 1e-13
        near = CouplingMatrix(base=C.base, entries=E.reshape(C.n**2, C.n**2))
        assert validate_coupling(near).details["symmetry"]
        S = c_star_superop(near).matrix
        assert S is near.entries
        ref = _swap_transpose(near)
        assert not np.array_equal(S.toarray(), ref)
        np.testing.assert_allclose(S.toarray(), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", RMR_MODELS + DENSE_MODELS)
    def test_t_star_equals_row_block_rescaling(self, name):
        m = _model(name, bias=0.7)
        C = m.coupling()
        T, T_star = quantized_coupling(c_star_superop(C), m.pi)
        ref = _row_block_t_star(C, m.pi)
        _assert_bit_identical(T_star.matrix.toarray(), ref)
        _assert_bit_identical(T.matrix.toarray(), ref.T)


# ---------------------------------------------------------------------------
# One CP rule: Kraus-built maps are CP by construction, every other map is
# judged by its own Choi spectrum


class TestOneCpRule:
    @pytest.mark.parametrize("name", RMR_MODELS)
    def test_kraus_stamp_matches_verify_cp(self, name, eigensolves):
        m = _model(name)
        S = superop_from_kraus(kraus_from_grand(m.rmr, m.pi))
        assert eigensolves == []  # built without a verdict
        assert verify_cp(S) is _reference_verdict(S) is True

    def test_matrix_equals_kron_sum(self, hypercube3):
        ks = kraus_from_grand(hypercube3.rmr, hypercube3.pi)
        S = superop_from_kraus(ks)
        np.testing.assert_array_equal(S.matrix.toarray(),
                                      sum(np.kron(T, T) for T in dense_kraus_ops(ks)))

    def test_congruence_holds_entrywise(self, hardcore_p3_lam2):
        C, pi = hardcore_p3_lam2.coupling(), hardcore_p3_lam2.pi
        S = c_star_superop(C)
        T, _ = quantized_coupling(S, pi)
        p = _pair_swap(pi.n)
        J = choi_matrix(S).matrix.toarray()[np.ix_(p, p)]
        d = np.sqrt(pi.weights)
        k = np.kron(1.0 / d, d)
        np.testing.assert_allclose(
            choi_matrix(T).matrix.toarray(), k[:, None] * J * k[None, :], rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name", RMR_MODELS + ALL_DENSE)
    def test_congruence_holds_in_either_order(self, name, layout):
        # Choi(T) = K Choi(C*)[sigma, sigma] K, K = diag(kron(1/sqrt(pi), sqrt(pi))),
        # read in either layout
        m = _model(name, bias=0.7)
        C = m.coupling()
        _assert_congruent(_similarity_channel(C, m.pi), choi_matrix(c_star_superop(C)), m.pi,
                          layout)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_property_congruence_independent_coupling(self, n, seed):
        P = random_ergodic_chain(n, np.random.Generator(np.random.Philox(seed)))
        C, pi = independent_coupling(P), stationary_distribution(P)
        _assert_congruent(_similarity_channel(C, pi), choi_matrix(c_star_superop(C)), pi)

    def test_kraus_shaped_matrix_is_judged_by_its_spectrum(self, hypercube2):
        # sum_r s_r kron(T_r, T_r) with one s_r = -1 has the Kraus form's sparsity,
        # but it is no Kraus map: its own eigensolve fails it
        ks = kraus_from_grand(hypercube2.rmr, hypercube2.pi)
        ops = dense_kraus_ops(ks)
        signs = [1.0] * (len(ops) - 1) + [-1.0]
        S = Superoperator(ks.dim, sum(s * np.kron(T, T) for s, T in zip(signs, ops)))
        assert verify_cp(S) is False

    @pytest.mark.parametrize("name,bias", [(name, 0.5) for name in RMR_MODELS] + [
        (name, bias) for name in ALL_DENSE for bias in (0.5, 0.7, 0.9, 1.0)])
    def test_quantize_orders_agree(self, name, bias):
        # Choi(T) is congruent to a re-indexing of Choi(C*)
        # (test_congruence_holds_entrywise), so their two spectra must give
        # one verdict
        m = _model(name, bias=bias)
        want = not name.startswith("cycle")  # grand couplings are CP, the cycle ones are not
        summary = _quantize_summary(m)[1]
        assert summary["cp"] == want
        # the printed variant is no stochastic coupling, so it has no channel
        assert ("channel_cp" in summary) == (not name.endswith("printed"))
        assert summary.get("channel_cp", want) == want

    def test_similarity_channel_gets_its_own_eigensolve(self, monkeypatch):
        # a mapping's T is the one evolve and verify build from its Kraus set,
        # and verify_cp judges it by its own (Gram) spectrum
        calls = []

        def judged(S):
            calls.append((S, verify_cp(S)))
            return calls[-1][1]

        monkeypatch.setattr(cli, "verify_cp", judged)
        m = _model("hypercube2")
        summary = _quantize_summary(m)[1]
        [(T, verdict)] = calls
        assert verdict is True and summary["channel_cp"] is True
        want = superop_from_kraus(kraus_from_grand(m.rmr, m.pi)).matrix
        _assert_bit_identical(T.matrix.toarray(), want.toarray())  # the channel T, not T*


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


def _csv(matrix: Csr, header: str) -> str:
    """The whole text of the chunks matrix_to_csv yields."""
    return "".join(matrix_to_csv(matrix, header))


def _one_shot_csv(matrix: Csr, header: str) -> str:
    """matrix_to_csv as one list of lines over the whole matrix, joined once:
    the chunked formatting must give these bytes."""
    M = matrix.without_zeros()
    entries = zip(M.rows.tolist(), M.indices.tolist(), M.data.tolist())
    lines = [header, "row,col,value"]
    lines += [f"{i},{j},{v:.17g}" for i, j, v in entries]
    lines.append("")  # the trailing newline
    return "\n".join(lines)


def _entries_matrix(nnz: int, zero_every: int = 0) -> Csr:
    """nnz nonzero entries over 7 columns, row-major; with zero_every > 0 a
    stored 0.0 or -0.0 follows every zero_every-th of them."""
    rng = np.random.default_rng(nnz)
    values = list(rng.standard_normal(nnz) * 10.0 ** rng.integers(-300, 300, nnz))
    if zero_every:
        for k in range(nnz // zero_every, 0, -1):
            values.insert(k * zero_every, (-0.0, 0.0)[k % 2])
    keys = np.arange(len(values))
    return Csr.from_coo(values, keys // 7, keys % 7, (max(1, -(-len(values) // 7)), 7))


CHUNK = CSV_CHUNK_ENTRIES
CSV_CASES = {
    "empty-0x0": Csr.from_coo([], [], [], (0, 0)),
    "empty-3x3": Csr.from_coo([], [], [], (3, 3)),
    "stored-zeros": Csr.from_coo([0.0, -0.0, 0.0], [0, 0, 1], [0, 1, 1], (2, 2)),
    "signed-zeros-and-values": _stored(np.array([[-0.0, 1.5], [0.0, -2.0]])),
    "nan-and-inf": _stored(np.array([[np.nan, np.inf], [-np.inf, 0.0]])),
    **{f"nnz={label}": _entries_matrix(nnz)
       for label, nnz in (("chunk-1", CHUNK - 1), ("chunk", CHUNK), ("chunk+1", CHUNK + 1))},
    # stored zeros push the stored count past a chunk; the nonzeros stay chunk + 1
    "nnz=chunk+1-with-zeros": _entries_matrix(CHUNK + 1, zero_every=3),
}


class TestMatrixCsv:
    @pytest.mark.parametrize("name", sorted(CSV_CASES))
    def test_chunks_equal_one_shot_join(self, name):
        M = CSV_CASES[name]
        assert _csv(M, "# h") == _one_shot_csv(M, "# h")
        # the header alone, then at most a chunk of entry lines at a time
        chunks = list(matrix_to_csv(M, "# h"))
        assert chunks[0] == "# h\nrow,col,value\n"
        assert all(0 < c.count("\n") <= CHUNK for c in chunks[1:])

    def test_special_values(self):
        M = np.array([
            [0.0, -0.0, 5e-324, -5e-324],
            [np.inf, -np.inf, np.nan, 2.2250738585072014e-308 / 3],
            [0.1, -1e300, 1.0, 0.0],
        ])
        csv = _csv(_stored(M), "# h")
        _assert_triplets(csv, "# h", M)
        assert csv.splitlines()[2:] == [
            "0,2,4.9406564584124654e-324", "0,3,-4.9406564584124654e-324",
            "1,0,inf", "1,1,-inf", "1,2,nan", "1,3,7.4169128616906696e-309",
            "2,0,0.10000000000000001", "2,1,-1.0000000000000001e+300", "2,2,1",
        ]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_sparse_choi_matrix(self, hypercube3, layout):
        J = _csr_read_as(choi_matrix(c_star_superop(hypercube3.coupling())).matrix, layout)
        _assert_triplets(_csv(J, "# choi"), "# choi", J.toarray())

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_counterexample_choi(self, layout):
        C = _model("cycle3-printed").coupling()
        J = _csr_read_as(choi_matrix(c_star_superop(C)).matrix, layout)
        _assert_triplets(_csv(J, "# choi"), "# choi", J.toarray())

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name", ["hypercube3", "colorings-k3-q4",
                                      "cycle3-printed", "cycle5-prose"])
    def test_quantize_csv_lists_choi_matrix(self, name, layout, tmp_path):
        assert main(["quantize", "--model", name, "--out", str(tmp_path)]) == 0
        [csv] = [p for p in tmp_path.iterdir() if "-choi-" in p.name]
        text = csv.read_bytes().decode()
        S = c_star_superop(_model(name).coupling())
        J = choi_matrix(S).matrix
        header = f"# choi order=basis_first dim={J.shape[0]}"
        _assert_triplets(text, header, J.toarray())
        # the CSV's triplets, read in either layout, give the reshape of C*
        _assert_bit_identical(_read_as(_from_triplets(text, header, J.shape), layout),
                              _reshape_choi(S.matrix.toarray(), S.dim, layout))

    def test_integer_matrix(self):
        M = np.array([[0, 3], [-2, 0]])
        csv = _csv(_stored(M), "h")
        _assert_triplets(csv, "h", M)
        assert csv == "h\nrow,col,value\n0,1,3\n1,0,-2\n"

    def test_all_zero_matrix(self):
        M = np.array([[0.0, -0.0], [0.0, 0.0]])
        assert _csv(_stored(M), "h") == "h\nrow,col,value\n"

    @settings(max_examples=100, deadline=None)
    @given(arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from([0.0, -0.0]),
    ))
    def test_property_equals_reference(self, M):
        _assert_triplets(_csv(_stored(M), "# h"), "# h", M)


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
# Trace identity: the Heisenberg route against the Schrodinger references


def _full_stack_traces(S: Csr, pairs, n: int, m: int) -> np.ndarray:
    """The Schrodinger route at any N: the Laplacians of all unordered pairs in
    one dense stack, multiplied by S with scipy's compiled csr_matvecs."""
    edges = sorted({(min(x, y), max(x, y)) for x, y in pairs})
    column = {e: c for c, e in enumerate(edges)}
    take = [column[min(x, y), max(x, y)] for x, y in pairs]
    V = np.column_stack(
        [vec(np.outer(edge_state(x, y, n), edge_state(x, y, n))) for x, y in edges]
    )
    compiled = scipy.sparse.csr_array((S.data, S.indices, S.indptr), shape=S.shape)
    trace_rows = np.arange(n) * (n + 1)
    out = np.empty((m + 1, len(pairs)))
    for k in range(m + 1):
        out[k] = V[trace_rows, :].sum(axis=0)[take]
        if k < m:
            V = compiled @ V
    return out


class TestHeisenbergTraces:
    @pytest.mark.parametrize("name", RMR_MODELS + DENSE_MODELS + ["hypercube6"])
    def test_bundled_models_match_full_stack(self, name):
        C = _model(name, bias=0.7).exact_coupling()
        n = C.n
        S = c_star_superop(C).matrix
        np.testing.assert_allclose(tail_rows(C, 10), _full_stack_traces(S, offdiag_pairs(n), n, 10),
                                   rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(mappings(), st.integers(0, 4))
    def test_property_matches_schrodinger(self, rmr, m):
        # Each route adds at most (k + 1) N^2 rounded terms, each at most 1
        # in size, per cell at step k, so each is within about (k + 1) N^2
        # eps of the exact value; twice that bounds their gap
        n = rmr.n
        pairs = offdiag_pairs(n)
        got = tail_rows(rmr, m)
        if not pairs:  # one state: no pair to start apart
            assert got.shape == (m + 1, 0)
            return
        S = grand_coupling_operator(rmr)
        tol = 4 * (np.arange(m + 1)[:, None] + 1) * n * n * np.finfo(float).eps
        for ref in (_full_stack_traces(S, pairs, n, m),
                    _dense_reference_traces(S.toarray(), pairs, n, m)):
            assert np.all(np.abs(got - ref) <= tol)
        # (x, y) and (y, x) gather the same terms in the same order
        swapped = [pairs.index((y, x)) for x, y in pairs]
        _assert_bit_identical(got, got[:, swapped])

    def test_memory_bound_at_n64(self):
        # the vector, and the gather's sum and its two N x N buffers
        rmr = _model("hypercube6").rmr
        n = rmr.n
        tracemalloc.start()
        try:
            for _ in tail_vectors(rmr, 10):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 4 * n * n + (64 << 10)


def _hamming_coupon_tails(d: int, pairs, m: int) -> np.ndarray:
    """Pr{tau > k} on hypercube_d for each pair: some of the h coordinates the
    pair differs in not yet refreshed after k uniform draws of d coordinates."""
    h = np.array([bin(x ^ y).count("1") for x, y in pairs])
    k = np.arange(m + 1)[:, None]
    out = np.zeros((m + 1, len(pairs)))
    for j in range(1, d + 1):
        terms = np.array([math.comb(int(c), j) for c in h], dtype=float)
        out += (-1) ** (j + 1) * terms * (1.0 - j / d) ** k
    return out


class TestHeisenbergBeyondGuard:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_hypercube_traces_equal_coupon_collector(self, d):
        # up to N = 256, past the exact guard of 64 states, which the tails'
        # vectors do not check: all N (N - 1) ordered pairs from one gathered
        # vector a step, against the closed form
        m = 10
        rmr = hypercube_model(d).rmr
        pairs = offdiag_pairs(rmr.n)
        got = tail_rows(rmr, m)
        np.testing.assert_allclose(got, _hamming_coupon_tails(d, pairs, m), rtol=0, atol=1e-12)
        worst = pairs.index(hypercube_worst_pair(d))
        np.testing.assert_allclose(got[:, worst], [coupon_collector_tail(d, k) for k in range(m + 1)],
                                   rtol=0, atol=1e-12)


def _misrouted(S: Csr, column: int, target: int) -> Csr:
    """S with the whole mass of one column moved onto the single row target."""
    moved = S.indices == column
    return Csr.from_coo(np.append(S.data[~moved], S.data[moved].sum()),
                        np.append(S.rows[~moved], target),
                        np.append(S.indices[~moved], column), S.shape)


class TestTraceIdentityGate:
    @pytest.mark.parametrize("name", RMR_MODELS + DENSE_MODELS)
    def test_misrouted_column_fails_on_both_routes(self, name, monkeypatch):
        # the pair most likely to coalesce in one step sends all its mass to
        # its swapped pair instead: column sums stay 1, but the operator is
        # no longer the coupling's C*. Only the check's scatter side reads
        # C* (a coupling matrix's, here also for a mapping's grand coupling);
        # its gather side keeps the true tails. The gather's own mutants are
        # in test_gather_path.TestTraceIdentityMutants
        C = _model(name, bias=0.7).coupling()
        n, m = C.n, 6
        report = coalescence_tail_exact(C, m_max=m)
        tails = tail_rows(C, m)
        pairs = offdiag_pairs(n)
        x, y = pairs[int(np.argmin(tails[1]))]
        assert tails[1].min() < 1.0 - 1e-3
        S = c_star_superop(C).matrix
        bad = _misrouted(S, x + n * y, y + n * x)
        np.testing.assert_allclose(np.ones(n * n) @ bad, np.ones(n * n) @ S, rtol=0, atol=1e-15)
        full, dense = (_full_stack_traces(bad, pairs, n, m),
                       _dense_reference_traces(bad.toarray(), pairs, n, m))
        np.testing.assert_allclose(full, dense, rtol=0, atol=1e-14)
        assert np.abs(dense - tails).max() > ATOL_COMPUTED  # both routes see the mutant

        monkeypatch.setattr(evolve, "c_star_superop",
                            lambda _: Superoperator(dim=n, matrix=bad))
        result = coalescence_trace_identity_check(C, report)
        stated = [pairs.index(tuple(p)) for p in result.details["pairs"]]
        worst = np.abs(dense[:, stated] - tails[:, stated]).max()
        assert not result.passed and result.lhs == pytest.approx(worst, rel=0, abs=1e-14)
        assert worst > ATOL_COMPUTED


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


def _assert_choi_matches_dense(J: ChoiMatrix, dense: np.ndarray):
    assert isinstance(J.matrix, Csr)
    _assert_bit_identical(J.eigenvalues, _dense_support_eigenvalues(dense))
    _assert_triplets(_csv(J.matrix, "# choi"), "# choi", dense)


class TestCsrChoi:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name", RMR_MODELS + ALL_DENSE)
    def test_bundled_models(self, name, layout):
        m = _model(name, bias=0.7)
        J = choi_matrix(c_star_superop(m.coupling()))
        J = ChoiMatrix(J.dim, _csr_read_as(J.matrix, layout))
        _assert_choi_matches_dense(J, J.matrix.toarray())

    def test_counterexample_fixture(self):
        fx = load_counterexample_fixture()
        dense = np.array(fx["matrix"], dtype=float)
        J = ChoiMatrix(3, dense)
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

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)), seed=st.integers(0, 2**32 - 1),
           values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                           | st.sampled_from([0.0, -0.0]), max_size=12))
    def test_property_csv_of_stored_entries(self, shape, seed, values):
        # stored zeros and -0.0, and duplicates given in unsorted order, summed
        # by Csr.from_coo; scipy's canonical form of the same triplets is the
        # reference (at most 12 entries a row, so it sums them in input order).
        # A sum that overflows is +-inf on both routes, the defined result
        rng = np.random.Generator(np.random.Philox(seed))
        rows = rng.integers(0, shape[0], size=len(values))
        cols = rng.integers(0, shape[1], size=len(values))
        values = np.array(values, dtype=float)
        with np.errstate(over="ignore"):
            stored = scipy.sparse.csr_array((values, (rows, cols)), shape=shape).tocoo()
            M = Csr.from_coo(values, rows, cols, shape)
        dense = np.zeros(shape)
        dense[stored.row, stored.col] = stored.data  # keeps a stored -0.0
        _assert_triplets(_csv(M, "# h"), "# h", dense)

    def test_choi_and_spectrum_memory_at_n64(self):
        S = c_star_superop(_model("hypercube6").rmr)
        tracemalloc.start()
        try:
            choi_matrix(S).eigenvalues
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.5 MiB plus about 10 %; with three support-sized temporaries beside
        # the block it was 5.6 MiB, and the dense 4096 x 4096 J alone is 128 MiB
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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
# emit_report: streamed digest against the digest of the concatenated blob


class TestEmitDigest:
    # the series as one chunk or several, with an empty chunk, multi-byte
    # characters, no chunk at all, and 1.2 MB, the size of hypercube6's Choi
    # CSV; hashlib's digest is the reference for the built-in SHA-256
    @pytest.mark.parametrize("series", [
        None,
        ("tails", ["m,tail\n0,1\n"]),
        ("choi", ["# h\nrow,col,value\n", "", "0,1,0.5\n1,0,-2\n"]),
        ("x", ["\u00e9t\u00e9\n", "z\n", "\U0001f600\n"]),
        ("empty", []),
        ("big", ["row,col,value\n", "63,4095,-0.015625\n" * 65536]),
    ])
    def test_same_names_and_bytes(self, series, tmp_path, capsys):
        summary = {"model": "m", "values": np.arange(3), "x": np.float64(0.5)}
        paths = emit_report(str(tmp_path), "stem", summary, series)
        body = json.dumps(summary, sort_keys=True, indent=2,
                          default=lambda v: v.tolist() if hasattr(v, "tolist") else v) + "\n"
        text = None if series is None else "".join(series[1])
        digest = hashlib.sha256((body + (text or "")).encode()).hexdigest()[:12]
        want = {f"stem-{digest}.json": body}
        if series is not None:
            want[f"stem-{series[0]}-{digest}.csv"] = text
        assert [p.name for p in paths] == list(want)
        # no temporary file is left beside the artifacts
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
            name: text.encode() for name, text in want.items()}

    def test_build_without_builtin_sha256_names_the_same(self, tmp_path):
        # a CPython built without its own SHA-256 module has neither _sha2 nor
        # _sha256; emit_report then hashes with hashlib's, to the same name
        code = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from qcoupling.report import emit_report, sha256\n"
            "paths = emit_report(sys.argv[1], 'stem', {'model': 'm'}, ('tails', ['m,tail\\n']))\n"
            "print(sha256.__module__, *(p.name for p in paths))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src},
                             check=True, timeout=60)
        body = json.dumps({"model": "m"}, sort_keys=True, indent=2) + "\n"
        digest = hashlib.sha256((body + "m,tail\n").encode()).hexdigest()[:12]
        assert out.stdout.splitlines()[-1].split() == [
            "_hashlib", f"stem-{digest}.json", f"stem-tails-{digest}.csv"]

    def test_failed_series_leaves_no_file(self, tmp_path):
        def chunks():
            yield "m,tail\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            emit_report(str(tmp_path), "stem", {"model": "m"}, ("tails", chunks()))
        assert list(tmp_path.iterdir()) == []

    def test_failed_summary_write_leaves_no_partial_file(self, tmp_path):
        body = json.dumps({"model": "m"}, sort_keys=True, indent=2) + "\n"
        digest = hashlib.sha256((body + "m,tail\n").encode()).hexdigest()[:12]
        (tmp_path / f"stem-{digest}.json").mkdir()  # the summary cannot be written
        with pytest.raises(InvalidInputError, match="cannot write"):
            emit_report(str(tmp_path), "stem", {"model": "m"}, ("tails", ["m,tail\n"]))
        assert [p.name for p in tmp_path.iterdir()] == [f"stem-{digest}.json"]

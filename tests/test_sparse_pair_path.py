"""The exact path without dense pair-space or dilation matrices.

Each sparse or blockwise form is tested against the dense reference it
replaced, kept here:

- validate_coupling on the stored CSR entries against the dense N^2 x N^2
  sweep, issue string for issue string (a reported index is the first
  maximum in C order): the cycle family, independent couplings, the bundled
  mappings and hypothesis perturbations with ties;
- the sparse cycle and independent-coupling constructions against their
  dense 4-tensor constructions, bit for bit;
- the grand-coupling operator, built once per mapping and read-only;
- the blockwise dilation operators W, W^T, P, R, R0 and G against the dense
  block_diag / kron products, the batched channel route against the
  per-eigenvector loop, and the postselect route, which multiplies only the
  A_k blocks, against the route through the whole of W, bit for bit;

then tracemalloc bounds at hypercube6, each the measured peak plus about
10 %, and the artifact names the exact-n64
and small-sweep benchmark jobs write at seed 0.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import glob
import io
import json
import os
import platform
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coupling_4tensor,
    dense_kraus_ops,
    random_ergodic_chain,
    unitary_completion,
    unstamped_grand_coupling,
)
from qcoupling.chain import ATOL_INPUT, TransitionMatrix
from qcoupling.checks import ValidationReport
from qcoupling.cli import emit_report, main, resolve_model
from qcoupling.coupling import (
    CouplingMatrix,
    grand_coupling_matrix,
    grand_coupling_operator,
    independent_coupling,
    validate_coupling,
)
from qcoupling.csr import Csr
from qcoupling.dilation import (
    build_dilation,
    channel_via_dilation,
    dilation_route_check,
    state_decomposition_check,
)
from qcoupling.evolve import random_density, start_state_rng, uniform_entries
from qcoupling.models import cycle_coupling_model
from qcoupling.quantize import (
    KrausSet,
    c_star_superop,
    choi_matrix,
    kraus_from_grand,
    matrix_to_csv,
)

RMR_MODELS = [
    "hypercube2", "hypercube3", "hypercube4", "colorings-k3-q4", "colorings-path2-q4",
    "hardcore-path3", "hardcore-path4", "hardcore-path5",
]
DIGESTS = Path(__file__).parent / "data" / "artifact_digests.json"


def _model(name, bias=0.5, fugacity=2.0):
    return resolve_model(name, SimpleNamespace(bias=bias, fugacity=fugacity))


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Dense references


def _dense_validate(C: CouplingMatrix) -> ValidationReport:
    """validate_coupling as a sweep over the dense N^2 x N^2 matrix."""
    n = C.n
    E = coupling_4tensor(C)
    P = C.base.entries
    issues, details = [], {}

    colsums = E.reshape(n * n, n * n).sum(axis=0)
    dev = np.abs(colsums - 1.0)
    details["stochastic"] = float(dev.max()) <= ATOL_INPUT
    if not details["stochastic"]:
        j = int(dev.argmax())
        issues.append(f"column idx({j // n},{j % n}) sums to {colsums[j]:.12g} (not stochastic)")

    err_x = np.abs(E.sum(axis=1) - P[:, :, None])
    err_y = np.abs(E.sum(axis=0) - P[:, None, :])
    details["marginals"] = max(float(err_x.max()), float(err_y.max())) <= ATOL_INPUT
    if not details["marginals"]:
        if err_x.max() >= err_y.max():
            i = np.unravel_index(err_x.argmax(), err_x.shape)
            issues.append(f"condition 1 (x-marginal) violated at (x'={i[0]}, x={i[1]}, "
                          f"y={i[2]}) by {err_x.max():.3g}")
        else:
            i = np.unravel_index(err_y.argmax(), err_y.shape)
            issues.append(f"condition 1 (y-marginal) violated at (y'={i[0]}, x={i[1]}, "
                          f"y={i[2]}) by {err_y.max():.3g}")

    diag_block = E[:, :, np.arange(n), np.arange(n)]  # (x', y', x)
    leak = np.abs(diag_block[~np.eye(n, dtype=bool), :])
    stay = np.abs(diag_block[np.arange(n), np.arange(n), :] - P)
    worst2 = max(float(leak.max(initial=0.0)), float(stay.max()))
    details["coalescence"] = worst2 <= ATOL_INPUT
    if not details["coalescence"]:
        issues.append(f"condition 2 (coalescence) violated by {worst2:.3g}")

    asym = np.abs(E - E.transpose(1, 0, 3, 2))
    details["symmetry"] = float(asym.max()) <= ATOL_INPUT
    if not details["symmetry"]:
        i = np.unravel_index(asym.argmax(), asym.shape)
        issues.append(f"condition 3 (symmetry) violated at (x'={i[0]}, y'={i[1]}, x={i[2]}, "
                      f"y={i[3]}) by {asym.max():.3g}")
    return ValidationReport(valid=all(details.values()), issues=issues, details=details)


def _assert_validation_matches_dense(C: CouplingMatrix):
    got, want = validate_coupling(C), _dense_validate(C)
    assert got.issues == want.issues
    assert got.details == want.details
    assert got.valid == want.valid


def _dense_cycle(n: int, p: float, variant: str) -> np.ndarray:
    """The cycle coupling as the dense 4-tensor the model builder used to fill."""
    q = 1.0 - p
    E = np.zeros((n, n, n, n))  # axes (x', y', x, y)
    for x in range(n):
        for y in range(n):
            if x == y:
                E[x, x, x, x] += 0.5
                E[(x + 1) % n, (x + 1) % n, x, x] += p / 2.0
                E[(x - 1) % n, (x - 1) % n, x, x] += q / 2.0
            else:
                E[(x + 1) % n, y, x, y] += p / 2.0
                E[(x - 1) % n, y, x, y] += q / 2.0
                E[x, (y + 1) % n, x, y] += p / 2.0
                E[x, (y - 1) % n, x, y] += q / 2.0
    if variant == "printed":
        for x in range(n):
            for y in range(n):
                if x != y:
                    E[:, :, x, y] *= 2.0
    return E.reshape(n * n, n * n)


def _dense_independent(P: TransitionMatrix) -> np.ndarray:
    n = P.n
    E = P.entries[:, None, :, None] * P.entries[None, :, None, :]
    diag = np.arange(n)
    E[:, :, diag, diag] = 0.0
    xp, x = np.meshgrid(diag, diag, indexing="ij")
    E[xp, xp, x, x] = P.entries
    return E.reshape(n * n, n * n)


def _assert_bit_identical(a: np.ndarray, b: np.ndarray):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


# ---------------------------------------------------------------------------
# validate_coupling from the stored entries


class TestSparseValidation:
    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    @pytest.mark.parametrize("variant", ["prose", "printed"])
    @pytest.mark.parametrize("bias", [0.0, 0.3, 0.5, 1.0])
    def test_cycle_family(self, n, variant, bias):
        _, C = cycle_coupling_model(n, p=bias, variant=variant)
        _assert_bit_identical(C.entries.toarray(), _dense_cycle(n, bias, variant))
        _assert_validation_matches_dense(C)
        assert validate_coupling(C).valid == (variant == "prose")

    @pytest.mark.parametrize("name", RMR_MODELS)
    def test_bundled_mappings(self, name):
        _assert_validation_matches_dense(unstamped_grand_coupling(_model(name).rmr))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_independent_couplings(self, n, seed):
        P = random_ergodic_chain(n, _rng(seed))
        C = independent_coupling(P)
        _assert_bit_identical(C.entries.toarray(), _dense_independent(P))
        _assert_validation_matches_dense(C)
        assert validate_coupling(C).valid

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.sampled_from(["cycle3-prose", "cycle4-prose", "hypercube2", "hardcore-path3"]),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 6),
        levels=st.sampled_from([(0.0, 0.5), (0.0, 0.25, 0.5), (0.0, 1e-13, 2e-12, 0.125)]),
    )
    def test_perturbations_with_ties(self, base, seed, count, levels):
        # a valid coupling with a few entries set to one of few values, so the
        # worst violation of each condition is often tied between positions
        C = _model(base).coupling()
        rng = _rng(seed)
        E = C.entries.toarray()
        rows = rng.integers(0, E.shape[0], size=count)
        cols = rng.integers(0, E.shape[1], size=count)
        E[rows, cols] = rng.choice(np.array(levels), size=count)
        _assert_validation_matches_dense(CouplingMatrix(base=C.base, entries=E))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           levels=st.sampled_from([(0.0, 0.5), (0.0, 0.25, 0.5, 1.0), (0.0, 1e-13, 2e-12)]))
    def test_random_matrices_with_ties(self, n, seed, levels):
        rng = _rng(seed)
        E = rng.choice(np.array(levels), size=(n * n, n * n))
        base = random_ergodic_chain(n, rng) if n > 1 else TransitionMatrix(("0",), np.eye(1))
        _assert_validation_matches_dense(CouplingMatrix(base=base, entries=E))

    def test_empty_matrix(self):
        base = TransitionMatrix(("0", "1"), np.eye(2))
        _assert_validation_matches_dense(CouplingMatrix(base=base, entries=np.zeros((4, 4))))

    def test_sparse_input_is_copied(self, hypercube2):
        # a dense input is copied; a Csr is immutable, so it is kept, unless it
        # stores zeros, which a new matrix leaves out
        E = hypercube2.coupling().entries
        dense = E.toarray()
        C = CouplingMatrix(base=hypercube2.chain, entries=dense)
        assert dense.flags.writeable  # the caller's matrix is left writable
        assert not np.shares_memory(C.entries.data, dense)
        assert not C.entries.data.flags.writeable
        assert CouplingMatrix(base=hypercube2.chain, entries=E).entries is E
        zeros = Csr.from_coo(np.append(E.data, [0.0, -0.0]), np.append(E.rows, [0, 1]),
                             np.append(E.indices, [1, 2]), E.shape)
        kept = CouplingMatrix(base=hypercube2.chain, entries=zeros).entries
        assert kept.nnz == E.nnz
        _assert_bit_identical(kept.toarray(), dense)


# ---------------------------------------------------------------------------
# The grand-coupling operator, built once per mapping


class TestOperatorCache:
    def test_built_once_and_shared(self):
        rmr = _model("hypercube3").rmr
        op = grand_coupling_operator(rmr)
        assert grand_coupling_operator(rmr) is op
        assert rmr._operator is op  # the cache holds the one built
        assert grand_coupling_matrix(rmr).entries is op
        assert np.shares_memory(c_star_superop(rmr).matrix.data, op.data)

    def test_mutating_the_cache_raises(self):
        rmr = _model("hypercube2").rmr
        op = grand_coupling_operator(rmr)
        before = op.toarray()
        for a in (op.data, op.indices, op.indptr, rmr.table, rmr.probs):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        with pytest.raises(TypeError, match="item assignment"):
            op[0, 0] = 1.0  # a stored entry
        with pytest.raises(TypeError, match="item assignment"):
            op[0, 1] = 1.0  # a new one
        _assert_bit_identical(grand_coupling_operator(rmr).toarray(), before)


# ---------------------------------------------------------------------------
# Blockwise dilation against the dense operators


def _dense_operators(circ, ks) -> dict[str, np.ndarray]:
    d, kappa, mu = circ.dim, circ.kappa, circ.mu
    eye = np.eye(circ.total_dim)
    W = scipy.linalg.block_diag(*[unitary_completion(T) for T in dense_kraus_ops(ks)])
    flag0 = np.diag([1.0, 0.0])
    P = np.kron(np.eye(kappa), np.kron(flag0, np.eye(d)))
    R0 = 2.0 * np.kron(np.outer(mu, mu), np.kron(flag0, np.eye(d))) - eye
    R = 2.0 * P - eye
    return {"W": W, "WT": W.T, "P": P, "R": R, "R0": R0, "G": -W @ R0 @ W.T @ R}


def _kraus_sets():
    single = KrausSet([1.0], [[1], [0]])
    out = {"swap-kappa1": single}
    for name in ("hypercube2", "hypercube3", "hardcore-path3"):
        m = _model(name)
        out[name] = kraus_from_grand(m.rmr, m.pi)
    return out


KRAUS = _kraus_sets()


def _channel_loop(circ, rho, mode, dense):
    """channel_via_dilation one eigenvector at a time with the dense operators."""
    d = circ.dim
    w, V = np.linalg.eigh(rho.matrix)
    out, acceptance = np.zeros((d, d)), 0.0
    for lam, v in zip(w, V.T):
        if lam < 1e-10:
            continue
        state = dense["W"] @ circ.initial_state(v / np.linalg.norm(v))
        if mode == "postselect":
            good = (dense["P"] @ state).reshape(circ.kappa, 2, d)[:, 0, :]
            p = float(np.sum(good**2))
            acceptance += lam * p
            out += lam * (good.T @ good) / p
        else:
            state = dense["G"] @ state
            good = state.reshape(circ.kappa, 2, d)[:, 0, :]
            out += lam * (good.T @ good)
    return out, acceptance


def _full_w_postselect(circ, rho):
    """The postselect route through the whole of W: the batch mu (x) |0> (x) V
    with its zero flag-1 half, W applied, the flag-0 rows read off."""
    d = circ.dim
    w, V = np.linalg.eigh(rho.matrix)
    keep = w >= 1e-10
    lam = w[keep]
    V = V[:, keep] / np.linalg.norm(V[:, keep], axis=0)
    states = circ.controlled(circ.initial_states(V))
    good = states.reshape(circ.kappa, 2, d, -1)[:, 0]
    # the route's own reductions: p per column, then a block at a time
    p_accept = np.einsum("kxb,kxb->b", good, good)
    scaled = good * np.sqrt(lam / p_accept)
    out = np.zeros((d, d))
    for g in scaled:
        out += g @ g.T
    return out, float(lam @ p_accept)


class TestBlockwiseDilation:
    @pytest.mark.parametrize("name", sorted(KRAUS))
    def test_operators_match_dense(self, name):
        circ = build_dilation(KRAUS[name])
        dense = _dense_operators(circ, KRAUS[name])
        rng = _rng(5)
        for X in (rng.standard_normal(circ.total_dim), rng.standard_normal((circ.total_dim, 3))):
            got = {
                "W": circ.controlled(X), "WT": circ.controlled(X, transpose=True),
                "P": circ.project_flag(X), "R": circ.reflect_flag(X),
                "R0": circ.reflect_initial(X), "G": circ.grover(X),
            }
            for key, value in got.items():
                assert value.shape == X.shape
                np.testing.assert_allclose(value, dense[key] @ X, rtol=0, atol=1e-13, err_msg=key)
            _assert_bit_identical(got["P"], dense["P"] @ X)
            _assert_bit_identical(got["R"], dense["R"] @ X)

    def test_inputs_left_unchanged(self):
        circ = build_dilation(KRAUS["hypercube2"])
        X = _rng(1).standard_normal((circ.total_dim, 2))
        before = X.copy()
        for op in (circ.controlled, circ.project_flag, circ.reflect_flag,
                   circ.reflect_initial, circ.grover):
            op(X)
        _assert_bit_identical(X, before)

    def test_holds_no_dilation_matrix(self):
        circ = build_dilation(KRAUS["hypercube3"])
        assert [f.name for f in dataclasses.fields(circ)] == ["f", "a", "s", "mu"]
        for name in ("f", "a", "s"):  # no U_k and no (kappa 2d)^2 matrix
            assert getattr(circ, name).shape == (circ.kappa, circ.dim)

    @pytest.mark.parametrize("name", ["hypercube2", "hypercube3", "swap-kappa1"])
    def test_holds_o_kappa_d_numbers(self, name):
        # the successors, nonzeros and fibre sums of each A_k and mu, and
        # after the operators ran, their cached sqrt(1 - s), a g[f] and flat
        # successor index: kappa d numbers each, never kappa (2d)^2
        circ = build_dilation(KRAUS[name])
        circ.grover(np.ones(circ.total_dim))
        held = vars(circ).values()  # the fields and the cached arrays
        assert sum(x.nbytes for x in held) == (6 * circ.dim + 1) * circ.kappa * 8

    @pytest.mark.parametrize("name,mode", [
        ("hypercube2", "postselect"), ("hypercube2", "amplified"),
        ("hypercube3", "postselect"), ("hardcore-path3", "postselect"),
        ("swap-kappa1", "postselect"), ("swap-kappa1", "amplified"),
    ])
    def test_batched_channel_matches_loop(self, name, mode):
        ks = KRAUS[name]
        circ = build_dilation(ks)
        rho = random_density(circ.dim, start_state_rng(7))
        out, info = channel_via_dilation(circ, rho, mode=mode)
        want, acceptance = _channel_loop(circ, rho, mode, _dense_operators(circ, ks))
        np.testing.assert_allclose(out.matrix, want, rtol=0, atol=1e-14)
        if mode == "postselect":
            assert abs(info["acceptance_probability"] - acceptance) <= 1e-15
        assert dilation_route_check(circ, ks, rho, mode=mode).passed

    @pytest.mark.parametrize("name", sorted(KRAUS))
    def test_postselect_keeps_the_full_w_bits(self, name):
        # the flag-1 terms the postselect route leaves out are exact zeros,
        # so its output and acceptance equal the full-W route's bit for bit
        circ = build_dilation(KRAUS[name])
        rho = random_density(circ.dim, start_state_rng(11))
        out, info = channel_via_dilation(circ, rho)
        want, acceptance = _full_w_postselect(circ, rho)
        assert np.array_equal(out.matrix, want)
        assert info["acceptance_probability"] == acceptance


# ---------------------------------------------------------------------------
# Memory at N = 64


@contextlib.contextmanager
def _peak_below(limit_bytes: int):
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_bytes, f"peak {peak / 2**20:.1f} MiB"


class TestMemoryAtN64:
    # each bound is the measured peak plus about 10 %
    def test_coupling_validation_and_c_star(self):
        rmr = _model("hypercube6").rmr  # the operator is not built yet
        with _peak_below(4.75 * 2**20):  # 4.3 MiB; the dense coupling alone was 128 MiB
            C = unstamped_grand_coupling(rmr)  # so that the full N^3 check runs
            assert validate_coupling(C).valid
            c_star_superop(C)

    def test_dilation(self):
        m = _model("hypercube6")
        ks = kraus_from_grand(m.rmr, m.pi)
        rng = start_state_rng(0)
        # 0.58 MiB, the postselect route's flag-0 batch of 64 states (0.38
        # MiB); the batch with its squares or its flattened copy took 0.95
        # MiB, the dense completions held in one (kappa, 2d, 2d) array took
        # 2.4 MiB, building the flag-1 half too 3.2 MiB, a stacked copy of the
        # U_k beside the block encodings 4.7 MiB, and the dense W, P, R and R0
        # were 18.9 MB each
        with _peak_below(1.05 * 2**20):
            circ = build_dilation(ks)
            xi = uniform_entries(rng, (circ.dim,))
            assert state_decomposition_check(circ, xi / np.linalg.norm(xi)).passed
            assert dilation_route_check(circ, ks, random_density(circ.dim, rng)).passed

    def test_quantize_command(self, tmp_path):
        # 2.42 MiB, T and Choi(C*) assembled from the table in row blocks;
        # sorting their whole |R| N^2 entry lists took 3.4 MiB, building
        # Choi(T) beside C* and T for verify_cp 4.0 MiB, the two support
        # eigensolves the Gram matrices replace 6.6 MiB, whole-matrix CSV
        # line lists and gathers 10.8 MiB, and the dense Choi CSV string and
        # its encoded bytes were about 69 MB
        with _peak_below(2.65 * 2**20), contextlib.redirect_stdout(io.StringIO()):
            assert main(["quantize", "--model", "hypercube6", "--out", str(tmp_path)]) == 0

    def test_choi_csv_never_held_whole(self, tmp_path):
        rm = _model("hypercube6")
        J = choi_matrix(c_star_superop(rm.exact_coupling())).matrix
        # 0.21 MiB, the Python objects of one chunk of 1024 lines, below the
        # 1.16 MiB of text written; chunks of 4096 lines took 0.78 MiB, and
        # formatting the whole text and then encoding it 2.6 MiB
        with _peak_below(0.24 * 2**20), contextlib.redirect_stdout(io.StringIO()):
            paths = emit_report(str(tmp_path), "q", {}, ("choi", matrix_to_csv(J, "# h")))
        assert paths[1].stat().st_size > 1.1 * 2**20

    def test_verify_command(self, tmp_path):
        # 1.77 MiB, with one tail vector a step and the trace identity's
        # scatter of three pairs; the per-pair rows of every pair, kept for
        # the trace identity, took 2.32 MiB, the pair-space Csr of the tails
        # and checks 3.44 MiB, the channel's N^2 x N^2 superoperator beside
        # it 4.10 MiB, with the per-pair rows kept to the end 5.6 MiB, and as
        # concatenated parts 7.8 MiB
        argv = ["verify", "--model", "hypercube6", "--m-max", "20", "--out", str(tmp_path)]
        with _peak_below(1.95 * 2**20), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    def test_coalesce_command(self, tmp_path):
        # 0.32 MiB, one tail vector a step and the gather's N x N buffers;
        # the per-pair rows (41 x 4032 doubles, 1.26 MiB) took 1.67 MiB, and
        # the pair-space Csr and its sort 2.88 MiB
        argv = ["coalesce", "--model", "hypercube6", "--m-max", "40", "--out", str(tmp_path)]
        with _peak_below(0.35 * 2**20), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0


class TestMemoryPastN64:
    def test_kraus_set(self):
        # 0.63 MiB at hypercube10 (N = 1024, kappa = 20): the weights, the
        # amplitudes and their squares, N x kappa doubles (160 KiB) each; the
        # list of dense N x N Kraus operators took 184 MiB
        m = _model("hypercube10")
        rmr, pi = m.rmr, m.pi
        with _peak_below(2**20):
            kraus_from_grand(rmr, pi)


# ---------------------------------------------------------------------------
# Artifact names of the benchmark's exact-n64 and small-sweep jobs


def _openblas_config() -> str | None:
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                    "openblas_get_config"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_char_p
                return getattr(lib, sym)().decode()
    return None


def _float_platform() -> dict:
    """What the artifact bytes depend on beyond the code: numpy (no subcommand
    loads scipy) and the BLAS kernel picked for this CPU."""
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "openblas": _openblas_config(),
    }


RECORDED = json.loads(DIGESTS.read_text())


@pytest.mark.skipif(
    _float_platform() != RECORDED["platform"],
    reason="artifact names were recorded with other floating-point libraries or BLAS kernel",
)
@pytest.mark.parametrize("argv", sorted(RECORDED["jobs"]))
def test_artifact_names(argv, tmp_path):
    """File names embed a digest of the content, so equal names mean equal bytes."""
    want = RECORDED["jobs"][argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv.split(), "--out", str(tmp_path)])
    assert code == want["exit"]
    assert sorted(p.name for p in tmp_path.iterdir()) == want["files"]

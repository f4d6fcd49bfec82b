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
- the Kraus residual added up one r at a time against the einsum over the
  (|R|, nnz) gather;
- the blockwise dilation operators W, W^T, P, R, R0 and G against the dense
  block_diag / kron products, and the batched channel route against the
  per-eigenvector loop;

then tracemalloc bounds at hypercube6 and the artifact names the exact-n64
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
import scipy
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coupling_4tensor, random_ergodic_chain
from qcoupling import coupling as coupling_module
from qcoupling.chain import ATOL_INPUT, TransitionMatrix
from qcoupling.checks import ValidationReport
from qcoupling.cli import main, resolve_model
from qcoupling.coupling import (
    CouplingMatrix,
    grand_coupling_matrix,
    grand_coupling_operator,
    independent_coupling,
    pair_transition,
    validate_coupling,
)
from qcoupling.csr import Csr
from qcoupling.dilation import (
    build_dilation,
    channel_via_dilation,
    dilation_route_check,
    state_decomposition_check,
)
from qcoupling.evolve import random_density
from qcoupling.models import cycle_coupling_model
from qcoupling.quantize import (
    KrausSet,
    Superoperator,
    _choi_residual,
    _kraus_residual,
    c_star_superop,
    kraus_from_grand,
    superop_from_kraus,
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
        _assert_validation_matches_dense(_model(name).coupling())

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
        assert pair_transition(rmr) is op
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

    def test_verify_builds_it_once(self, monkeypatch, tmp_path, capsys):
        calls = []
        build = coupling_module.kron_square_sum

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(coupling_module, "kron_square_sum", counting)
        assert main(["verify", "--model", "hypercube6", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Kraus residual one r at a time


def _einsum_kraus_residual(S: Superoperator, ops: list[np.ndarray]) -> float:
    """The residual over the (|R|, nnz) gather that _kraus_residual replaced."""
    n2 = S.dim**2
    flat = np.stack(ops).reshape(len(ops), n2)
    keys = []
    for u in flat:
        p = np.flatnonzero(u)
        keys.append((p[:, None] * n2 + p[None, :]).ravel())
    keys = np.unique(np.concatenate(keys))
    rows, cols = np.divmod(keys, n2)
    form = np.einsum("rk,rk->k", flat[:, rows], flat[:, cols])
    return _choi_residual(S, keys, form)


def _assert_residual_matches(S: Superoperator, ops: list[np.ndarray]):
    got, want = _kraus_residual(S, ops), _einsum_kraus_residual(S, ops)
    scale = max(1.0, float(np.abs(S.matrix.data).max(initial=0.0)))
    assert abs(got - want) <= 1e-13 * scale * max(1.0, want)


class TestKrausResidual:
    @pytest.mark.parametrize("name", RMR_MODELS + ["hypercube6", "hardcore-path8"])
    def test_bundled_models(self, name):
        m = _model(name)
        ks = kraus_from_grand(m.rmr, m.pi)
        T = superop_from_kraus(ks)
        assert T.cp_status == "verified"
        _assert_residual_matches(T, ks.ops)
        # both this form and the superoperator add the r terms in order from 0
        assert _kraus_residual(T, ks.ops) == 0.0
        off = Superoperator(T.dim, T.matrix.toarray() * (1.0 + 1e-3))
        _assert_residual_matches(off, ks.ops)
        assert _kraus_residual(off, ks.ops) > 0.0

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 4), n_ops=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([0.3, 0.6, 1.0]), noise=st.sampled_from([0.0, 1e-6, 0.5]))
    def test_property(self, n, n_ops, seed, density, noise):
        rng = _rng(seed)
        ops = [rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
               for _ in range(n_ops)]
        S = sum(np.kron(T, T) for T in ops)
        S = S + noise * rng.random(S.shape) * (rng.random(S.shape) < 0.3)
        _assert_residual_matches(Superoperator(n, S), ops)


# ---------------------------------------------------------------------------
# Blockwise dilation against the dense operators


def _dense_operators(circ) -> dict[str, np.ndarray]:
    d, kappa, mu = circ.dim, circ.kappa, circ.mu
    eye = np.eye(circ.total_dim)
    W = scipy.linalg.block_diag(*[enc.U for enc in circ.encodings])
    flag0 = np.diag([1.0, 0.0])
    P = np.kron(np.eye(kappa), np.kron(flag0, np.eye(d)))
    R0 = 2.0 * np.kron(np.outer(mu, mu), np.kron(flag0, np.eye(d))) - eye
    R = 2.0 * P - eye
    return {"W": W, "WT": W.T, "P": P, "R": R, "R0": R0, "G": -W @ R0 @ W.T @ R}


def _kraus_sets():
    single = KrausSet(dim=2, ops=[np.array([[0.0, 1.0], [1.0, 0.0]])])
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


class TestBlockwiseDilation:
    @pytest.mark.parametrize("name", sorted(KRAUS))
    def test_operators_match_dense(self, name):
        circ = build_dilation(KRAUS[name])
        dense = _dense_operators(circ)
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
        assert [f.name for f in dataclasses.fields(circ)] == ["dim", "kappa", "encodings", "mu"]

    @pytest.mark.parametrize("name,mode", [
        ("hypercube2", "postselect"), ("hypercube2", "amplified"),
        ("hypercube3", "postselect"), ("hardcore-path3", "postselect"),
        ("swap-kappa1", "postselect"), ("swap-kappa1", "amplified"),
    ])
    def test_batched_channel_matches_loop(self, name, mode):
        ks = KRAUS[name]
        circ = build_dilation(ks)
        rho = random_density(circ.dim, _rng(7))
        out, info = channel_via_dilation(circ, rho, mode=mode)
        want, acceptance = _channel_loop(circ, rho, mode, _dense_operators(circ))
        np.testing.assert_allclose(out.matrix, want, rtol=0, atol=1e-14)
        if mode == "postselect":
            assert abs(info["acceptance_probability"] - acceptance) <= 1e-15
        assert dilation_route_check(circ, ks, rho, mode=mode).passed


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
    def test_coupling_validation_and_c_star(self):
        rmr = _model("hypercube6").rmr  # the operator is not built yet
        with _peak_below(8 * 2**20):  # the dense coupling alone was 128 MiB
            C = grand_coupling_matrix(rmr)
            assert validate_coupling(C).valid
            c_star_superop(C)

    def test_dilation(self):
        m = _model("hypercube6")
        ks = kraus_from_grand(m.rmr, m.pi)
        rng = _rng(0)
        with _peak_below(8 * 2**20):  # the dense W, P, R and R0 were 18.9 MB each
            circ = build_dilation(ks)
            xi = rng.standard_normal(circ.dim)
            assert state_decomposition_check(circ, xi / np.linalg.norm(xi)).passed
            assert dilation_route_check(circ, ks, random_density(circ.dim, rng)).passed

    def test_quantize_command(self, tmp_path):
        # the dense Choi CSV string and its encoded bytes were about 69 MB
        with _peak_below(16 * 2**20), contextlib.redirect_stdout(io.StringIO()):
            assert main(["quantize", "--model", "hypercube6", "--out", str(tmp_path)]) == 0


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
    """What the artifact bytes depend on beyond the code: the floating-point
    libraries and the BLAS kernel picked for this CPU."""
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
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

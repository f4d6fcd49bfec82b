"""Statevector simulation of channels via controlled unitary dilation.

Each Kraus operator A_k (with sum A_k^T A_k = I) is completed to a unitary
U_k on C^2 (x) C^d whose top-left block is A_k. The controlled unitary
W = sum_k |k><k| (x) U_k, applied to the uniform control state, realizes the
channel on the ancilla-|0> branch with input-independent success amplitude
1/sqrt(kappa); that independence is what lets a Grover operator amplify the
branch without any reflection about the (unknown) input state.

The Grover operator used here is G = -W R0 W^T R, where R = 2P - I reflects
about the flag-|0> subspace and R0 = 2P0 - I reflects about the initial-branch
subspace (uniform control, flag |0>, any data state). The single-reflection
variant -W R W^T R is an exact rotation only when every A_k is proportional to
an isometry; coalescing couplings have non-injective mappings, so their Kraus
operators never are, and that variant stalls instead of rotating. Both
reflections avoid the unknown input state, so the amplification stays
oblivious.

Register order everywhere: C^kappa (x) C^2 (x) C^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from qcoupling.chain import ATOL_COMPUTED
from qcoupling.checks import CheckResult
from qcoupling.errors import GuardExceededError, InvalidInputError
from qcoupling.evolve import DensityMatrix
from qcoupling.quantize import KrausSet

DILATION_DIM_GUARD = 4096  # largest kappa * 2d statevector dimension
BLOCK_SUM_TOL = 1e-9  # tolerance on sum B_k^T B_k = (kappa - 1) I
CHANNEL_TOL = 1e-9  # dilation route vs Kraus route, entrywise

# kappa values whose success amplitude 1/sqrt(kappa) admits an exact Grover
# rotation sin((2l+1) theta) = 1: theta = pi/2 (kappa=1) and pi/6 (kappa=4).
EXACT_ROTATION_ITERATIONS = {1: 0, 4: 1}


def sqrtm_psd(M: np.ndarray, clip_tol: float = ATOL_COMPUTED) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clamping tiny negatives."""
    M = np.asarray(M, dtype=float)
    sym_err = np.max(np.abs(M - M.T))
    if sym_err > ATOL_COMPUTED:
        raise InvalidInputError(f"matrix asymmetric by {sym_err:.3g}; no symmetric root")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min(initial=0.0) < -clip_tol:
        raise InvalidInputError(f"matrix has eigenvalue {w.min():.3g} < 0; not PSD")
    root = V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T
    return 0.5 * (root + root.T)


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary U of size 2d x 2d whose top-left d x d block is A."""

    dim: int
    U: np.ndarray
    label: str = ""

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        object.__setattr__(self, "U", U)
        d = self.dim
        if U.shape != (2 * d, 2 * d):
            raise InvalidInputError(f"block encoding must be {2 * d}x{2 * d}")
        err = np.max(np.abs(U.T @ U - np.eye(2 * d)))
        if err > ATOL_COMPUTED:
            raise InvalidInputError(f"block encoding not unitary (error {err:.3g})")

    @property
    def A(self) -> np.ndarray:
        return self.U[: self.dim, : self.dim]

    @property
    def B(self) -> np.ndarray:
        """Lower-left block: the |1>-branch operator (I - A^T A)^{1/2}."""
        return self.U[self.dim :, : self.dim]


def unitary_completion(A: np.ndarray, tol: float = ATOL_COMPUTED) -> BlockEncoding:
    """Complete a contraction A (A^T A <= I) to the unitary
    [[A, (I - A A^T)^{1/2}], [(I - A^T A)^{1/2}, -A^T]]."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError("only square blocks are completed here")
    d = A.shape[0]
    gram = A.T @ A
    top = np.linalg.eigvalsh(0.5 * (gram + gram.T)).max(initial=0.0)
    if top > 1.0 + tol:
        raise InvalidInputError(
            f"block has singular value {np.sqrt(top):.6g} > 1; not a contraction"
        )
    C = sqrtm_psd(np.eye(d) - A @ A.T, clip_tol=tol)
    B = sqrtm_psd(np.eye(d) - A.T @ A, clip_tol=tol)
    U = np.block([[A, C], [B, -A.T]])
    return BlockEncoding(dim=d, U=U)


@dataclass(frozen=True)
class DilationCircuit:
    """Controlled dilation of a Kraus channel, with its Grover operator.

    W acts on C^kappa (x) C^2 (x) C^d; mu is the uniform control state;
    P projects the middle register onto |0>; P0 additionally fixes the control
    register to mu; R = 2P - I, R0 = 2P0 - I; G = -W R0 W^T R, built on
    first use (only the amplified route reads it).
    """

    dim: int
    kappa: int
    encodings: tuple[BlockEncoding, ...]
    W: np.ndarray
    mu: np.ndarray
    P: np.ndarray
    R: np.ndarray
    R0: np.ndarray

    @cached_property
    def G(self) -> np.ndarray:
        return -self.W @ self.R0 @ self.W.T @ self.R

    @property
    def total_dim(self) -> int:
        return self.kappa * 2 * self.dim

    def initial_state(self, xi: np.ndarray) -> np.ndarray:
        """mu (x) |0> (x) xi as a statevector."""
        xi = _unit_vector(xi, self.dim)
        zero = np.zeros(2)
        zero[0] = 1.0
        return np.kron(self.mu, np.kron(zero, xi))

    def good_state(self, xi: np.ndarray) -> np.ndarray:
        """Normalized target sum_k |k> (x) |0> (x) A_k xi (unit norm already,
        since sum A_k^T A_k = I)."""
        xi = _unit_vector(xi, self.dim)
        zero = np.zeros(2)
        zero[0] = 1.0
        out = np.zeros(self.total_dim)
        for k, enc in enumerate(self.encodings):
            e_k = np.zeros(self.kappa)
            e_k[k] = 1.0
            out += np.kron(e_k, np.kron(zero, enc.A @ xi))
        return out / np.linalg.norm(out)


def _unit_vector(xi, d: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (d,):
        raise InvalidInputError(f"input vector must have length {d}")
    nrm = np.linalg.norm(xi)
    if abs(nrm - 1.0) > ATOL_COMPUTED:
        raise InvalidInputError(f"input vector not normalized (norm {nrm:.12g})")
    return xi


def build_dilation(kraus: KrausSet) -> DilationCircuit:
    """Assemble W, mu, R and R0 from a Kraus set (G follows on first use).

    Asserts the completion identity sum_k B_k^T B_k = (kappa - 1) I within
    1e-9, which is what makes the success amplitude input-independent.
    """
    d = kraus.dim
    kappa = len(kraus.ops)
    total = kappa * 2 * d
    if total > DILATION_DIM_GUARD:
        raise GuardExceededError(
            f"statevector dimension kappa*2d = {total} exceeds {DILATION_DIM_GUARD}"
        )
    encodings = tuple(
        unitary_completion(T) for T in kraus.ops
    )
    block_sum = sum(enc.B.T @ enc.B for enc in encodings)
    err = np.max(np.abs(block_sum - (kappa - 1) * np.eye(d)))
    if err > BLOCK_SUM_TOL:
        raise InvalidInputError(
            f"sum B_k^T B_k = (kappa-1) I violated by {err:.3g}"
        )

    W = np.zeros((total, total))
    for k, enc in enumerate(encodings):
        sl = slice(k * 2 * d, (k + 1) * 2 * d)
        W[sl, sl] = enc.U
    mu = np.full(kappa, 1.0 / np.sqrt(kappa))
    P_mid = np.zeros((2, 2))
    P_mid[0, 0] = 1.0
    P = np.kron(np.eye(kappa), np.kron(P_mid, np.eye(d)))
    R = 2.0 * P - np.eye(total)
    P0 = np.kron(np.outer(mu, mu), np.kron(P_mid, np.eye(d)))
    R0 = 2.0 * P0 - np.eye(total)
    return DilationCircuit(
        dim=d, kappa=kappa, encodings=encodings, W=W, mu=mu, P=P, R=R, R0=R0
    )


def state_decomposition_check(circ: DilationCircuit, xi: np.ndarray) -> CheckResult:
    """Branch structure of Phi = W (mu (x) |0> (x) xi).

    The ancilla-|0> branch must equal (1/sqrt(kappa)) sum_k |k> (x) A_k xi with
    norm exactly 1/sqrt(kappa); the complementary branch has norm
    sqrt(1 - 1/kappa); both normalized branch states are unit vectors.
    """
    phi = circ.W @ circ.initial_state(xi)
    good = circ.P @ phi
    bad = phi - good
    s = np.linalg.norm(good)
    c = np.linalg.norm(bad)
    s_target = 1.0 / np.sqrt(circ.kappa)
    c_target = np.sqrt(1.0 - 1.0 / circ.kappa)
    expected_good = s_target * circ.good_state(xi)
    branch_err = float(np.max(np.abs(good - expected_good)))
    norm_err = max(abs(s - s_target), abs(c - c_target))
    unit_err = abs(s**2 + c**2 - 1.0)
    passed = max(branch_err, norm_err, unit_err) <= ATOL_COMPUTED
    return CheckResult(
        name="dilation_state_decomposition",
        passed=passed,
        lhs=norm_err,
        rhs=0.0,
        tolerance=ATOL_COMPUTED,
        details={
            "good_norm": float(s),
            "bad_norm": float(c),
            "branch_entry_error": branch_err,
        },
    )


def amplify_and_extract(
    circ: DilationCircuit, xi: np.ndarray, iterations: int
) -> tuple[np.ndarray, float]:
    """Apply G^iterations to W(mu (x) |0> (x) xi); return the state and its
    (signed) overlap with the normalized ancilla-|0> target.

    The overlap follows sin((2l+1) theta) with sin theta = 1/sqrt(kappa), so
    exact-rotation kappa values reach overlap 1.
    """
    if iterations < 0:
        raise InvalidInputError("iterations must be nonnegative")
    state = circ.W @ circ.initial_state(xi)
    for _ in range(iterations):
        state = circ.G @ state
    fidelity = float(circ.good_state(xi) @ state)
    return state, fidelity


def channel_via_dilation(
    circ: DilationCircuit, rho: DensityMatrix, mode: str = "postselect"
) -> tuple[DensityMatrix, dict]:
    """Run each eigenvector of rho through the circuit and mix the outputs.

    ``postselect`` projects the ancilla onto |0> and renormalizes, reporting
    the acceptance probability (always 1/kappa); ``amplified`` runs the exact
    Grover rotation instead and needs no postselection. Either way the reduced
    state on C^d equals sum_k A_k rho A_k^T.
    """
    if mode not in ("postselect", "amplified"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "amplified":
        if circ.kappa not in EXACT_ROTATION_ITERATIONS:
            raise InvalidInputError(
                f"amplified mode supports exact-rotation kappa "
                f"{sorted(EXACT_ROTATION_ITERATIONS)} only, got kappa={circ.kappa}; "
                "use postselect"
            )
        iterations = EXACT_ROTATION_ITERATIONS[circ.kappa]

    d = circ.dim
    w, V = np.linalg.eigh(rho.matrix)
    out = np.zeros((d, d))
    acceptance = 0.0
    for lam, v in zip(w, V.T):
        if lam < ATOL_COMPUTED:
            continue
        v = v / np.linalg.norm(v)
        if mode == "postselect":
            phi = circ.W @ circ.initial_state(v)
            good = (circ.P @ phi).reshape(circ.kappa, 2, d)[:, 0, :]
            p_accept = float(np.sum(good**2))
            acceptance += lam * p_accept
            out += lam * (good.T @ good) / p_accept
        else:
            state, _ = amplify_and_extract(circ, v, iterations)
            good = state.reshape(circ.kappa, 2, d)[:, 0, :]
            out += lam * (good.T @ good)

    info = {"mode": mode}
    if mode == "postselect":
        info["acceptance_probability"] = acceptance
        info["expected_acceptance"] = 1.0 / circ.kappa
    else:
        info["iterations"] = iterations
    return DensityMatrix(out), info


def dilation_route_check(
    circ: DilationCircuit, kraus: KrausSet, rho: DensityMatrix, mode: str = "postselect"
) -> CheckResult:
    """Dilation route equals the Kraus route entrywise within 1e-9."""
    via_dilation, info = channel_via_dilation(circ, rho, mode=mode)
    via_kraus = kraus.apply(rho.matrix)
    err = float(np.max(np.abs(via_dilation.matrix - via_kraus)))
    passed = err <= CHANNEL_TOL
    if mode == "postselect":
        acc_err = abs(info["acceptance_probability"] - 1.0 / circ.kappa)
        passed = passed and acc_err <= ATOL_COMPUTED
        info["acceptance_error"] = acc_err
    return CheckResult(
        name="dilation_route_equality",
        passed=passed,
        lhs=err,
        rhs=0.0,
        tolerance=CHANNEL_TOL,
        details=info,
    )

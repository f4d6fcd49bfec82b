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

Register order everywhere: C^kappa (x) C^2 (x) C^d. W is block-diagonal and
every projector is diagonal or acts on one register, so the circuit stores
only the U_k, in one (kappa, 2d, 2d) array, and applies each operator to the
(kappa, 2, d) view of a state: its memory is kappa (2d)^2 numbers, not
(kappa 2d)^2.
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


def sqrtm_psd(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clamping tiny negatives."""
    M = np.asarray(M, dtype=float)
    sym_err = np.max(np.abs(M - M.T))
    if sym_err > ATOL_COMPUTED:
        raise InvalidInputError(f"matrix asymmetric by {sym_err:.3g}; no symmetric root")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min(initial=0.0) < -ATOL_COMPUTED:
        raise InvalidInputError(f"matrix has eigenvalue {w.min():.3g} < 0; not PSD")
    root = V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T
    return 0.5 * (root + root.T)


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary U of size 2d x 2d whose top-left d x d block is A."""

    dim: int
    U: np.ndarray

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


def unitary_completion(A: np.ndarray) -> BlockEncoding:
    """Complete a contraction A (A^T A <= I) to the unitary
    [[A, (I - A A^T)^{1/2}], [(I - A^T A)^{1/2}, -A^T]]."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError("only square blocks are completed here")
    d = A.shape[0]
    gram = A.T @ A
    top = np.linalg.eigvalsh(0.5 * (gram + gram.T)).max(initial=0.0)
    if top > 1.0 + ATOL_COMPUTED:
        raise InvalidInputError(
            f"block has singular value {np.sqrt(top):.6g} > 1; not a contraction"
        )
    C = sqrtm_psd(np.eye(d) - A @ A.T)
    B = sqrtm_psd(np.eye(d) - A.T @ A)
    U = np.block([[A, C], [B, -A.T]])
    return BlockEncoding(dim=d, U=U)


@dataclass(frozen=True)
class DilationCircuit:
    """Controlled dilation of a Kraus channel, with its Grover operator.

    Holds only the block encodings U_k, as one (kappa, 2d, 2d) array
    ``unitaries``, and the uniform control state mu; every operator acts on a
    state, or a batch of states as the columns of a (kappa 2d) x b array,
    through its (kappa, 2, d, b) view:

    - W = sum_k |k><k| (x) U_k multiplies block k by U_k (W^T by U_k^T);
    - P projects the middle register onto |0>, zeroing the flag-1 half, and
      R = 2P - I negates that half;
    - P0 also projects the control register onto mu, and R0 = 2P0 - I;
    - G = -W R0 W^T R.

    No (kappa 2d)^2 matrix is formed. The postselect channel route needs only
    the A_k, the (kappa, d, d) view ``unitaries[:, :d, :d]``; the B_k and C_k
    blocks serve the bad branch, the Grover operator and the completion
    identity.
    """

    dim: int
    kappa: int
    unitaries: np.ndarray  # (kappa, 2d, 2d): U_k = unitaries[k]
    mu: np.ndarray

    @cached_property
    def encodings(self) -> tuple[BlockEncoding, ...]:
        """The U_k as block encodings: views into ``unitaries``, not copies."""
        return tuple(BlockEncoding(self.dim, U) for U in self.unitaries)

    @property
    def total_dim(self) -> int:
        return self.kappa * 2 * self.dim

    def _blocks(self, states: np.ndarray) -> np.ndarray:
        """(kappa, 2, d, b) view of a state (b = 1) or of a batch of column states."""
        states = np.asarray(states, dtype=float)
        if states.ndim not in (1, 2) or states.shape[0] != self.total_dim:
            raise InvalidInputError(f"states must have {self.total_dim} rows")
        return states.reshape(self.kappa, 2, self.dim, -1)

    def controlled(self, states: np.ndarray, transpose: bool = False) -> np.ndarray:
        """W states, or W^T states: U_k (or U_k^T) applied to block k."""
        U = self.unitaries.transpose(0, 2, 1) if transpose else self.unitaries
        blocks = self._blocks(states).reshape(self.kappa, 2 * self.dim, -1)
        return np.matmul(U, blocks).reshape(np.shape(states))

    def project_flag(self, states: np.ndarray) -> np.ndarray:
        """P states: the flag-|0> branch."""
        blocks = self._blocks(states).copy()
        blocks[:, 1] = 0.0
        return blocks.reshape(np.shape(states))

    def reflect_flag(self, states: np.ndarray) -> np.ndarray:
        """R states = (2P - I) states."""
        blocks = self._blocks(states).copy()
        blocks[:, 1] *= -1.0
        return blocks.reshape(np.shape(states))

    def reflect_initial(self, states: np.ndarray) -> np.ndarray:
        """R0 states = (2P0 - I) states, P0 = mu mu^T (x) |0><0| (x) I."""
        blocks = self._blocks(states)
        overlap = np.tensordot(self.mu, blocks[:, 0], axes=1)  # (d, b)
        out = -blocks
        out[:, 0] += 2.0 * self.mu[:, None, None] * overlap
        return out.reshape(np.shape(states))

    def grover(self, states: np.ndarray) -> np.ndarray:
        """G states = -W R0 W^T R states."""
        turned = self.controlled(self.reflect_flag(states), transpose=True)
        return -self.controlled(self.reflect_initial(turned))

    def initial_states(self, xis: np.ndarray) -> np.ndarray:
        """mu (x) |0> (x) xi for each column xi of a d x b array, unchecked."""
        xis = np.asarray(xis, dtype=float).reshape(self.dim, -1)
        blocks = np.zeros((self.kappa, 2, self.dim, xis.shape[1]))
        blocks[:, 0] = self.mu[:, None, None] * xis
        return blocks.reshape(self.total_dim, -1)

    def initial_state(self, xi: np.ndarray) -> np.ndarray:
        """mu (x) |0> (x) xi as a statevector."""
        return self.initial_states(_unit_vector(xi, self.dim))[:, 0]

    def good_state(self, xi: np.ndarray) -> np.ndarray:
        """Normalized target sum_k |k> (x) |0> (x) A_k xi (unit norm already,
        since sum A_k^T A_k = I)."""
        xi = _unit_vector(xi, self.dim)
        out = np.zeros((self.kappa, 2, self.dim))
        d = self.dim
        out[:, 0] = [U[:d, :d] @ xi for U in self.unitaries]  # A_k xi
        out = out.reshape(-1)
        return out / np.linalg.norm(out)


def _unit_vector(xi, d: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (d,):
        raise InvalidInputError(f"input vector must have length {d}")
    nrm = np.linalg.norm(xi)
    if abs(nrm - 1.0) > ATOL_COMPUTED:
        raise InvalidInputError(f"input vector not normalized (norm {nrm:.12g})")
    return xi


def require_dilation_dim(kappa: int, d: int):
    """The dilation's limit: kappa Kraus operators on C^d need kappa * 2d <=
    DILATION_DIM_GUARD. Checkable before the Kraus set is built."""
    total = kappa * 2 * d
    if total > DILATION_DIM_GUARD:
        raise GuardExceededError(
            f"statevector dimension kappa*2d = {total} exceeds {DILATION_DIM_GUARD}"
        )


def require_mode(kappa: int, mode: str) -> int:
    """Grover iterations ``mode`` runs on kappa Kraus operators: none for
    postselect, the exact rotation's count for amplified, which admits only
    the kappa in EXACT_ROTATION_ITERATIONS. Checkable before the Kraus set is
    built."""
    if mode == "postselect":
        return 0
    if mode != "amplified":
        raise InvalidInputError(f"unknown mode {mode!r}")
    if kappa not in EXACT_ROTATION_ITERATIONS:
        raise InvalidInputError(
            f"amplified mode supports exact-rotation kappa "
            f"{sorted(EXACT_ROTATION_ITERATIONS)} only, got kappa={kappa}; "
            "use postselect"
        )
    return EXACT_ROTATION_ITERATIONS[kappa]


def build_dilation(kraus: KrausSet) -> DilationCircuit:
    """Complete each Kraus operator to its block encoding U_k; mu is uniform.

    Each completion is copied into its slice of the circuit's one
    (kappa, 2d, 2d) array as it is made. Asserts the completion identity
    sum_k B_k^T B_k = (kappa - 1) I within 1e-9, which is what makes the
    success amplitude input-independent.
    """
    d = kraus.dim
    kappa = len(kraus.ops)
    require_dilation_dim(kappa, d)
    unitaries = np.empty((kappa, 2 * d, 2 * d))
    block_sum = np.zeros((d, d))
    for T, U in zip(kraus.ops, unitaries):
        enc = unitary_completion(T)
        U[...] = enc.U
        block_sum += enc.B.T @ enc.B
    err = np.max(np.abs(block_sum - (kappa - 1) * np.eye(d)))
    if err > BLOCK_SUM_TOL:
        raise InvalidInputError(
            f"sum B_k^T B_k = (kappa-1) I violated by {err:.3g}"
        )
    mu = np.full(kappa, 1.0 / np.sqrt(kappa))
    return DilationCircuit(dim=d, kappa=kappa, unitaries=unitaries, mu=mu)


def state_decomposition_check(circ: DilationCircuit, xi: np.ndarray) -> CheckResult:
    """Branch structure of Phi = W (mu (x) |0> (x) xi).

    The ancilla-|0> branch must equal (1/sqrt(kappa)) sum_k |k> (x) A_k xi with
    norm exactly 1/sqrt(kappa); the complementary branch has norm
    sqrt(1 - 1/kappa); both normalized branch states are unit vectors.
    """
    phi = circ.controlled(circ.initial_state(xi))
    good = circ.project_flag(phi)
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
    state = circ.controlled(circ.initial_state(xi))
    for _ in range(iterations):
        state = circ.grover(state)
    fidelity = float(circ.good_state(xi) @ state)
    return state, fidelity


def channel_via_dilation(
    circ: DilationCircuit, rho: DensityMatrix, mode: str = "postselect"
) -> tuple[DensityMatrix, dict]:
    """Run rho's eigenvectors through the circuit as one batch; mix the outputs.

    ``postselect`` keeps the ancilla-|0> branch and renormalizes, reporting
    the acceptance probability (always 1/kappa). Each eigenvector v enters W
    as mu (x) |0> (x) v, so that branch is A_k (mu_k v) in block k: only the
    top-left d x d blocks of the U_k are multiplied, and the flag-1 half of
    the batch is never formed. ``amplified`` runs the exact Grover rotation
    on the full W instead and needs no postselection. Either way the reduced
    state on C^d equals sum_k A_k rho A_k^T.
    """
    iterations = require_mode(circ.kappa, mode)

    d = circ.dim
    w, V = np.linalg.eigh(rho.matrix)
    keep = w >= ATOL_COMPUTED
    lam = w[keep]
    V = V[:, keep] / np.linalg.norm(V[:, keep], axis=0)
    if mode == "postselect":
        good = np.matmul(circ.unitaries[:, :d, :d], circ.mu[:, None, None] * V)
        p_accept = np.sum(good**2, axis=(0, 1))
        acceptance = float(lam @ p_accept)
        weights = lam / p_accept
    else:
        states = circ.controlled(circ.initial_states(V))
        for _ in range(iterations):
            states = circ.grover(states)
        good = states.reshape(circ.kappa, 2, d, -1)[:, 0]  # (kappa, d, b)
        weights = lam
    # sum over eigenvectors b and blocks k of weights[b] g_kb g_kb^T
    good *= np.sqrt(weights)
    flat = good.transpose(1, 0, 2).reshape(d, -1)
    out = flat @ flat.T

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

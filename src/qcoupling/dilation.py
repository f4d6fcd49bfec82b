"""Statevector simulation of channels via controlled unitary dilation.

Each Kraus operator A_k (with sum A_k^T A_k = I) is completed to Halmos's
unitary dilation (Halmos 1950)

    U_k = [[A_k, (I - A_k A_k^T)^{1/2}], [(I - A_k^T A_k)^{1/2}, -A_k^T]]

on C^2 (x) C^d, whose top-left block is A_k. The controlled unitary
W = sum_k |k><k| (x) U_k, applied to the uniform control state, realizes the
channel on the ancilla-|0> branch with input-independent success amplitude
1/sqrt(kappa); that independence is what lets a Grover operator amplify the
branch without any reflection about the (unknown) input state.

A :class:`~qcoupling.quantize.KrausSet` holds each A_k as a column of its
successor table: A_k[x, f_k(x)] = a_k(x) is the only nonzero of row x, so
both square roots are closed forms. A_k^T A_k is diagonal, with entries
s_k(z) = sum_{f_k(x) = z} a_k(x)^2, so the lower-left block B_k is
diag(sqrt(1 - s_k)). A_k A_k^T is block-diagonal over the fibres
of f_k, each block the rank-one a_F a_F^T with |a_F|^2 = s_k(z), so the
upper-right block is I - sum_F g_k(z) a_F a_F^T, with
g = (1 - sqrt(1 - s)) / s = 1 / (1 + sqrt(1 - s)). Applying U_k or U_k^T to a
state is a gather, a bincount over the fibres and a scatter.

The Grover operator used here is G = -W R0 W^T R, where R = 2P - I reflects
about the flag-|0> subspace and R0 = 2P0 - I reflects about the initial-branch
subspace (uniform control, flag |0>, any data state). The single-reflection
variant -W R W^T R is an exact rotation only when every A_k is proportional to
an isometry; coalescing couplings have non-injective mappings, so their Kraus
operators never are, and that variant stalls instead of rotating. Both
reflections avoid the unknown input state, so the amplification stays
oblivious.

Register order everywhere: C^kappa (x) C^2 (x) C^d. W is block-diagonal and
every projector is diagonal or acts on one register, so each operator acts on
the (kappa, 2, d) view of a state, and the circuit holds O(kappa d) numbers:
no U_k and no (kappa 2d)^2 matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from qcoupling.chain import ATOL_COMPUTED
from qcoupling.checks import CheckResult
from qcoupling.errors import InvalidInputError
from qcoupling.evolve import DensityMatrix
from qcoupling.quantize import KrausSet

CHANNEL_TOL = 1e-9  # dilation route vs Kraus route, entrywise

# kappa values whose success amplitude 1/sqrt(kappa) admits an exact Grover
# rotation sin((2l+1) theta) = 1: theta = pi/2 (kappa=1) and pi/6 (kappa=4).
EXACT_ROTATION_ITERATIONS = {1: 0, 4: 1}


@dataclass(frozen=True)
class DilationCircuit:
    """Controlled dilation of a Kraus channel, with its Grover operator.

    Holds each A_k as its successors and nonzeros, A_k[x, f[k, x]] = a[k, x],
    the diagonal s[k] of A_k^T A_k, and the uniform control state mu. Every
    operator acts on a state, or a batch of states as the columns of a
    (kappa 2d) x b array, through its (kappa, 2, d, b) view:

    - W = sum_k |k><k| (x) U_k applies U_k to block k (W^T applies U_k^T);
    - P projects the middle register onto |0>, zeroing the flag-1 half, and
      R = 2P - I negates that half;
    - P0 also projects the control register onto mu, and R0 = 2P0 - I;
    - G = -W R0 W^T R.
    """

    f: np.ndarray  # (kappa, d) successors f_k(x)
    a: np.ndarray  # (kappa, d) nonzeros a_k(x)
    s: np.ndarray  # (kappa, d) s_k(z), the diagonal of A_k^T A_k
    mu: np.ndarray  # (kappa,) uniform control state

    @property
    def kappa(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @property
    def total_dim(self) -> int:
        return self.kappa * 2 * self.dim

    @cached_property
    def _complement(self) -> np.ndarray:
        """sqrt(1 - s_k): the diagonal of B_k = (I - A_k^T A_k)^{1/2}."""
        return np.sqrt(np.clip(1.0 - self.s, 0.0, None))

    @cached_property
    def _fibre_weight(self) -> np.ndarray:
        """a_k(x) g_k(f_k(x)): C_k w = w - a g[f] (A_k^T w)[f] is the upper-right block."""
        g = 1.0 / (1.0 + self._complement)
        return self.a * np.take_along_axis(g, self.f, axis=1)

    @cached_property
    def _targets(self) -> np.ndarray:
        """k d + f_k(x) for each (k, x): the flat index of row x's nonzero."""
        return (np.arange(self.kappa)[:, None] * self.dim + self.f).ravel()

    def _gather(self, w: np.ndarray) -> np.ndarray:
        """w_k[f_k(x)] for each (k, x) of a (kappa, d, b) array."""
        return w.reshape(-1, w.shape[-1])[self._targets].reshape(w.shape)

    def _adjoint(self, w: np.ndarray) -> np.ndarray:
        """A_k^T w_k for each block k: (A^T w)[z] = sum_{f(x) = z} a(x) w[x]."""
        b = w.shape[-1]
        bins = (self._targets[:, None] * b + np.arange(b)).ravel()
        sums = np.bincount(bins, weights=(self.a[:, :, None] * w).ravel(), minlength=bins.size)
        return sums.reshape(w.shape)

    def _blocks(self, states: np.ndarray) -> np.ndarray:
        """(kappa, 2, d, b) view of a state (b = 1) or of a batch of column states."""
        states = np.asarray(states, dtype=float)
        if states.ndim not in (1, 2) or states.shape[0] != self.total_dim:
            raise InvalidInputError(f"states must have {self.total_dim} rows")
        return states.reshape(self.kappa, 2, self.dim, -1)

    def controlled(self, states: np.ndarray, transpose: bool = False) -> np.ndarray:
        """W states, or W^T states, block by block:

        U_k [u; v] = [A u + C v; B u - A^T v] and
        U_k^T [u; v] = [A^T u + B v; C u - A v].
        """
        blocks = self._blocks(states)
        u, v = blocks[:, 0], blocks[:, 1]
        a = self.a[:, :, None]
        root = self._complement[:, :, None]
        ag = self._fibre_weight[:, :, None]
        out = np.empty_like(blocks)
        if transpose:
            at_u = self._adjoint(u)
            out[:, 0] = at_u + root * v
            out[:, 1] = u - ag * self._gather(at_u) - a * self._gather(v)
        else:
            at_v = self._adjoint(v)
            out[:, 0] = a * self._gather(u) + v - ag * self._gather(at_v)
            out[:, 1] = root * u - at_v
        return out.reshape(np.shape(states))

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
        out[:, 0] = self.a * xi[self.f]  # A_k xi
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
    """f_k and a_k are column k of the table and of its amplitudes; mu is uniform.

    The :class:`KrausSet`'s Kraus condition, checked within 1e-10 when it was
    built, is the completion identity sum_k s_k = 1, i.e.
    sum_k B_k^T B_k = (kappa - 1) I, which makes the success amplitude
    input-independent; with s_k >= 0 it makes each A_k a contraction
    (s_k <= 1 + 1e-10). Any other type is refused.
    """
    if not isinstance(kraus, KrausSet):
        raise InvalidInputError(f"the dilation needs a KrausSet, not {type(kraus).__name__}")
    f, a = kraus.table.T, kraus.amplitudes.T  # [k, x]
    kappa, d = f.shape
    bins = (np.arange(kappa)[:, None] * d + f).ravel()
    s = np.bincount(bins, weights=(a**2).ravel(), minlength=kappa * d).reshape(kappa, d)
    return DilationCircuit(f=f, a=a, s=s, mu=np.full(kappa, 1.0 / np.sqrt(kappa)))


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
    as mu (x) |0> (x) v, so that branch is A_k (mu_k v) in block k, the gather
    a_k(x) mu_k v[f_k(x)]: the flag-1 half of the batch is never formed.
    ``amplified`` runs the exact Grover rotation on the full W instead and
    needs no postselection. Either way the reduced state on C^d equals
    sum_k A_k rho A_k^T.
    """
    iterations = require_mode(circ.kappa, mode)

    d = circ.dim
    w, V = np.linalg.eigh(rho.matrix)
    keep = w >= ATOL_COMPUTED
    lam = w[keep]
    V = V[:, keep] / np.linalg.norm(V[:, keep], axis=0)
    if mode == "postselect":
        good = V[circ.f]  # (kappa, d, b)
        good *= circ.mu[:, None, None]
        good *= circ.a[:, :, None]
        p_accept = np.einsum("kxb,kxb->b", good, good)  # no squared copy of the batch
        acceptance = float(lam @ p_accept)
        weights = lam / p_accept
    else:
        states = circ.controlled(circ.initial_states(V))
        for _ in range(iterations):
            states = circ.grover(states)
        good = states.reshape(circ.kappa, 2, d, -1)[:, 0]  # (kappa, d, b)
        weights = lam
    # sum over eigenvectors b and blocks k of weights[b] g_kb g_kb^T, a block
    # at a time, so that the batch is never copied
    good *= np.sqrt(weights)
    out = np.zeros((d, d))
    for g in good:
        out += g @ g.T

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

import math

import numpy as np
import pytest

from qcoupling import quantize
from qcoupling.coupling import CouplingMatrix, grand_coupling_operator
from qcoupling.models import (
    colorings_model,
    complete_graph,
    hardcore_model,
    hypercube_model,
    path_graph,
)


@pytest.fixture(scope="session")
def hypercube2():
    return hypercube_model(2)


@pytest.fixture(scope="session")
def hypercube3():
    return hypercube_model(3)


@pytest.fixture(scope="session")
def hardcore_p3_lam2():
    return hardcore_model(path_graph(3), 2.0)


@pytest.fixture(scope="session")
def hardcore_p3_lam_half():
    return hardcore_model(path_graph(3), 0.5)


@pytest.fixture(scope="session")
def colorings_k3_q4():
    return colorings_model(complete_graph(3), 4)


def random_ergodic_chain(n: int, rng: np.random.Generator):
    """Strictly positive column-stochastic matrix (hence ergodic)."""
    from qcoupling.chain import TransitionMatrix

    cols = rng.dirichlet(np.ones(n), size=n).T + 1e-3
    cols /= cols.sum(axis=0)
    return TransitionMatrix(tuple(str(i) for i in range(n)), cols)


def coupling_4tensor(C) -> np.ndarray:
    """A coupling's entries as a new dense array with axes (x', y', x, y): the
    reference the sparse pair-space code is tested against."""
    n = C.n
    return C.entries.toarray().reshape(n, n, n, n)


def unstamped_grand_coupling(rmr) -> CouplingMatrix:
    """A mapping's grand coupling as a plain CouplingMatrix, without the report
    ``grand_coupling_matrix`` stamps on it by construction, so that
    validate_coupling runs its full check of the stored entries."""
    return CouplingMatrix(base=rmr.base, entries=grand_coupling_operator(rmr))


@pytest.fixture
def eigensolves(monkeypatch):
    """Record the maps passed to quantize.verify_cp through the module attribute:
    the calls made inside qcoupling.quantize. A test's own verify_cp, imported
    by name, is not recorded."""
    calls = []
    verify_cp = quantize.verify_cp

    def counting(S, *args, **kwargs):
        calls.append(S)
        return verify_cp(S, *args, **kwargs)

    monkeypatch.setattr(quantize, "verify_cp", counting)
    return calls


def coupon_collector_tail(n: int, m: int) -> float:
    """Exact Pr{some of n coupons unseen after m draws} by inclusion-exclusion:
    the closed form that the hypercube's exact and MC tails are compared with."""
    total = 0.0
    for k in range(1, n + 1):
        total += (-1) ** (k + 1) * math.comb(n, k) * (1.0 - k / n) ** m
    return min(1.0, max(0.0, total))

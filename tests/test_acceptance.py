"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test aggregates its sub-checks into a failure list, prints exactly one
``[acceptance] criterion NN <name>: PASS|FAIL (T s)`` line outside pytest's
capture, and then asserts. Tolerances are pinned inline; runtime budgets are
asserted as well.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from qcoupling.chain import distance_to_stationary, mixing_time
from qcoupling.coupling import (
    coalescence_tail_exact,
    coalescence_tail_mc,
    check_tail_submultiplicativity,
    independent_coupling,
)
from qcoupling.dilation import (
    amplify_and_extract,
    build_dilation,
    dilation_route_check,
    state_decomposition_check,
)
from qcoupling.evolve import (
    DensityMatrix,
    coalescence_trace_identity_check,
    gentle_measurement_step_check,
    laplacian_preservation_check,
    main_theorem_check,
    qperp_bound_check,
    qsample,
    random_density,
    rescaled_qperp_decomposition_check,
)
from qcoupling.models import (
    colorings_model,
    complete_graph,
    contraction_rate_check,
    cycle_coupling_model,
    hardcore_model,
    hypercube_model,
    hypercube_worst_pair,
    load_counterexample_fixture,
    path_graph,
)
from qcoupling.quantize import (
    c_star_superop,
    choi_matrix,
    independent_choi_structure_check,
    is_completely_positive,
    kraus_from_grand,
    min_choi_eigenvalue,
    quantized_coupling,
    superop_from_kraus,
)

from conftest import random_ergodic_chain

MC_SEED = 2026


def conclude(capsys, num, name, failures, started, budget):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(
            f"\n[acceptance] criterion {num:02d} {name}: {status} ({elapsed:.2f}s)",
            flush=True,
        )
    assert not failures, f"criterion {num:02d} {name}: " + "; ".join(failures)
    assert elapsed <= budget, f"criterion {num:02d} exceeded {budget}s ({elapsed:.2f}s)"


def expect(failures, cond, msg):
    if not cond:
        failures.append(msg)


@lru_cache(maxsize=None)
def exact_model(kind):
    return {
        "hypercube1": lambda: hypercube_model(1),
        "hypercube2": lambda: hypercube_model(2),
        "hypercube3": lambda: hypercube_model(3),
        "colorings_k3_q4": lambda: colorings_model(complete_graph(3), 4),
        "hardcore_p3_lam2": lambda: hardcore_model(path_graph(3), 2.0),
        "hardcore_p3_half": lambda: hardcore_model(path_graph(3), 0.5),
    }[kind]()


@lru_cache(maxsize=None)
def hypercube8_mc_report(workers):
    model = hypercube_model(8)
    pair = hypercube_worst_pair(8)
    return coalescence_tail_mc(
        model.rmr, [pair], m_grid=[10, 20, 33], samples=100_000,
        seed=MC_SEED, workers=workers,
    )


@lru_cache(maxsize=None)
def colorings_path5_mc_check(workers):
    model = colorings_model(path_graph(5), 7)
    grid = [model.n_sites * k for k in range(1, 15)]
    return contraction_rate_check(
        model, grid, mode="mc", samples=10_000, seed=MC_SEED, workers=workers
    )


def verified_channel(model):
    ks = kraus_from_grand(model.rmr, model.pi)
    return ks, superop_from_kraus(ks)


def test_criterion_01_counterexample_fixture(capsys):
    started = time.perf_counter()
    failures = []
    fx = load_counterexample_fixture()
    _, C = cycle_coupling_model(3, 0.5, variant="printed")
    J = choi_matrix(c_star_superop(C), order="basis_first")

    expect(failures, np.max(np.abs(J.matrix.toarray() - fx["matrix"])) <= 1e-12,
           "Choi matrix differs from the bundled 9x9 fixture")
    expect(failures, set(np.unique(J.matrix.toarray())) <= {0.0, 0.25, 0.5},
           "Choi entries are not drawn from {0, 1/4, 1/2}")
    eigs = np.sort(J.eigenvalues)
    expect(failures,
           np.max(np.abs(eigs - np.asarray(fx["eigenvalues_2digits"]))) <= 0.01,
           "eigenvalues differ from the recorded values by more than 0.01")
    expect(failures, abs(eigs.sum() - 3.0) <= 1e-9,
           f"eigenvalue sum {eigs.sum()!r} != 3 within 1e-9")
    expect(failures, eigs[0] < 0.0, "smallest eigenvalue is not negative")
    expect(failures, not is_completely_positive(J), "fixture map judged CP")
    conclude(capsys, 1, "counterexample fixture", failures, started, budget=1.0)


def test_criterion_02_independent_coupling_cp(capsys):
    started = time.perf_counter()
    failures = []
    rng = np.random.Generator(np.random.Philox(20260824))
    for i in range(100):
        n = 2 + i % 5
        P = random_ergodic_chain(n, rng)
        J = choi_matrix(c_star_superop(independent_coupling(P)))
        floor = -1e-9 * float(np.max(np.abs(J.matrix.toarray())))
        expect(failures, min_choi_eigenvalue(J) >= floor,
               f"chain {i} (n={n}): independent-coupling Choi not PSD")
        res = independent_choi_structure_check(P)
        expect(failures, res.passed and res.lhs <= 1e-12,
               f"chain {i} (n={n}): Choi block decomposition off by {res.lhs:.3g}")
        if failures:
            break
    conclude(capsys, 2, "independent coupling CP", failures, started, budget=30.0)


def test_criterion_03_quantized_channels(capsys):
    started = time.perf_counter()
    failures = []
    kinds = ["hypercube1", "hypercube2", "hypercube3",
             "colorings_k3_q4", "hardcore_p3_half", "hardcore_p3_lam2"]
    for kind in kinds:
        model = exact_model(kind)
        ks, S = verified_channel(model)
        n = model.n
        norm = sum(T.T @ T for T in ks.ops)
        expect(failures, np.max(np.abs(norm - np.eye(n))) <= 1e-10,
               f"{kind}: Kraus normalization violated")
        J = choi_matrix(S)
        expect(failures,
               min_choi_eigenvalue(J) >= -1e-9 * float(np.max(np.abs(J.matrix.toarray()))),
               f"{kind}: channel Choi not PSD")
        # quantized_coupling itself enforces T*(I) = I and T(Q) = Q at 1e-10
        try:
            T, _ = quantized_coupling(model.coupling(), model.pi)
        except Exception as exc:  # noqa: BLE001 - reported as a criterion failure
            failures.append(f"{kind}: quantized coupling rejected: {exc}")
            continue
        expect(failures, np.max(np.abs(T.matrix.toarray() - S.matrix.toarray())) <= 1e-10,
               f"{kind}: Kraus route disagrees with similarity-transform route")
    conclude(capsys, 3, "quantized channel structure", failures, started, budget=60.0)


def test_criterion_04_lemma_suite(capsys):
    started = time.perf_counter()
    failures = []
    for kind in ("hypercube3", "hardcore_p3_lam2"):
        model = exact_model(kind)
        C = model.coupling()
        n = model.n
        for x in range(n):
            for y in range(x + 1, n):
                res = laplacian_preservation_check(C, x, y)
                expect(failures, res.passed and res.lhs <= 1e-12,
                       f"{kind}: Laplacian preservation fails at ({x},{y})")
        res = rescaled_qperp_decomposition_check(model.pi)
        expect(failures, res.passed and res.lhs <= 1e-12,
               f"{kind}: rescaled Qperp decomposition off by {res.lhs:.3g}")
        res = coalescence_trace_identity_check(C, 20)
        expect(failures, res.passed and res.lhs <= 1e-10,
               f"{kind}: trace identity off by {res.lhs:.3g}")

        q = qsample(model.pi)
        for k in range(1, 21):
            delta = 10.0 ** (-4.0 + 3.0 * (k - 1) / 19.0)  # 1e-4 .. 1e-1
            rho = DensityMatrix((1 - delta) * q.projector + delta * np.eye(n) / n)
            res = gentle_measurement_step_check(rho, q, eps=2.0 * delta)
            expect(failures, res.passed and res.details["precondition_holds"],
                   f"{kind}: gentle measurement fails at delta={delta:.3g}")

        _, S = verified_channel(model)
        rng = np.random.Generator(np.random.Philox(4))
        rho0s = [random_density(n, rng) for _ in range(50)]
        report = coalescence_tail_exact(C, m_max=40)
        res = qperp_bound_check(S, model.pi, report, rho0s, list(range(21)))
        expect(failures, res.passed,
               f"{kind}: Qperp overlap bound violated ({res.details})")

        for m in range(1, 11):
            for l in range(1, 5):
                lhs = report.tail_at(m * l)
                rhs = report.tail_at(m) ** l
                expect(failures, lhs <= rhs + 1e-10,
                       f"{kind}: tail({m}*{l}) > tail({m})^{l}")
        res = check_tail_submultiplicativity(C, 10, 4)
        expect(failures, res.passed,
               f"{kind}: diagonal-block identity fails in submultiplicativity check")
    conclude(capsys, 4, "projector lemma suite", failures, started, budget=120.0)


def test_criterion_05_main_theorem(capsys):
    started = time.perf_counter()
    failures = []
    model = exact_model("hypercube3")
    _, S = verified_channel(model)
    report = coalescence_tail_exact(model.coupling(), m_max=10)
    expect(failures, report.t_couple == 7, f"t_couple = {report.t_couple}, not 7")

    pi_star = float(model.pi.weights.min())
    schedule = {
        eps: math.ceil(0.5 * math.log2(1.0 / (eps * pi_star))) * 7
        for eps in (0.25, 0.04, 0.01)
    }
    expect(failures, schedule == {0.25: 21, 0.04: 28, 0.01: 35},
           f"unexpected iteration schedule {schedule}")

    rng = np.random.Generator(np.random.Philox(5))
    rho0s = [DensityMatrix(np.diag(np.eye(8)[i])) for i in range(8)]
    rho0s += [random_density(8, rng) for _ in range(20)]
    res = main_theorem_check(S, model.pi, report, rho0s, [0.25, 0.04, 0.01])
    expect(failures, res.passed,
           f"convergence bound violated by {res.lhs:.3g} ({res.details})")
    conclude(capsys, 5, "convergence theorem", failures, started, budget=60.0)


def test_criterion_06_coalescence_tails(capsys):
    started = time.perf_counter()
    failures = []
    report = hypercube8_mc_report(workers=1)
    tail = report.tail_at(33)
    ci = float(report.ci_half[list(report.m_values).index(33)])
    bound = math.exp(-2.0) + 3.0 * ci
    expect(failures, tail <= bound,
           f"hypercube8 MC tail at m=33 is {tail:.4f} > e^-2 + 3 CI = {bound:.4f}")

    report2 = coalescence_tail_exact(exact_model("hypercube2").coupling(), m_max=10)
    for m in range(1, 11):
        expect(failures, abs(report2.tail_at(m) - 2.0 ** (1 - m)) <= 1e-12,
               f"hypercube2 exact tail({m}) != 2^(1-m)")
    expect(failures, report2.t_couple == 3,
           f"hypercube2 t_couple = {report2.t_couple}, not 3")
    conclude(capsys, 6, "coalescence tails", failures, started, budget=30.0)


def test_criterion_07_contraction_rates(capsys):
    started = time.perf_counter()
    failures = []
    res = colorings_path5_mc_check(workers=1)
    expect(failures, res.passed and not res.details.get("vacuous", False),
           f"colorings path5 q=7 MC tails exceed the rate envelope ({res.details})")
    expect(failures, res.details["rate"] == pytest.approx(1.0 / 7.0),
           f"colorings rate constant {res.details['rate']} != 1/7")

    model = exact_model("hardcore_p3_half")
    grid = [model.n_sites * k for k in range(1, 15)]
    res = contraction_rate_check(model, grid, mode="exact")
    expect(failures, res.passed and not res.details.get("vacuous", False),
           f"hardcore lambda=1/2 exact tails exceed the rate envelope ({res.details})")
    expect(failures, res.details["rate"] == pytest.approx(1.0 / 3.0),
           f"hardcore rate constant {res.details['rate']} != 1/3")
    conclude(capsys, 7, "contraction rate envelopes", failures, started, budget=60.0)


def test_criterion_08_dilation(capsys):
    started = time.perf_counter()
    failures = []
    model = exact_model("hypercube2")
    ks = kraus_from_grand(model.rmr, model.pi)
    circ = build_dilation(ks)
    expect(failures, circ.kappa == 4 and circ.dim == 4, "unexpected dilation shape")

    block_sum = sum(enc.B.T @ enc.B for enc in circ.encodings)
    expect(failures, np.max(np.abs(block_sum - 3.0 * np.eye(4))) <= 1e-9,
           "sum of B_k^T B_k != (kappa - 1) I within 1e-9")

    rng = np.random.Generator(np.random.Philox(8))
    for i in range(20):
        xi = rng.standard_normal(4)
        xi /= np.linalg.norm(xi)
        res = state_decomposition_check(circ, xi)
        ok = (res.passed
              and abs(res.details["good_norm"] - 0.5) <= 1e-10
              and abs(res.details["bad_norm"] - math.sqrt(3) / 2) <= 1e-10)
        expect(failures, ok, f"branch decomposition fails for input {i}")
        _, fid = amplify_and_extract(circ, xi, 1)
        expect(failures, fid >= 1 - 1e-9,
               f"one amplification round leaves fidelity {fid:.12f} for input {i}")

    for i in range(20):
        res = dilation_route_check(circ, ks, random_density(4, rng))
        ok = (res.passed and res.lhs <= 1e-9
              and abs(res.details["acceptance_probability"] - 0.25) <= 1e-10)
        expect(failures, ok, f"postselected dilation route fails for state {i}")
    conclude(capsys, 8, "unitary dilation", failures, started, budget=10.0)


def test_criterion_09_mixing_bounds(capsys):
    started = time.perf_counter()
    failures = []
    bundled = [(kind, exact_model(kind).chain, exact_model(kind).coupling())
               for kind in ("hypercube1", "hypercube2", "hypercube3",
                            "colorings_k3_q4", "hardcore_p3_half",
                            "hardcore_p3_lam2")]
    chain3, C3 = cycle_coupling_model(3, 0.5, variant="prose")
    bundled.append(("cycle3_prose", chain3, C3))
    for kind, P, C in bundled:
        report = coalescence_tail_exact(C, m_max=20)
        for m in range(21):
            d = distance_to_stationary(P, m)
            expect(failures, d <= report.tail_at(m) + 1e-10,
                   f"{kind}: d({m}) = {d:.6g} exceeds the coupling tail")
        t_quarter = mixing_time(P, 0.25)
        for eps in (1 / 8, 1 / 16):
            t_eps = mixing_time(P, eps)  # raises if the log2 relation fails
            expect(failures,
                   t_eps <= math.ceil(math.log2(1 / eps)) * t_quarter,
                   f"{kind}: t_mix({eps}) breaks the doubling bound")
    conclude(capsys, 9, "mixing vs coalescence", failures, started, budget=30.0)


def test_criterion_10_mc_determinism(capsys):
    started = time.perf_counter()
    failures = []
    base = hypercube8_mc_report(workers=1).to_csv(include_pairs=True)
    rerun = coalescence_tail_mc(
        hypercube_model(8).rmr, [hypercube_worst_pair(8)],
        m_grid=[10, 20, 33], samples=100_000, seed=MC_SEED, workers=1,
    ).to_csv(include_pairs=True)
    expect(failures, base == rerun, "hypercube8 MC differs between identical runs")
    expect(failures, base == hypercube8_mc_report(workers=4).to_csv(include_pairs=True),
           "hypercube8 MC differs between 1 and 4 workers")

    first = colorings_path5_mc_check(workers=1)
    expect(failures, first.details == colorings_path5_mc_check(workers=4).details,
           "colorings path5 MC differs between 1 and 4 workers")
    model = colorings_model(path_graph(5), 7)
    grid = [model.n_sites * k for k in range(1, 15)]
    rerun = contraction_rate_check(
        model, grid, mode="mc", samples=10_000, seed=MC_SEED, workers=1
    )
    expect(failures, first.details == rerun.details,
           "colorings path5 MC differs between identical runs")
    conclude(capsys, 10, "Monte Carlo determinism", failures, started, budget=120.0)

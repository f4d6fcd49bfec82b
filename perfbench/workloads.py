"""Workloads: lists of qcoupling CLI jobs, each with its expected exit code and
an oracle that checks the job's artifacts.

The seed reaches the program only as ``--seed``. No job passes ``--workers``
and none sets ``QCOUPLING_NO_NUMBA``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXACT_TOL = 1e-12  # exact tails against the coupon-collector formula
MC_CI_MULTIPLE = 3.0  # MC tails within this many ci_half of the exact value


@dataclass
class Artifacts:
    """The files one job wrote: its JSON summary and its CSV series by label."""

    summary: dict
    series: dict[str, Path]

    def rows(self, label: str) -> list[dict[str, float]]:
        with open(self.series[label], newline="") as fh:
            return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


Oracle = Callable[[Artifacts], list[str]]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    oracle: Oracle
    exit_code: int = 0
    deterministic: bool = False  # artifacts must repeat byte for byte within a run
    mc_steps: int = 0  # MC trajectory-steps: samples x max grid m x start pairs

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def model(self) -> str:
        return self.argv[self.argv.index("--model") + 1]

    def flag(self, name: str) -> str | None:
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None


# ---------------------------------------------------------------------------
# Oracles


def coupon_collector_tail(n: int, m: int) -> float:
    """Pr{some of n coupons unseen after m draws}, in exact rational arithmetic."""
    total = sum(
        (-1) ** (k + 1) * math.comb(n, k) * Fraction(n - k, n) ** m for k in range(1, n + 1)
    )
    return float(total)


def _all(*oracles: Oracle) -> Oracle:
    return lambda a: [p for o in oracles for p in o(a)]


def _fields(**expected) -> Oracle:
    def check(a: Artifacts) -> list[str]:
        return [
            f"{k} is {a.summary.get(k)!r}, expected {v!r}"
            for k, v in expected.items()
            if a.summary.get(k) != v
        ]
    return check


def _checks_pass(a: Artifacts) -> list[str]:
    problems = [] if a.summary.get("pass") is True else ["summary pass is not true"]
    checks = a.summary.get("checks") or []
    if not checks:
        problems.append("summary lists no checks")
    return problems + [f"check {c.get('check')} failed" for c in checks if c.get("pass") is not True]


def _choi_trace(n_states: int) -> Oracle:
    """A trace-preserving map's Choi matrix has trace N."""
    def check(a: Artifacts) -> list[str]:
        total = a.summary.get("choi_eigenvalue_sum", math.nan)
        if not abs(total - n_states) <= 1e-8 * n_states:
            return [f"Choi eigenvalue sum {total} != {n_states}"]
        return []
    return check


def _same_inertia(a: Artifacts) -> list[str]:
    """T is C* conjugated by a positive diagonal: both are CP or neither is."""
    s = a.summary
    if "channel_cp" in s and s["channel_cp"] != s.get("cp"):
        return [f"channel_cp {s['channel_cp']} disagrees with cp {s.get('cp')}"]
    return []


def _counterexample(src: Path) -> Oracle:
    fixture = json.loads((src / "qcoupling/data/counterexample_choi_n3.json").read_text())
    expected = min(fixture["eigenvalues_2digits"])

    def check(a: Artifacts) -> list[str]:
        got = a.summary.get("choi_min_eigenvalue", math.nan)
        if a.summary.get("cp") is not False:
            return ["counterexample reported as CP"]
        if round(got, 2) != expected:
            return [f"min Choi eigenvalue {got} does not round to the fixture's {expected}"]
        return []
    return check


def _tails_monotone(a: Artifacts) -> list[str]:
    tails = [r["tail_max"] for r in a.rows("tails")]
    if not tails:
        return ["empty tails series"]
    if any(not -EXACT_TOL <= t <= 1.0 + EXACT_TOL for t in tails):
        return ["tail outside [0, 1]"]
    if any(b > a_ + 1e-12 for a_, b in zip(tails, tails[1:])):
        return ["tails increase with m"]
    return []


def _exact_coupon(n: int) -> Oracle:
    def check(a: Artifacts) -> list[str]:
        return [
            f"tail at m={int(r['m'])} is {r['tail_max']!r}, coupon collector gives {want!r}"
            for r in a.rows("tails")
            if abs(r["tail_max"] - (want := coupon_collector_tail(n, int(r["m"])))) > EXACT_TOL
        ]
    return check


def _mc_coupon(n: int) -> Oracle:
    def check(a: Artifacts) -> list[str]:
        problems = []
        for r in a.rows("tails"):
            want = coupon_collector_tail(n, int(r["m"]))
            ci_half = r["tail_ci_hi"] - r["tail_max"]
            if abs(r["tail_max"] - want) > MC_CI_MULTIPLE * ci_half:
                problems.append(
                    f"MC tail at m={int(r['m'])} is {r['tail_max']!r}, exact {want!r}, "
                    f"beyond {MC_CI_MULTIPLE} x ci_half {ci_half!r}"
                )
        return problems
    return check


def _overlap_bound(a: Artifacts) -> list[str]:
    """tr(Qperp T^m rho) <= tail(m) / pi_*, and trace distance never increases."""
    rows = a.rows("trace")
    problems = [
        f"overlap {r['qperp_overlap']!r} exceeds bound {r['qperp_bound']!r} at m={int(r['m'])}"
        for r in rows
        if r["qperp_overlap"] > r["qperp_bound"] + 1e-10
    ]
    dist = [r["trace_distance"] for r in rows]
    if any(b > a_ + 1e-10 for a_, b in zip(dist, dist[1:])):
        problems.append("trace distance to the qsample increases")
    return problems


def _model_summary(n_states: int) -> Oracle:
    """The summary's stationary vector sums to 1 and is fixed by the chain."""
    def check(a: Artifacts) -> list[str]:
        pi = a.summary["stationary"]
        P = a.summary["chain"]["P"]
        problems = [] if a.summary.get("n_states") == n_states else ["wrong state count"]
        if abs(sum(pi) - 1.0) > 1e-12:
            problems.append("stationary vector does not sum to 1")
        moved = max(abs(sum(P[i][j] * pi[j] for j in range(len(pi))) - pi[i]) for i in range(len(pi)))
        if moved > 1e-12:
            problems.append(f"stationary vector moved by {moved:.3g} under the chain")
        return problems
    return check


# ---------------------------------------------------------------------------
# Workloads


def _job(cmd: str, oracle: Oracle, **kw) -> Job:
    return Job(tuple(cmd.split()), oracle, **kw)


def exact_n64(seed: int, src: Path) -> list[Job]:
    h = "--model hypercube6"
    return [
        _job(f"quantize {h}", _all(_fields(cp=True, channel_cp=True), _choi_trace(64))),
        _job(f"verify {h} --m-max 20 --seed {seed}", _checks_pass),
        _job(f"coalesce {h} --m-max 40", _all(_fields(mode="exact"), _exact_coupon(6))),
        _job(f"dilate {h} --seed {seed}", _checks_pass),
    ]


def mc_tails(seed: int, src: Path) -> list[Job]:
    mc = f"--mc --samples 100000 --seed {seed}"
    sampled = _fields(mode="monte_carlo", samples=100000, seed=seed)
    return [
        # hypercube runs its single worst pair; other models run 5 seeded pairs
        _job(f"coalesce --model hypercube12 {mc} --m-grid 10 20 40 80 160",
             _all(sampled, _tails_monotone, _mc_coupon(12)),
             deterministic=True, mc_steps=100000 * 160 * 1),
        _job(f"coalesce --model hardcore-path10 {mc} --m-grid 10 40 80 160",
             _all(sampled, _tails_monotone), deterministic=True, mc_steps=100000 * 160 * 5),
    ]


def small_sweep(seed: int, src: Path) -> list[Job]:
    s = f"--seed {seed}"
    return [
        _job("validate --model cycle3-printed", _fields(**{"pass": False}), exit_code=1),
        _job("quantize --model cycle3-printed", _all(_counterexample(src), _choi_trace(3))),
        _job("quantize --model cycle5-prose --bias 0.7", _all(_same_inertia, _choi_trace(5))),
        _job("validate --model hypercube3", _fields(**{"pass": True})),
        _job("coalesce --model hypercube3", _all(_fields(mode="exact"), _exact_coupon(3))),
        _job("evolve --model hypercube3", _overlap_bound),
        _job(f"verify --model hypercube3 {s}", _checks_pass),
        _job(f"dilate --model hypercube3 {s}", _checks_pass),
        _job(f"verify --model hardcore-path3 --fugacity 0.5 {s}", _checks_pass),
        _job(f"verify --model colorings-k3-q4 {s}", _checks_pass),
        _job("quantize --model colorings-k3-q4",
             _all(_fields(cp=True, channel_cp=True), _choi_trace(24))),
        _job(f"evolve --model hardcore-path4 --rho0 random {s}", _overlap_bound),
        _job(f"dilate --model hypercube2 --mode amplified {s}",
             _all(_checks_pass, _fields(kappa=4, mode="amplified"))),
        _job("coalesce --model colorings-path3-q4 --m-max 30",
             _all(_fields(mode="exact"), _tails_monotone)),
        _job("model --model hardcore-path5", _model_summary(13)),
        _job(f"verify --model hardcore-path5 {s}", _checks_pass),
    ]


# name -> (seed, src directory) -> jobs; why each was chosen is in BENCHMARK.json
WORKLOADS: dict[str, Callable[[int, Path], list[Job]]] = {
    "exact-n64": exact_n64,
    "mc-tails": mc_tails,
    "small-sweep": small_sweep,
}

"""Tests of the benchmark harness itself: python3 -m pytest -q perfbench"""

import re
import sys
from pathlib import Path

import pytest

import run
from jobs import JobResult
from metrics import LAYERS, load_spec
from tracing import SPANS, Span, Tracer, aggregate, install, uncovered_share, uninstall, useful_steps
from workloads import WORKLOADS, Artifacts, coupon_collector_tail

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, *children, **info):
    return Span(name, start, end, list(children), info)


# ---------------------------------------------------------------------------
# Span arithmetic


def test_self_time_subtracts_children_and_harness_work():
    kernel = span("kernels.counts", 2.0, 5.0)
    harness = span("harness.useful_steps", 5.0, 6.0)
    mc = span("coupling.mc", 1.0, 8.0, kernel, harness)
    emit = span("cli.emit", 8.5, 9.0)
    job = span("job", 0.0, 10.0, mc, emit)
    assert mc.self_time == pytest.approx(3.0)
    agg = aggregate([job])
    assert agg["coupling.mc"]["self_s"] == pytest.approx(3.0)
    assert agg["kernels.counts"]["self_s"] == pytest.approx(3.0)
    assert "harness.useful_steps" not in agg and "job" not in agg
    # job wall without harness work is 9 s; layers cover 6 + 0.5 of it
    assert uncovered_share(job) == pytest.approx(2.5 / 9.0)


def test_aggregate_sums_counters_and_takes_peak_maximum():
    a = span("quantize.choi_eig", 0.0, 1.0, eigensolves=1, peak_mb=5.0)
    b = span("quantize.choi_eig", 1.0, 1.5, eigensolves=0, peak_mb=9.0)
    agg = aggregate([span("job", 0.0, 2.0, a, b)])["quantize.choi_eig"]
    assert (agg["calls"], agg["eigensolves"], agg["peak_mb"]) == (2, 1, 9.0)
    assert agg["self_s"] == pytest.approx(1.5)


def test_tracer_nests_spans_and_records_memory_peak():
    tracer = Tracer()
    with tracer.span("job"):
        with tracer.span("quantize.verify_cp"):
            with tracer.span("quantize.choi_build"):
                block = bytearray(8 << 20)
            del block
    job = tracer.jobs[0]
    outer = job.children[0]
    inner = outer.children[0]
    assert [s.name for s in job.walk()] == ["job", "quantize.verify_cp", "quantize.choi_build"]
    assert inner.info["peak_mb"] >= 8.0
    assert outer.info["peak_mb"] >= inner.info["peak_mb"]


def test_useful_steps_matches_a_trajectory_loop():
    table = [[1, 2], [2, 0], [2, 1]]
    r_idx = [[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]]
    want = 0
    for row in r_idx:
        x, y = 0, 1
        for r in row:
            if x == y:
                break
            want += 1
            x, y = table[x][r], table[y][r]
    assert useful_steps(table, r_idx, 0, 1) == want
    assert useful_steps(table, r_idx, 2, 2) == 0


def test_install_resolves_every_span_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import qcoupling.cli as cli
    import qcoupling.coupling as coupling
    from qcoupling.quantize import ChoiMatrix

    original = coupling.validate_coupling
    eigenvalues = ChoiMatrix.__dict__["eigenvalues"]
    tracer = Tracer()
    restore, missing = install(tracer)
    try:
        assert missing == []
        assert cli.validate_coupling is coupling.validate_coupling is not original
        assert cli.validate_coupling.__wrapped__ is original
        assert ChoiMatrix.__dict__["eigenvalues"] is not eigenvalues
        with tracer.span("job"):
            cli.resolve_model("hypercube2", None).coupling()
    finally:
        uninstall(restore)
    assert cli.validate_coupling is original
    assert ChoiMatrix.__dict__["eigenvalues"] is eigenvalues
    names = [s.name for s in tracer.jobs[0].walk()]
    # grand_coupling_matrix calls validate_coupling through its module globals
    assert names == ["job", "models.build", "coupling.grand_coupling", "coupling.validate"]


# ---------------------------------------------------------------------------
# Oracles


def _artifacts(tmp_path, summary, tails=None):
    series = {}
    if tails is not None:
        path = tmp_path / "tails.csv"
        path.write_text(tails)
        series["tails"] = path
    return Artifacts(summary, series)


def _job(workload, prefix):
    return next(j for j in WORKLOADS[workload](3, ROOT / "src") if j.key.startswith(prefix))


def test_oracle_rejects_counterexample_reported_as_cp(tmp_path):
    job = _job("small-sweep", "quantize --model cycle3-printed")
    good = {"cp": False, "choi_min_eigenvalue": -1.0447, "choi_eigenvalue_sum": 3.0}
    assert job.oracle(_artifacts(tmp_path, good)) == []
    assert job.oracle(_artifacts(tmp_path, {**good, "cp": True}))
    assert job.oracle(_artifacts(tmp_path, {**good, "choi_min_eigenvalue": -1.2}))


def test_oracle_rejects_exact_tail_off_by_1e_6(tmp_path):
    job = _job("exact-n64", "coalesce")
    rows = [(m, coupon_collector_tail(6, m)) for m in range(41)]
    csv = "m,tail_max\n" + "".join(f"{m},{t:.17g}\n" for m, t in rows)
    assert job.oracle(_artifacts(tmp_path, {"mode": "exact"}, csv)) == []
    rows[12] = (12, rows[12][1] + 1e-6)
    csv = "m,tail_max\n" + "".join(f"{m},{t:.17g}\n" for m, t in rows)
    assert job.oracle(_artifacts(tmp_path, {"mode": "exact"}, csv))


def test_oracle_rejects_mc_tail_outside_its_interval(tmp_path):
    job = _job("mc-tails", "coalesce --model hypercube12")
    summary = {"mode": "monte_carlo", "samples": 100000, "seed": 3}
    exact = coupon_collector_tail(12, 40)
    ok = f"m,tail_max,tail_ci_hi\n40,{exact + 0.001!r},{exact + 0.004!r}\n"
    bad = f"m,tail_max,tail_ci_hi\n40,{exact + 0.02!r},{exact + 0.023!r}\n"
    assert job.oracle(_artifacts(tmp_path, summary, ok)) == []
    assert job.oracle(_artifacts(tmp_path, summary, bad))


def test_oracle_rejects_failed_check(tmp_path):
    job = _job("exact-n64", "verify")
    checks = [{"check": "qperp_bound", "pass": True}, {"check": "main_theorem", "pass": False}]
    assert job.oracle(_artifacts(tmp_path, {"pass": True, "checks": checks[:1]})) == []
    assert job.oracle(_artifacts(tmp_path, {"pass": True, "checks": checks}))


def test_coupon_collector_tail_small_cases():
    assert coupon_collector_tail(2, 1) == 1.0
    assert coupon_collector_tail(2, 2) == 0.5
    assert coupon_collector_tail(3, 2) == 1.0
    assert coupon_collector_tail(1, 5) == 0.0


# ---------------------------------------------------------------------------
# Checks across executions


def test_determinism_flags_a_differing_repeat():
    job = _job("mc-tails", "coalesce --model hardcore-path10")
    first = JobResult(job.key, 0, 1.0, digests={"a.csv": "1"})
    same = JobResult(job.key, 0, 1.0, digests={"a.csv": "1"})
    other = JobResult(job.key, 0, 1.0, digests={"a.csv": "2"})
    run.check_determinism([job], [first, same, other])
    assert not first.failed and not same.failed and other.failed


def test_span_problems_name_missing_targets_and_silent_layers():
    agg = {"coupling.mc": {"calls": 2}, "kernels.counts": {"calls": 0}}
    problems = run.span_problems("mc-tails", agg, ["qcoupling.kernels.coalescence_counts"])
    assert problems[0] == "span target qcoupling.kernels.coalescence_counts not found"
    assert any("kernels.counts" in p for p in problems[1:])
    assert not any("coupling.mc " in p for p in problems)
    # no layer listed for exact-n64 is in agg, so every one of them is reported
    silent = run.span_problems("exact-n64", {}, [])
    assert any("quantize.choi_eig " in p for p in silent)
    assert not any("kernels.counts" in p for p in silent)


def test_digest_changes_counts_only_referenced_jobs():
    results = [JobResult("a", 0, 1.0, digests={"x": "1", "y": "2"}),
               JobResult("b", 0, 1.0, digests={"z": "3"})]
    assert run.digest_changes(results, {"a": {"x": "1", "y": "9"}}) == (1, 2)


# ---------------------------------------------------------------------------
# Metric names and BENCHMARK.json


def test_benchmark_json_names_match_the_harness():
    spec = load_spec()
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    names = [m["name"] for m in (*e2e, *layers)]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in (*e2e, *layers))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in layers] == list(LAYERS)
    moved = {m["name"] for m in e2e} | {"mc_steps_per_s"}
    assert all(set(m.moves) <= moved and set(m.on) <= set(WORKLOADS) for m in LAYERS.values())


def test_span_sources_name_recorded_layers():
    recorded = set(SPANS.values())
    assert all(m.span[0] in recorded for m in LAYERS.values() if m.span)

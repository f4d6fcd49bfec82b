"""Benchmark of the qcoupling CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-n64 --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. A workload is a list of real CLI jobs
(see ``workloads.py``). With ``--trace 0`` each job is a fresh
``python -m qcoupling.cli`` process run from the checkout's ``src``; whole
passes over the job list repeat until ``--seconds`` of them are measured
(at least one). On a 2-vCPU host one pass of each workload outlasts the
``run_seconds`` of BENCHMARK.json, so a run makes one pass and its ``wall_s``
is one sample; only the median over runs smooths it. Set-up time is measured
separately in fresh interpreters.
With ``--trace 1`` the jobs are replayed in this process, once plain and once
with layer spans installed (``tracing.py``); that run prints the per-layer
metrics. Every job's exit code and artifacts are checked by its oracle, a
job that must be deterministic must write the same files each time it runs
(a one-pass run checks this only in its traced form, which runs every job
twice), and the artifacts are deleted after each job.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics and their
units are those ``BENCHMARK.json`` lists. The full record (provenance, every
job, every span) goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from jobs import JobResult, job_env, run_in_process, run_process
from metrics import LAYERS, load_spec
from tracing import MEMORY_LAYERS, Tracer, aggregate, install, uncovered_share, uninstall
from workloads import WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
RUN_BUDGET_S = 150.0  # no pass starts that would end the run past this
SETUP_REPEATS = 7

SETUP = """\
import sys
import qcoupling.cli as cli
parser = cli.build_parser()
for argv in sys.argv[1:]:
    args = parser.parse_args(argv.split())
    cli.resolve_model(args.model, args)
"""

PROVENANCE = """\
import ctypes, glob, importlib.util, json, os, platform, sys
import numpy, scipy
from qcoupling import kernels

def blas_threads():
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return getattr(lib, sym)()
    return None

print(json.dumps({
    "nproc": os.cpu_count(),
    "affinity": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas_threads": blas_threads(),
    "mc_backend": kernels.DEFAULT_BACKEND,
    "numba_present": importlib.util.find_spec("numba") is not None,
}))
"""


# ---------------------------------------------------------------------------
# Checks that span several executions of a job


def check_determinism(jobs: list[Job], results: list[JobResult]):
    """Executions of a deterministic job in one run must write identical files."""
    first = {}
    for r in results:
        job = next(j for j in jobs if j.key == r.key)
        if not job.deterministic or r.exit_code != job.exit_code:
            continue
        if first.setdefault(r.key, r.digests) != r.digests:
            r.problems.append("artifacts differ from this job's first execution in the run")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def digest_changes(results: list[JobResult], reference: dict) -> tuple[int, int]:
    """(artifacts whose sha256 differs from the reference, artifacts compared)."""
    changed = compared = 0
    for r in results:
        if r.key in reference:
            want = reference[r.key]
            compared += max(len(want), len(r.digests))
            changed += sum(
                want.get(n) != r.digests.get(n) for n in set(want) | set(r.digests)
            )
    return changed, compared


def span_problems(workload: str, agg: dict, missing: list[str]) -> list[str]:
    """A layer metric read from spans must have spans to read.

    A span target that no longer resolves, or a layer that records no call on
    a workload where it should move an end-to-end metric, would read as zero.
    """
    problems = [f"span target {t} not found" for t in missing]
    problems += [
        f"layer {layer.span[0]} ({name}) recorded no calls on {workload}"
        for name, layer in LAYERS.items()
        if layer.span and workload in layer.on and not agg.get(layer.span[0], {}).get("calls")
    ]
    return problems


def mc_steps_per_s(jobs: list[Job], results: list[JobResult]) -> float:
    steps = {j.key: j.mc_steps for j in jobs}
    mc = [r for r in results if steps.get(r.key)]
    wall = sum(r.wall_s for r in mc)
    return sum(steps[r.key] for r in mc) / wall if wall else 0.0


# ---------------------------------------------------------------------------
# Untraced run: fresh processes


def measure_setup(jobs: list[Job]) -> tuple[list[float], JobResult]:
    """Fresh interpreter: import qcoupling.cli and build the workload's models."""
    models = {}
    for job in jobs:
        kept = [job.argv[0], "--model", job.model]
        for flag in ("--bias", "--fugacity"):
            if job.flag(flag) is not None:
                kept += [flag, job.flag(flag)]
        models.setdefault(" ".join(kept[1:]), " ".join(kept))
    argv = [sys.executable, "-c", SETUP, *models.values()]
    times = []
    result = JobResult("set-up", 0, 0.0)
    for i in range(SETUP_REPEATS + 1):  # the first one only warms the file cache
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=SRC, env=job_env(SRC), capture_output=True, timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            result.exit_code = done.returncode
            result.problems = [done.stderr.decode(errors="replace")[-500:]]
    result.wall_s = sum(times)
    return times, result


def untraced_run(jobs: list[Job], seconds: float, workdir: Path, t_start: float):
    setups, setup_result = measure_setup(jobs)
    passes: list[list[JobResult]] = []
    measured = 0.0
    while measured < seconds:
        elapsed = time.perf_counter() - t_start
        last = sum(r.wall_s for r in passes[-1]) if passes else 0.0
        if passes and elapsed + last > RUN_BUDGET_S:
            break
        results = []
        for i, job in enumerate(jobs):
            remaining = RUN_BUDGET_S + 20 - (time.perf_counter() - t_start)
            results.append(run_process(job, SRC, workdir / f"p{len(passes)}-{i}", remaining))
        passes.append(results)
        measured += sum(r.wall_s for r in results)
    flat = [r for p in passes for r in p]
    check_determinism(jobs, flat)
    flat.append(setup_result)
    mib = 2.0**20
    metrics = {
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in p) for p in passes),
        "artifact_mb": statistics.median(sum(r.artifact_bytes for r in p) / mib for p in passes),
    }
    changed, compared = digest_changes(flat, load_reference())
    detail = {
        "passes": len(passes),
        "setup_s": setups,
        "mc_steps_per_s": mc_steps_per_s(jobs, flat),
        "digest_changes": changed,
        "digests_compared": compared,
    }
    return metrics, flat, detail


# ---------------------------------------------------------------------------
# Traced run: in-process replays


def traced_run(workload: str, jobs: list[Job], workdir: Path):
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("qcoupling.cli")
    import_s = time.perf_counter() - t0

    plain = [run_in_process(j, workdir / f"u{i}", cli.main) for i, j in enumerate(jobs)]

    tracer = Tracer()

    @contextlib.contextmanager
    def job_span(job: Job):
        tracer.context["model"] = job.model
        with tracer.span("job", key=job.key):
            yield

    restore, missing = install(tracer)
    try:
        traced = [run_in_process(j, workdir / f"t{i}", cli.main, job_span)
                  for i, j in enumerate(jobs)]
    finally:
        uninstall(restore)
    check_determinism(jobs, plain + traced)

    agg = aggregate(tracer.jobs)

    def get(layer: str, key: str) -> float:
        return agg[layer][key] if layer in agg else 0.0

    spans = JobResult("layer spans", 0, 0.0, problems=span_problems(workload, agg, missing))
    results = plain + traced + [spans]
    values = {name: get(*layer.span) for name, layer in LAYERS.items() if layer.span}
    counts_s = values["kernels.counts_s"]
    values["kernels.steps_per_s"] = values["kernels.traj_steps"] / counts_s if counts_s else 0.0
    prefix = "kernels.useful_fraction."
    for name in LAYERS:
        if name.startswith(prefix):
            model = name[len(prefix):]
            steps = get("kernels.counts", f"traj_steps.{model}")
            useful = get("kernels.counts", f"useful_steps.{model}")
            values[name] = useful / steps if steps else 0.0
    values["quantize.superop_bytes"] = sum(
        get(name, "bytes") for name in agg if name.startswith("quantize."))
    for module in ("quantize", "evolve"):
        values[f"{module}.peak_mb"] = max(
            (get(n, "peak_mb") for n in MEMORY_LAYERS if n.startswith(module + ".")), default=0.0)
    changed, compared = digest_changes(traced, load_reference())
    shares = [uncovered_share(j) for j in tracer.jobs]
    values.update({
        "cli.import_s": import_s,
        "cli.artifact_bytes": sum(r.artifact_bytes for r in traced),
        "cli.digest_changes": changed,
        "mc_steps_per_s": mc_steps_per_s(jobs, plain),
        "tracing_overhead_s": sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain),
        "trace.uncovered_share_max": max(shares, default=0.0),
    })
    detail = {
        "digests_compared": compared,
        "jobs": [
            {"job": j.info["key"], "wall_s": j.duration, "uncovered_share": s}
            for j, s in zip(tracer.jobs, shares)
        ],
        "spans": [j.to_json() for j in tracer.jobs],
    }
    return values, results, detail


# ---------------------------------------------------------------------------
# Provenance and output


def provenance(seed: int) -> dict:
    done = subprocess.run([sys.executable, "-c", PROVENANCE], cwd=SRC, env=job_env(SRC),
                          capture_output=True, text=True, timeout=120)
    doc = json.loads(done.stdout) if done.returncode == 0 else {"error": done.stderr[-500:]}
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    doc.update({"seed": seed, "git_commit": commit, "source_sha256": h.hexdigest()})
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qcoupling" / "cli.py").is_file():
        print(f"no qcoupling sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    spec = load_spec()
    jobs = WORKLOADS[args.workload](args.seed, SRC)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.trace:
            values, results, detail = traced_run(args.workload, jobs, workdir)
            specs = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        else:
            values, results, detail = untraced_run(jobs, args.seconds, workdir, t_start)
            specs = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if r.failed]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "metrics": values,
        "failures": [{"job": r.key, "problems": r.problems} for r in failed],
        "results": [vars(r) for r in results],
        **detail,
    }
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"provenance": record["provenance"]}))
    for r in failed:
        print(f"FAILED {r.key}: {'; '.join(r.problems)}", file=sys.stderr)
    for name, unit in specs:
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    for job in detail.get("jobs", []):
        print(f"uncovered {job['uncovered_share']:7.2%} of {job['wall_s']:8.3f} s  {job['job']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one CLI job, collect what it wrote, check it and throw the files away."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Artifacts, Job


@dataclass
class JobResult:
    key: str
    exit_code: int | None
    wall_s: float
    peak_rss_mb: float = 0.0  # child processes only; 0 for in-process replays
    artifact_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)  # file name -> sha256
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_artifacts(out: Path) -> Artifacts:
    """Split a job's output directory into its JSON summary and CSV series.

    The CLI names files ``<stem>-<hash>.json`` and ``<stem>-<label>-<hash>.csv``.
    """
    summaries = sorted(out.glob("*.json"))
    if len(summaries) != 1:
        raise ValueError(f"expected one JSON summary, found {len(summaries)}")
    stem, digest = summaries[0].stem.rsplit("-", 1)
    series = {}
    for p in out.glob("*.csv"):
        if p.name.startswith(stem + "-") and p.stem.endswith("-" + digest):
            series[p.stem[len(stem) + 1 : -len(digest) - 1]] = p
    return Artifacts(json.loads(summaries[0].read_text()), series)


def finish(job: Job, result: JobResult, out: Path) -> JobResult:
    """Record digests and sizes, run the oracle, then remove the output directory."""
    try:
        files = sorted(p for p in out.iterdir() if p.is_file())
        result.digests = {p.name: sha256_file(p) for p in files}
        result.artifact_bytes = sum(p.stat().st_size for p in files)
        if result.exit_code != job.exit_code:
            result.problems.append(f"exit code {result.exit_code}, expected {job.exit_code}")
        else:
            result.problems += job.oracle(load_artifacts(out))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.problems.append(f"artifacts unreadable: {exc!r}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return result


def job_env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src)}


def run_process(job: Job, src: Path, out: Path, timeout_s: float) -> JobResult:
    """Run the job as a fresh ``python -m qcoupling.cli`` process from ``src``."""
    out.mkdir(parents=True)
    argv = [sys.executable, "-m", "qcoupling.cli", *job.argv, "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=src, env=job_env(src),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
    killer.start()
    try:
        log = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = JobResult(job.key, proc.returncode, wall, usage.ru_maxrss / 1024.0)
    finish(job, result, out)
    if result.failed:
        tail = log.decode(errors="replace").strip().splitlines()[-3:]
        result.problems += [f"log: {line}" for line in tail]
    return result


def run_in_process(job: Job, out: Path, main, around=contextlib.nullcontext) -> JobResult:
    """Replay the job through ``qcoupling.cli.main`` in this process.

    Only the call to ``main`` runs inside ``around(job)`` and the timed region.
    """
    out.mkdir(parents=True)
    problem = None
    with contextlib.redirect_stdout(io.StringIO()), around(job):
        t0 = time.perf_counter()
        try:
            code = main([*job.argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash in one job must not end the run
            code, problem = None, f"raised {exc!r}"
        wall = time.perf_counter() - t0
    result = JobResult(job.key, code, wall)
    finish(job, result, out)
    if problem:
        result.problems.append(problem)
    return result

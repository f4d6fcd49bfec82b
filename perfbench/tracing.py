"""Layer spans recorded from outside the package.

``install`` wraps the public functions each qcoupling module exposes and puts
the wrapper into every qcoupling namespace that holds a reference to the
original, because ``cli``, ``evolve`` and ``models`` import names with
``from ... import``. Methods and the ``ChoiMatrix.eigenvalues`` property are
wrapped on their class. Spans nest; a span's self time is its duration minus
the durations of its children. Spans named ``harness.*`` are the harness's
own work inside a layer: they count towards no layer and are taken out of
the job's wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute path) -> layer span name
SPANS = {
    ("qcoupling.cli", "resolve_model"): "models.build",
    ("qcoupling.cli", "emit_report"): "cli.emit",
    ("qcoupling.chain", "validate_chain"): "chain.validate",
    ("qcoupling.chain", "stationary_distribution"): "chain.stationary",
    ("qcoupling.coupling", "grand_coupling_matrix"): "coupling.grand_coupling",
    ("qcoupling.coupling", "validate_coupling"): "coupling.validate",
    ("qcoupling.coupling", "coalescence_tail_exact"): "coupling.exact_tails",
    ("qcoupling.coupling", "coalescence_tail_mc"): "coupling.mc",
    ("qcoupling.coupling", "check_tail_submultiplicativity"): "coupling.submultiplicativity",
    ("qcoupling.kernels", "coalescence_counts"): "kernels.counts",
    ("qcoupling.quantize", "c_star_superop"): "quantize.cstar",
    ("qcoupling.quantize", "quantized_coupling"): "quantize.quantized_coupling",
    ("qcoupling.quantize", "kraus_from_grand"): "quantize.kraus",
    ("qcoupling.quantize", "superop_from_kraus"): "quantize.kraus_superop",
    ("qcoupling.quantize", "choi_matrix"): "quantize.choi_build",
    ("qcoupling.quantize", "verify_cp"): "quantize.verify_cp",
    ("qcoupling.quantize", "matrix_to_csv"): "quantize.choi_csv",
    ("qcoupling.quantize", "Superoperator.apply"): "quantize.channel_apply",
    ("qcoupling.quantize", "KrausSet.apply"): "quantize.channel_apply",
    ("qcoupling.quantize", "ChoiMatrix.eigenvalues"): "quantize.choi_eig",
    ("qcoupling.evolve", "coalescence_trace_identity_check"): "evolve.trace_identity",
    ("qcoupling.evolve", "qperp_bound_check"): "evolve.qperp_bound",
    ("qcoupling.evolve", "main_theorem_check"): "evolve.main_theorem",
    ("qcoupling.evolve", "evolve_trace"): "evolve.evolve_trace",
    ("qcoupling.evolve", "laplacian_preservation_check"): "evolve.laplacian",
    ("qcoupling.evolve", "rescaled_qperp_decomposition_check"): "evolve.qperp_decomposition",
    ("qcoupling.evolve", "gentle_measurement_step_check"): "evolve.gentle_measurement",
    ("qcoupling.evolve", "random_density"): "evolve.random_density",
    ("qcoupling.models", "contraction_rate_check"): "models.contraction_rate",
    ("qcoupling.dilation", "build_dilation"): "dilation.build",
    ("qcoupling.dilation", "dilation_route_check"): "dilation.route_check",
    ("qcoupling.dilation", "state_decomposition_check"): "dilation.state_decomposition",
}

# Layers whose peak memory is measured. tracemalloc runs only inside them:
# tracing every allocation would slow the Python-heavy CSV formatting ~3x.
MEMORY_LAYERS = {
    "coupling.mc",
    "quantize.cstar", "quantize.quantized_coupling", "quantize.kraus_superop",
    "quantize.choi_build", "quantize.verify_cp", "quantize.choi_eig",
    "evolve.trace_identity", "evolve.qperp_bound", "evolve.main_theorem",
    "evolve.evolve_trace",
}
# Layers whose returned dense arrays are counted in bytes.
BYTES_LAYERS = {
    "coupling.grand_coupling",
    "quantize.cstar", "quantize.quantized_coupling", "quantize.kraus_superop",
    "quantize.choi_build",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def to_json(self) -> dict:
        doc = {"name": self.name, "start": self.start, "end": self.end, **self.info}
        if self.children:
            doc["children"] = [c.to_json() for c in self.children]
        return doc


def harness_time(span: Span) -> float:
    """Time the harness spent inside ``span`` (outermost harness spans only)."""
    if span.name.startswith("harness."):
        return span.duration
    return sum(harness_time(c) for c in span.children)


def uncovered_share(job: Span) -> float:
    """Share of the job's own wall time (harness work excluded) no layer span covers."""
    wall = job.duration - harness_time(job)
    covered = sum(
        c.duration - harness_time(c) for c in job.children if not c.name.startswith("harness.")
    )
    return max(wall - covered, 0.0) / wall if wall > 0 else 0.0


def aggregate(jobs: list[Span]) -> dict[str, dict]:
    """Per layer name: total self time, calls, returned bytes, peak MB and counters."""
    out = defaultdict(lambda: defaultdict(float))
    for job in jobs:
        for span in job.walk():
            if span is job or span.name.startswith("harness."):
                continue
            agg = out[span.name]
            agg["self_s"] += span.self_time
            agg["calls"] += 1
            for k, v in span.info.items():
                if k == "peak_mb":
                    agg[k] = max(agg[k], v)
                elif isinstance(v, (int, float)):
                    agg[k] += v
    return out


class Tracer:
    """Collects a tree of spans per job; one instance per traced replay."""

    def __init__(self):
        self.jobs: list[Span] = []
        self.context: dict = {}
        self._stack: list[Span] = []
        self._mem: list[list[int]] = []  # per open memory span: [baseline, peak seen]

    @contextlib.contextmanager
    def span(self, name: str, **info):
        s = Span(name, time.perf_counter(), info=info)
        (self._stack[-1].children if self._stack else self.jobs).append(s)
        self._stack.append(s)
        track = name in MEMORY_LAYERS
        owner = track and not tracemalloc.is_tracing()
        # the harness's own allocations inside a memory span count towards no peak
        hidden_peak = (
            tracemalloc.get_traced_memory()[1]
            if name.startswith("harness.") and self._mem else None
        )
        if owner:
            tracemalloc.start()
        if track:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        try:
            yield s
        finally:
            if track:
                base, seen = self._mem.pop()
                peak = max(seen, tracemalloc.get_traced_memory()[1])
                s.info["peak_mb"] = (peak - base) / 2**20
                if self._mem:
                    self._mem[-1][1] = max(self._mem[-1][1], peak)
            if owner:
                tracemalloc.stop()
            if hidden_peak is not None:
                self._mem[-1][1] = max(self._mem[-1][1], hidden_peak)
                tracemalloc.reset_peak()
            self._stack.pop()
            s.end = time.perf_counter()

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if name in BYTES_LAYERS:
                s.info["bytes"] = owned_nbytes(result)
            if after is not None:
                after(self, s, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def owned_nbytes(result) -> int:
    """Bytes of the distinct array buffers behind a result's dense matrices."""
    items = result if isinstance(result, tuple) else (result,)
    buffers = {}
    for item in items:
        for attr in ("entries", "matrix"):
            arr = getattr(item, attr, None)
            while getattr(arr, "base", None) is not None:
                arr = arr.base
            if hasattr(arr, "nbytes"):
                buffers[id(arr)] = arr.nbytes
    return sum(buffers.values())


def useful_steps(table, r_idx, x0: int, y0: int) -> int:
    """Trajectory-steps taken while the pair was still apart (compacting replay)."""
    import numpy as np

    table = np.asarray(table)
    r_idx = np.asarray(r_idx)
    samples, m_max = r_idx.shape
    if x0 == y0:
        return 0
    active = np.arange(samples)
    X = np.full(samples, x0, dtype=table.dtype)
    Y = np.full(samples, y0, dtype=table.dtype)
    useful = 0
    for step in range(m_max):
        if active.size == 0:
            break
        useful += active.size
        r = r_idx[active, step]
        X, Y = table[X, r], table[Y, r]
        apart = X != Y
        active, X, Y = active[apart], X[apart], Y[apart]
    return useful


def _kernel_counters(tracer: Tracer, span: Span, args, kwargs):
    call = dict(zip(("table", "r_idx", "x0", "y0"), args), **kwargs)
    samples, m_max = call["r_idx"].shape
    span.info["traj_steps"] = samples * m_max
    model = tracer.context.get("model")
    with tracer.span("harness.useful_steps"):
        useful = useful_steps(call["table"], call["r_idx"], int(call["x0"]), int(call["y0"]))
    span.info[f"useful_steps.{model}"] = useful
    span.info[f"traj_steps.{model}"] = samples * m_max


AFTER = {"kernels.counts": _kernel_counters}


def _eigenvalues_span(tracer: Tracer, fget):
    def traced(self):
        computed = self._spectrum is None
        with tracer.span("quantize.choi_eig", eigensolves=int(computed)):
            return fget(self)
    return property(traced)


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Install wrappers.

    Returns what ``uninstall`` needs to restore, and the ``SPANS`` targets that
    could not be found. A missing target must fail the traced run: its layer
    would otherwise read as zero, which looks like a gain.
    """
    restore, missing = [], []
    for (modname, path), name in SPANS.items():
        try:
            module = importlib.import_module(modname)
        except ImportError:
            missing.append(f"{modname}.{path}")
            continue
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qcoupling" or n.startswith("qcoupling."))]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or attr not in vars(cls):
                missing.append(f"{modname}.{path}")
                continue
            original = vars(cls)[attr]
            if isinstance(original, property):
                # the eigensolve count reads the cache the property fills
                if "_spectrum" not in getattr(cls, "__dataclass_fields__", {}):
                    missing.append(f"{modname}.{cls_name}._spectrum")
                    continue
                replacement = _eigenvalues_span(tracer, original.fget)
            else:
                replacement = tracer.wrap(name, original)
            restore.append((cls, attr, original))
            setattr(cls, attr, replacement)
            continue
        original = getattr(module, path, None)
        if original is None:
            missing.append(f"{modname}.{path}")
            continue
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    restore.append((m, attr, original))
                    setattr(m, attr, wrapper)
    return restore, missing


def uninstall(restore: list):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)

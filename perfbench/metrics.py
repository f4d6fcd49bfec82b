"""What the benchmark's per-layer metrics mean and where they come from.

Names, units, directions, bounds and the workloads' reasons live only in
``BENCHMARK.json``. This module adds what that file has no key for: for each
per-layer metric, the end-to-end metrics it should move, the workloads where
it should move them, and the span aggregate it is read from, so that an issue
claiming a gain can cite the expected interaction by metric name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json`` at the root of the checkout."""
    return json.loads(BENCHMARK_JSON.read_text())


@dataclass(frozen=True)
class Layer:
    moves: tuple[str, ...]  # end-to-end metrics this layer metric should move
    on: tuple[str, ...]  # workloads where it should move them
    span: tuple[str, str] | None = None  # (span name, aggregate key); None: computed in run.py
    note: str = ""


EXACT, MC, SWEEP = "exact-n64", "mc-tails", "small-sweep"
_USEFUL = (
    "steps taken while the pair was still apart / steps drawn, replayed by the harness from "
    "the kernel's inputs: a fixed property of the seed's draws, not of the kernel; it bounds "
    "the gain a kernel that skips coalesced trajectories can reach"
)

# In the order of "per_layer" in BENCHMARK.json.
LAYERS = {
    # cli: interpreter-level costs and report emission
    "cli.import_s": Layer(("setup_s", "wall_s"), (SWEEP,),
                          note="import qcoupling.cli in a fresh interpreter"),
    "models.build_s": Layer(("setup_s", "wall_s"), (SWEEP,), ("models.build", "self_s"),
                            "cli.resolve_model self time"),
    "cli.emit_s": Layer(("wall_s", "artifact_mb"), (EXACT,), ("cli.emit", "self_s"),
                        "emit_report self time"),
    "cli.artifact_bytes": Layer(("artifact_mb",), (EXACT,)),
    "cli.digest_changes": Layer((), (), note="informational: artifacts whose sha256 differs "
                                "from the reference recorded for the seed"),
    # coupling: dense pair-space construction, validation, exact and MC tails
    "coupling.grand_coupling_s": Layer(("wall_s", "peak_rss_mb"), (EXACT,),
                                       ("coupling.grand_coupling", "self_s")),
    "coupling.grand_coupling_calls": Layer(("wall_s", "peak_rss_mb"), (EXACT,),
                                           ("coupling.grand_coupling", "calls")),
    "coupling.validate_s": Layer(("wall_s", "peak_rss_mb"), (EXACT,),
                                 ("coupling.validate", "self_s")),
    "coupling.validate_calls": Layer(("wall_s", "peak_rss_mb"), (EXACT,),
                                     ("coupling.validate", "calls")),
    "coupling.exact_tails_s": Layer(("wall_s", "peak_rss_mb"), (EXACT,),
                                    ("coupling.exact_tails", "self_s")),
    "coupling.exact_tails_calls": Layer(("wall_s", "peak_rss_mb"), (EXACT,),
                                        ("coupling.exact_tails", "calls")),
    "coupling.coupling_bytes": Layer(("wall_s", "peak_rss_mb"), (EXACT,),
                                     ("coupling.grand_coupling", "bytes"),
                                     "nbytes of every CouplingMatrix.entries returned"),
    "coupling.mc_self_s": Layer(("mc_steps_per_s", "peak_rss_mb"), (MC,),
                                ("coupling.mc", "self_s"),
                                "coalescence_tail_mc minus its kernel calls: the randomness draw"),
    "coupling.mc_peak_mb": Layer(("mc_steps_per_s", "peak_rss_mb"), (MC,),
                                 ("coupling.mc", "peak_mb"), "tracemalloc peak above entry"),
    # kernels: the MC coalescence kernel
    "kernels.counts_s": Layer(("mc_steps_per_s", "wall_s"), (MC,), ("kernels.counts", "self_s")),
    "kernels.traj_steps": Layer(("mc_steps_per_s", "wall_s"), (MC,),
                                ("kernels.counts", "traj_steps"),
                                "sum of r_idx.shape products over kernel calls"),
    "kernels.steps_per_s": Layer(("mc_steps_per_s", "wall_s"), (MC,)),
    "kernels.useful_fraction.hypercube12": Layer((), (MC,), note=_USEFUL),
    "kernels.useful_fraction.hardcore-path10": Layer((), (MC,), note=_USEFUL),
    # quantize: superoperators, Choi matrix, CP spectrum, channel application
    "quantize.choi_eig_s": Layer(("wall_s",), (EXACT,), ("quantize.choi_eig", "self_s")),
    "quantize.choi_eigensolves": Layer(("wall_s",), (EXACT,), ("quantize.choi_eig", "eigensolves"),
                                       "Choi spectra actually computed, not served from the cache"),
    "quantize.choi_csv_s": Layer(("wall_s", "artifact_mb"), (EXACT,),
                                 ("quantize.choi_csv", "self_s")),
    "quantize.cstar_s": Layer(("wall_s",), (EXACT,), ("quantize.cstar", "self_s")),
    "quantize.kraus_superop_s": Layer(("wall_s",), (EXACT,), ("quantize.kraus_superop", "self_s")),
    "quantize.choi_build_s": Layer(("wall_s",), (EXACT,), ("quantize.choi_build", "self_s")),
    "quantize.superop_bytes": Layer(("peak_rss_mb",), (EXACT,),
                                    note="nbytes of the dense superoperator and Choi arrays returned"),
    "quantize.peak_mb": Layer(("peak_rss_mb",), (EXACT,), note="tracemalloc peak above entry"),
    "quantize.channel_apply_s": Layer(("wall_s",), (EXACT, SWEEP),
                                      ("quantize.channel_apply", "self_s")),
    "quantize.channel_apply_calls": Layer(("wall_s",), (EXACT, SWEEP),
                                          ("quantize.channel_apply", "calls")),
    # evolve: structural checks on the quantized channel
    "evolve.trace_identity_s": Layer(("wall_s",), (EXACT,), ("evolve.trace_identity", "self_s")),
    "evolve.qperp_bound_s": Layer(("wall_s",), (EXACT,), ("evolve.qperp_bound", "self_s")),
    "evolve.main_theorem_s": Layer(("wall_s",), (EXACT,), ("evolve.main_theorem", "self_s")),
    "evolve.peak_mb": Layer(("wall_s",), (EXACT,), note="tracemalloc peak above entry"),
    "evolve.evolve_trace_s": Layer(("wall_s",), (SWEEP,), ("evolve.evolve_trace", "self_s")),
    # dilation
    "dilation.build_s": Layer(("wall_s",), (EXACT, SWEEP), ("dilation.build", "self_s"),
                              "mostly exact-n64 (statevector dimension 1536)"),
    "dilation.route_check_s": Layer(("wall_s",), (EXACT, SWEEP),
                                    ("dilation.route_check", "self_s"), "mostly exact-n64"),
    # chain
    "chain.validate_s": Layer(("wall_s",), (SWEEP,), ("chain.validate", "self_s")),
    # the traced run itself
    "mc_steps_per_s": Layer(("wall_s",), (MC,), note="samples x max grid m x start pairs / "
                            "MC job wall time, untraced in-process replay"),
    "tracing_overhead_s": Layer((), (EXACT, MC, SWEEP),
                                note="traced replay wall minus untraced replay wall"),
    "trace.uncovered_share_max": Layer((), (EXACT, MC, SWEEP), note="largest share of a job's "
                                       "wall time that no layer span covers"),
}

"""Command-line front end.

Subcommands: model, validate, quantize, coalesce, evolve, verify, dilate.
Exit codes: 0 = all checks pass, 1 = a mathematical check failed, 2 = invalid
input, 3 = resource guard exceeded.

Reports are deterministic: JSON summaries with sorted keys, CSV series, and
file names that embed the model, the seed, and a content hash (never a
timestamp), so identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from qcoupling.chain import (
    TransitionMatrix,
    chain_to_json_dict,
    read_chain_json,
    stationary_distribution,
    validate_chain,
)
from qcoupling.coupling import (
    CouplingMatrix,
    RandomMappingRep,
    check_tail_submultiplicativity,
    coalescence_tail_exact,
    coalescence_tail_mc,
    grand_coupling_matrix,
    read_coupling_json,
    rmr_to_json_dict,
    coupling_to_json_dict,
    validate_coupling,
)
from qcoupling.dilation import (
    build_dilation,
    dilation_route_check,
    state_decomposition_check,
)
from qcoupling.errors import (
    GuardExceededError,
    InvalidInputError,
    QCouplingError,
    ThresholdNotReachedError,
)
from qcoupling.evolve import (
    DensityMatrix,
    coalescence_trace_identity_check,
    evolve_trace,
    gentle_measurement_step_check,
    laplacian_preservation_check,
    main_theorem_check,
    qperp_bound_check,
    qsample,
    random_density,
    rescaled_qperp_decomposition_check,
)
from qcoupling.models import (
    ModelInstance,
    complete_graph,
    colorings_model,
    contraction_rate_check,
    cycle_coupling_model,
    default_start_pairs,
    hardcore_model,
    hypercube_model,
    hypercube_worst_pair,
    path_graph,
)
from qcoupling.quantize import (
    certify_cp_by_congruence,
    choi_matrix,
    c_star_superop,
    is_completely_positive,
    kraus_from_grand,
    matrix_to_csv,
    min_choi_eigenvalue,
    quantized_coupling,
    superop_from_kraus,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_GUARD = 3


# ---------------------------------------------------------------------------
# Model registry


class ResolvedModel:
    """A named model resolved to its chain / coupling / mapping pieces.

    ``coupling`` is a :class:`CouplingMatrix` or, from a coupling file, a
    :class:`RandomMappingRep`.
    """

    def __init__(self, name, chain=None, coupling=None, instance=None):
        self.name = name
        self.instance: ModelInstance | None = instance
        self.chain: TransitionMatrix | None = chain or (
            instance.chain if instance else None
        )
        self._coupling = coupling

    @property
    def rmr(self):
        return self.instance.rmr if self.instance else None

    @property
    def pi(self):
        if self.instance is not None:
            return self.instance.pi
        return stationary_distribution(self.chain)

    def coupling(self) -> CouplingMatrix:
        """The coupling as a sparse :class:`CouplingMatrix`; a random mapping's
        grand coupling wraps its cached pair-space operator and is validated."""
        if isinstance(self._coupling, RandomMappingRep):
            return grand_coupling_matrix(self._coupling)
        if self._coupling is not None:
            return self._coupling
        if self.instance is not None:
            return self.instance.coupling()
        raise InvalidInputError(f"model {self.name} has no coupling")

    def exact_coupling(self) -> CouplingMatrix | RandomMappingRep:
        """What the exact path runs on: a random mapping when there is one,
        so its pair-space operator is built once from the successor table,
        else the coupling matrix."""
        if self.instance is not None:
            return self.instance.rmr
        if isinstance(self._coupling, RandomMappingRep):
            return self._coupling
        return self.coupling()


_MODEL_PATTERNS = [
    (re.compile(r"^hypercube(\d+)$"), lambda m, a: ResolvedModel(
        m.string, instance=hypercube_model(int(m.group(1))))),
    (re.compile(r"^cycle(\d+)-(prose|printed)$"), lambda m, a: ResolvedModel(
        m.string, *cycle_coupling_model(int(m.group(1)), p=a.bias, variant=m.group(2)))),
    (re.compile(r"^colorings-k(\d+)-q(\d+)$"), lambda m, a: ResolvedModel(
        m.string, instance=colorings_model(complete_graph(int(m.group(1))), int(m.group(2))))),
    (re.compile(r"^colorings-path(\d+)-q(\d+)$"), lambda m, a: ResolvedModel(
        m.string, instance=colorings_model(path_graph(int(m.group(1))), int(m.group(2))))),
    (re.compile(r"^hardcore-path(\d+)$"), lambda m, a: ResolvedModel(
        m.string, instance=hardcore_model(path_graph(int(m.group(1))), a.fugacity))),
]


def resolve_model(name: str, args) -> ResolvedModel:
    for pattern, build in _MODEL_PATTERNS:
        m = pattern.match(name)
        if m:
            return build(m, args)
    raise InvalidInputError(
        f"unknown model {name!r}; expected hypercube<n>, cycle<n>-prose, "
        "cycle<n>-printed, colorings-k<n>-q<q>, colorings-path<n>-q<q>, "
        "or hardcore-path<n>"
    )


def _load_inputs(args) -> ResolvedModel:
    """Resolve either --model or --chain/--coupling file inputs, never both."""
    if getattr(args, "model", None):
        files = [f"--{flag}" for flag in ("chain", "coupling") if getattr(args, flag, None)]
        if files:
            raise InvalidInputError(
                f"--model cannot be combined with {' and '.join(files)}; "
                "give a bundled model or input files"
            )
        return resolve_model(args.model, args)
    if getattr(args, "chain", None):
        chain = read_chain_json(args.chain)
        coupling = None
        if getattr(args, "coupling", None):
            coupling = read_coupling_json(args.coupling, base=chain)
        return ResolvedModel(Path(args.chain).stem, chain=chain, coupling=coupling)
    raise InvalidInputError("provide --model or --chain")


# ---------------------------------------------------------------------------
# Report emission


def emit_report(outdir: str, stem: str, summary: dict, series: dict | None = None):
    """Write a JSON summary and CSV series with content-hashed file names."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot create output directory {outdir}: {exc}")
    body = json.dumps(summary, sort_keys=True, indent=2, default=_jsonable).encode() + b"\n"
    # the digest covers body + the series concatenated in sorted order; UTF-8
    # keeps that order and concatenation, so each part is encoded once and fed
    # to the hash on its own
    encoded = {label: csv.encode() for label, csv in (series or {}).items()}
    h = hashlib.sha256(body)
    for data in sorted(encoded.values()):
        h.update(data)
    digest = h.hexdigest()[:12]
    paths = []
    p = out / f"{stem}-{digest}.json"
    _write(p, body)
    paths.append(p)
    for label, data in encoded.items():
        p = out / f"{stem}-{label}-{digest}.csv"
        _write(p, data)
        paths.append(p)
    for p in paths:
        print(p)
    return paths


def _write(path: Path, data: bytes):
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}")


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v).__name__}")


def _summaries(checks, extra=None) -> dict:
    doc = {"checks": [c.summary() for c in checks], "pass": all(c.passed for c in checks)}
    doc.update(extra or {})
    return doc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_model(args) -> int:
    rm = _load_inputs(args)
    summary = {"model": rm.name}
    series = {}
    if rm.chain is not None:
        summary["chain"] = chain_to_json_dict(rm.chain)
        summary["stationary"] = rm.pi.weights.tolist()
    if rm.rmr is not None:
        summary["coupling"] = rmr_to_json_dict(rm.rmr)
    else:
        try:
            summary["coupling"] = coupling_to_json_dict(rm.coupling())
        except (InvalidInputError, GuardExceededError):
            pass
    if rm.instance is not None:
        summary["rate"] = rm.instance.rate
        summary["exact"] = rm.instance.exact
        summary["n_states"] = rm.instance.n
    emit_report(args.out, f"model-{rm.name}", summary, series)
    return EXIT_OK


def cmd_validate(args) -> int:
    rm = _load_inputs(args)
    summary = {"model": rm.name}
    ok = True
    if rm.chain is not None:
        rep = validate_chain(rm.chain)
        summary["chain"] = {"valid": rep.valid, "issues": rep.issues, **rep.details}
        ok = ok and rep.valid
    try:
        C = rm.coupling()
    except (InvalidInputError, GuardExceededError) as exc:
        summary["coupling"] = {"skipped": str(exc)}
    else:
        rep = validate_coupling(C)
        summary["coupling"] = {"valid": rep.valid, "issues": rep.issues, **rep.details}
        ok = ok and rep.valid
    summary["pass"] = ok
    emit_report(args.out, f"validate-{rm.name}", summary)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _quantize_summary(rm: ResolvedModel, order: str):
    """Choi matrix of C* and the quantize summary.

    C* is built once, for the Choi matrix and for the channel T. The
    coupling and T are dropped on return; only the CSR Choi matrix, whose
    nonzeros the Choi CSV lists, is kept.
    """
    C = rm.coupling()
    S = c_star_superop(C)
    J = choi_matrix(S, order=order)
    eigs = J.eigenvalues
    summary = {
        "model": rm.name,
        "order": order,
        "choi_min_eigenvalue": float(min_choi_eigenvalue(J)),
        "choi_eigenvalues": eigs.tolist(),
        "choi_eigenvalue_sum": float(eigs.sum()),
        "cp": bool(is_completely_positive(J)),
    }
    if C.marginal_verified and validate_coupling(C).valid:
        T, _ = quantized_coupling(C, rm.pi, c_star=S)
        certify_cp_by_congruence(T, J, rm.pi)
        summary["trace_preserving"] = True  # asserted inside quantized_coupling
        summary["fixed_point_holds"] = True
        summary["channel_cp"] = T.cp_status == "verified"
    else:
        summary["channel_skipped"] = "coupling is not a verified stochastic coupling"
    return J, summary


def cmd_quantize(args) -> int:
    rm = _load_inputs(args)
    J, summary = _quantize_summary(rm, args.order)
    # the nonzero (row, col, value) triplets of the N^2 x N^2 Choi matrix
    header = f"# choi order={args.order} dim={J.matrix.shape[0]}"
    series = {"choi": matrix_to_csv(J.matrix, header=header)}
    del J  # the CSV carries it from here on
    emit_report(args.out, f"quantize-{rm.name}", summary, series)
    return EXIT_OK


def cmd_coalesce(args) -> int:
    if not args.mc:
        for dest in ("m_grid", "samples", "seed", "workers"):
            if getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                raise InvalidInputError(
                    f"{flag} applies only with --mc; exact tails run to --m-max"
                )
    rm = _load_inputs(args)
    if args.mc:
        if args.seed is None:
            raise InvalidInputError("--mc requires --seed")
        if rm.rmr is None:
            raise InvalidInputError("MC tails need a random-mapping model")
        grid = args.m_grid or _default_grid(args.m_max)
        pairs = (
            [hypercube_worst_pair(rm.instance.params["n"])]
            if rm.instance and rm.instance.kind == "hypercube"
            else default_start_pairs(rm.instance, count=5, seed=args.seed)
        )
        report = coalescence_tail_mc(
            rm.rmr, pairs, grid, seed=args.seed,
            samples=100_000 if args.samples is None else args.samples,
            workers=1 if args.workers is None else args.workers,
        )
    else:
        report = coalescence_tail_exact(rm.exact_coupling(), m_max=args.m_max)
    summary = {
        "model": rm.name,
        "mode": report.mode,
        "t_couple": report.t_couple,
        "samples": report.samples,
        "seed": report.seed,
        "tail_final": float(report.tail_max[-1]),
    }
    stem = f"coalesce-{rm.name}" + (f"-seed{args.seed}" if args.mc else "")
    emit_report(args.out, stem, summary, {"tails": report.to_csv()})
    return EXIT_OK


def _default_grid(m_max: int) -> list[int]:
    return list(range(0, m_max + 1, max(1, m_max // 20)))


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidInputError(f"--seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def cmd_evolve(args) -> int:
    rm = _load_inputs(args)
    if rm.rmr is None:
        raise InvalidInputError("evolve needs a random-mapping model (CP channel)")
    n = rm.pi.n
    if args.rho0 == "mixed":
        rho0 = DensityMatrix(np.eye(n) / n)
    elif args.rho0.startswith("basis:"):
        i = args.rho0.split(":", 1)[1]
        if not i.isdecimal() or int(i) >= n:
            raise InvalidInputError(
                f"--rho0 basis:<i> needs an integer 0 <= i < {n}, got {args.rho0!r}"
            )
        m = np.zeros((n, n))
        m[int(i), int(i)] = 1.0
        rho0 = DensityMatrix(m)
    elif args.rho0 == "random":
        if args.seed is None:
            raise InvalidInputError("--rho0 random requires --seed")
        rho0 = random_density(n, _seeded_rng(args.seed))
    else:
        raise InvalidInputError(f"unknown --rho0 {args.rho0!r}")
    ks = kraus_from_grand(rm.rmr, rm.pi)
    T = superop_from_kraus(ks)
    if T.cp_status != "verified":
        raise InvalidInputError("channel failed the complete-positivity check")
    report = coalescence_tail_exact(rm.exact_coupling(), m_max=args.m_max)
    trace = evolve_trace(T, rho0, qsample(rm.pi), args.m_max, report=report)
    summary = {
        "model": rm.name,
        "m_max": args.m_max,
        "rho0": args.rho0,
        "seed": args.seed,
        "final_trace_distance": float(trace.trace_distance[-1]),
    }
    emit_report(args.out, f"evolve-{rm.name}", summary, {"trace": trace.to_csv()})
    return EXIT_OK


def cmd_verify(args) -> int:
    rm = _load_inputs(args)
    if rm.rmr is None or rm.instance is None:
        raise InvalidInputError("verify needs a named random-mapping model")
    if args.states < 1:
        raise InvalidInputError(f"--states must be >= 1, got {args.states}")
    rng = _seeded_rng(args.seed)
    C = rm.exact_coupling()
    report = coalescence_tail_exact(C, m_max=args.m_max)
    pi = rm.pi
    n = pi.n
    ks = kraus_from_grand(rm.rmr, pi)
    T = superop_from_kraus(ks)
    rho0_set = [random_density(n, rng) for _ in range(args.states)]

    checks = [
        laplacian_preservation_check(C, 0, n - 1),
        rescaled_qperp_decomposition_check(pi),
        coalescence_trace_identity_check(C, min(args.m_max, 10)),
        qperp_bound_check(T, pi, report, rho0_set, list(range(args.m_max + 1))),
        check_tail_submultiplicativity(C, m=2, l=3),
    ]
    q = qsample(pi)
    mixed = DensityMatrix(
        (1 - 1e-3) * q.projector + 1e-3 * np.eye(n) / n
    )
    checks.append(gentle_measurement_step_check(mixed, q, eps=2e-3))
    if report.t_couple is not None:
        checks.append(main_theorem_check(T, pi, report, rho0_set[:3], [0.25]))
    if rm.instance.rate is not None:
        ns = rm.instance.n_sites
        checks.append(
            contraction_rate_check(rm.instance, [ns * k for k in range(1, 8)], mode="exact")
        )
    summary = _summaries(checks, {"model": rm.name, "seed": args.seed})
    emit_report(args.out, f"verify-{rm.name}-seed{args.seed}", summary)
    return EXIT_OK if summary["pass"] else EXIT_CHECK_FAILED


def cmd_dilate(args) -> int:
    rm = _load_inputs(args)
    if rm.rmr is None:
        raise InvalidInputError("dilate needs a random-mapping model")
    if args.states < 1:
        raise InvalidInputError(f"--states must be >= 1, got {args.states}")
    rng = _seeded_rng(args.seed)
    ks = kraus_from_grand(rm.rmr, rm.pi)
    circ = build_dilation(ks)
    checks = []
    for _ in range(args.states):
        xi = rng.standard_normal(circ.dim)
        xi /= np.linalg.norm(xi)
        checks.append(state_decomposition_check(circ, xi))
        checks.append(dilation_route_check(circ, ks, random_density(circ.dim, rng),
                                           mode=args.mode))
    summary = _summaries(
        checks,
        {"model": rm.name, "kappa": circ.kappa, "mode": args.mode, "seed": args.seed},
    )
    emit_report(args.out, f"dilate-{rm.name}-seed{args.seed}", summary)
    return EXIT_OK if summary["pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p):
    p.add_argument("--model", help="bundled model name, e.g. hypercube3")
    p.add_argument("--chain", help="chain JSON file (alternative to --model)")
    p.add_argument("--coupling", help="coupling JSON file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--bias", type=float, default=0.5, help="cycle clockwise bias p")
    p.add_argument("--fugacity", type=float, default=2.0, help="hardcore fugacity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoupling",
        description="Markov chain couplings, quantized channels, qsample preparation.",
    )
    parser.add_argument("--config", help="JSON config file; keys mirror the flags")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("model", help="materialize a bundled model to JSON")
    _add_common(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("validate", help="chain and coupling condition checks")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("quantize", help="build the quantized map and its Choi report")
    _add_common(p)
    p.add_argument("--order", default="basis_first",
                   choices=["map_first", "basis_first"])
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("coalesce", help="coalescence tails, exact or Monte Carlo")
    _add_common(p)
    p.add_argument("--m-max", type=int, default=40)
    p.add_argument("--mc", action="store_true", help="Monte Carlo instead of exact")
    p.add_argument("--samples", type=int, help="MC trajectories per start pair "
                   "(--mc only; default 100000)")
    p.add_argument("--seed", type=int, help="MC randomness seed (--mc only, required there)")
    p.add_argument("--workers", type=int,
                   help="threads running the fixed MC randomness blocks (--mc only; "
                   "default 1); the output is identical for any count")
    p.add_argument("--m-grid", type=int, nargs="+", help="m values of the MC tails (--mc only)")
    p.set_defaults(func=cmd_coalesce)

    p = sub.add_parser("evolve", help="density-matrix convergence trace")
    _add_common(p)
    p.add_argument("--m-max", type=int, default=30)
    p.add_argument("--rho0", default="mixed", help="mixed | basis:<i> | random")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="run the full structural check suite")
    _add_common(p)
    p.add_argument("--m-max", type=int, default=20)
    p.add_argument("--states", type=int, default=10, help="random test states")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dilate", help="dilation-route channel verification")
    _add_common(p)
    p.add_argument("--mode", default="postselect", choices=["postselect", "amplified"])
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dilate)
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """Convert one config value the way argparse converts the flag's arguments.

    Strings and numbers go through the flag's ``type`` and ``choices`` (so 2.5
    is not an int); flags with ``nargs="+"`` take a nonempty list, switches
    take true or false, and null leaves a flag whose default is None unset.
    """
    if value is None and action.default is None:
        return None
    convert = action.type or str
    many = action.nargs in ("+", "*")
    if action.nargs == 0:
        expected = "true or false"
    else:
        expected = ("a nonempty list of " if many else "") + convert.__name__
        if action.choices is not None:
            expected += f" in {sorted(action.choices)}"
    bad = InvalidInputError(f"config key {key!r}: expected {expected}, got {value!r}")
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise bad
        return value
    if many != isinstance(value, list) or (many and not value):
        raise bad
    out = []
    for item in value if many else [value]:
        if isinstance(item, bool) or not isinstance(item, (int, float, str)):
            raise bad
        if convert is str and not isinstance(item, str):
            raise bad
        try:
            item = convert(str(item))
        except ValueError:
            raise bad from None
        if action.choices is not None and item not in action.choices:
            raise bad
        out.append(item)
    return out if many else out[0]


def _apply_config(args, parser):
    """Set the subcommand's flags from ``--config``; the file wins over the command line."""
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"config {args.config}: {exc}")
    if not isinstance(doc, dict):
        raise InvalidInputError("config must be a JSON object")
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = {
        a.dest: a for a in subparsers.choices[args.subcommand]._actions
        if a.dest != "help"
    }
    for key, value in doc.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise InvalidInputError(f"config key {key!r} does not match any flag")
        setattr(args, action.dest, _config_value(action, key, value))
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, parser)
        return args.func(args)
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (InvalidInputError, FileNotFoundError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ThresholdNotReachedError, AssertionError, QCouplingError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

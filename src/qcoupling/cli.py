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
import re
import sys
from pathlib import Path

import numpy as np

from qcoupling.chain import chain_to_json_dict, read_chain_json, read_json_file, validate_chain
from qcoupling.coupling import (
    RandomMappingRep, check_tail_submultiplicativity, coalescence_tail_exact,
    coalescence_tail_mc, read_coupling_json, require_bytes, rmr_to_json_dict,
    coupling_to_json_dict, validate_coupling
)
from qcoupling.dilation import (
    build_dilation, dilation_route_check, require_mode, state_decomposition_check
)
from qcoupling.errors import GuardExceededError, InvalidInputError, QCouplingError
from qcoupling.evolve import (
    DensityMatrix, coalescence_trace_identity_check, evolve_trace,
    gentle_measurement_step_check, laplacian_preservation_check, main_theorem_check,
    qperp_bound_check, qsample, random_density, rescaled_qperp_decomposition_check,
    start_state_rng, uniform_entries
)
from qcoupling.models import (
    ModelInstance, complete_graph, colorings_model, contraction_rate_check,
    cycle_coupling_model, default_start_pairs, hardcore_model, hypercube_model,
    path_graph
)
from qcoupling.quantize import (
    check_fixed_point, choi_matrix, c_star_superop, is_completely_positive,
    kraus_from_grand, matrix_to_csv, min_choi_eigenvalue, quantized_coupling,
    superop_from_kraus, verify_cp
)
from qcoupling.report import emit_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_GUARD = 3


# ---------------------------------------------------------------------------
# Model registry


def _cycle_model(n: int, p: float, variant: str) -> ModelInstance:
    chain, C = cycle_coupling_model(n, p=p, variant=variant)
    return ModelInstance("cycle", chain, dense=C)


_MODEL_PATTERNS = [
    (re.compile(r"^hypercube(\d+)$"), lambda m, a: hypercube_model(int(m.group(1)))),
    (re.compile(r"^cycle(\d+)-(prose|printed)$"), lambda m, a: _cycle_model(
        int(m.group(1)), a.bias, m.group(2))),
    (re.compile(r"^colorings-k(\d+)-q(\d+)$"), lambda m, a: colorings_model(
        complete_graph(int(m.group(1))), int(m.group(2)))),
    (re.compile(r"^colorings-path(\d+)-q(\d+)$"), lambda m, a: colorings_model(
        path_graph(int(m.group(1))), int(m.group(2)))),
    (re.compile(r"^hardcore-path(\d+)$"), lambda m, a: hardcore_model(
        path_graph(int(m.group(1))), a.fugacity)),
]


def resolve_model(name: str, args) -> ModelInstance:
    for pattern, build in _MODEL_PATTERNS:
        m = pattern.match(name)
        if m:
            model = build(m, args)
            model.name = name
            return model
    raise InvalidInputError(
        f"unknown model {name!r}; expected hypercube<n>, cycle<n>-prose, "
        "cycle<n>-printed, colorings-k<n>-q<q>, colorings-path<n>-q<q>, "
        "or hardcore-path<n>"
    )


def _load_inputs(args) -> ModelInstance:
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
        rmr = coupling if isinstance(coupling, RandomMappingRep) else None
        return ModelInstance("file", chain, rmr=rmr, dense=None if rmr else coupling,
                             name=Path(args.chain).stem)
    raise InvalidInputError("provide --model or --chain")


# ---------------------------------------------------------------------------
# Summaries


def _summaries(checks, extra=None) -> dict:
    doc = {"checks": [c.summary() for c in checks], "pass": all(c.passed for c in checks)}
    doc.update(extra or {})
    return doc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_model(args) -> int:
    rm = _load_inputs(args)
    summary = {"model": rm.name}
    if rm.chain is not None:
        summary["chain"] = chain_to_json_dict(rm.chain)
        summary["stationary"] = rm.pi.weights.tolist()
    if rm.rmr is not None:
        summary["coupling"] = rmr_to_json_dict(rm.rmr)
    elif rm.dense is not None:
        summary["coupling"] = coupling_to_json_dict(rm.dense)
    if rm.n_sites is not None:  # a single-site family
        summary["rate"] = rm.rate
        summary["exact"] = rm.exact
        summary["n_states"] = rm.n
    emit_report(args.out, f"model-{rm.name}", summary)
    return EXIT_OK


def cmd_validate(args) -> int:
    rm = _load_inputs(args)
    summary = {"model": rm.name}
    ok = True
    if rm.chain is not None:
        rep = validate_chain(rm.chain)
        summary["chain"] = {"valid": rep.valid, "issues": rep.issues, **rep.details}
        ok = ok and rep.valid
    if rm.rmr is None and rm.dense is None:  # a chain file without --coupling
        summary["coupling"] = {"skipped": f"model {rm.name} has no coupling"}
    else:
        # the exact limit's guard and an invalid mapping propagate (exit 3
        # and 2): a check that never ran is not a pass
        rep = validate_coupling(rm.exact_coupling())
        summary["coupling"] = {"valid": rep.valid, "issues": rep.issues, **rep.details}
        ok = ok and rep.valid
    summary["pass"] = ok
    emit_report(args.out, f"validate-{rm.name}", summary)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _quantize_summary(rm: ModelInstance):
    """Choi matrix of C* and the quantize summary.

    C* is built once, a mapping's J off its table. T is a
    mapping's ``superop_from_kraus(kraus_from_grand(...))``, the matrix of the
    :class:`KrausSet` that ``evolve`` and ``verify`` apply (the set checks
    trace preservation), or a dense coupling's :func:`quantized_coupling`.
    :func:`verify_cp` judges T (a mapping's by its Gram matrix, never building
    Choi(T)), and ``cp`` is J's spectrum. T is dropped before J (the Choi
    CSV's CSR matrix) is built.
    """
    C = rm.coupling()
    S = c_star_superop(rm.exact_coupling())
    summary = {"model": rm.name, "order": "basis_first"}  # the one Choi layout
    if validate_coupling(C).valid:
        if rm.rmr is not None:
            T = superop_from_kraus(kraus_from_grand(rm.rmr, rm.pi))
            check_fixed_point(T, rm.pi)
        else:
            T = quantized_coupling(S, rm.pi)[0]
        summary["trace_preserving"] = True  # asserted by the constructions
        summary["fixed_point_holds"] = True
        summary["channel_cp"] = verify_cp(T)
        del T
    else:
        summary["channel_skipped"] = "coupling is not a verified stochastic coupling"
    J = choi_matrix(S)
    eigs = J.eigenvalues
    summary["choi_min_eigenvalue"] = float(min_choi_eigenvalue(J))
    summary["choi_eigenvalues"] = eigs.tolist()
    summary["choi_eigenvalue_sum"] = float(eigs.sum())
    summary["cp"] = bool(is_completely_positive(J))
    return J, summary


def cmd_quantize(args) -> int:
    rm = _load_inputs(args)
    J, summary = _quantize_summary(rm)
    # the nonzero (row, col, value) triplets of the N^2 x N^2 Choi matrix,
    # formatted chunk by chunk as emit_report writes them
    header = f"# choi order=basis_first dim={J.matrix.shape[0]}"
    emit_report(args.out, f"quantize-{rm.name}", summary,
                ("choi", matrix_to_csv(J.matrix, header=header)))
    return EXIT_OK


def _check_m_max(args):
    """Reject a negative --m-max before any work is done."""
    if args.m_max < 0:
        raise InvalidInputError(f"--m-max must be >= 0, got {args.m_max}")


def _require_two_states(rm: ModelInstance):
    """Reject a one-state model before any work: a command that starts from
    a pair of distinct states has none to couple."""
    if rm.n < 2:
        raise InvalidInputError(
            f"model {rm.name!r} has one state, so there is no pair of distinct states to couple"
        )


def cmd_coalesce(args) -> int:
    _check_m_max(args)
    if not args.mc:
        for dest in ("m_grid", "samples", "seed"):
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
        _require_two_states(rm)
        grid = args.m_grid or _default_grid(args.m_max)
        pairs = default_start_pairs(rm, count=5, seed=args.seed)
        report = coalescence_tail_mc(
            rm.rmr, pairs, grid, seed=args.seed,
            samples=100_000 if args.samples is None else args.samples,
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
    emit_report(args.out, stem, summary, ("tails", [report.to_csv()]))
    return EXIT_OK


def _default_grid(m_max: int) -> list[int]:
    return list(range(0, m_max, max(1, m_max // 20))) + [m_max]


def cmd_evolve(args) -> int:
    _check_m_max(args)
    rm = _load_inputs(args)
    if rm.rmr is None:
        raise InvalidInputError("evolve needs a random-mapping model (CP channel)")
    C = rm.exact_coupling()
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
        rho0 = random_density(n, start_state_rng(args.seed))
    else:
        raise InvalidInputError(f"unknown --rho0 {args.rho0!r}")
    ks = kraus_from_grand(rm.rmr, rm.pi)
    report = coalescence_tail_exact(C, m_max=args.m_max)
    trace = evolve_trace(ks, rho0, rm.pi, args.m_max, report=report)
    summary = {
        "model": rm.name,
        "m_max": args.m_max,
        "rho0": args.rho0,
        "seed": args.seed,
        "final_trace_distance": float(trace.trace_distance[-1]),
    }
    emit_report(args.out, f"evolve-{rm.name}", summary, ("trace", [trace.to_csv()]))
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_m_max(args)
    rm = _load_inputs(args)
    if rm.rmr is None:
        raise InvalidInputError("verify needs a random-mapping model")
    _require_two_states(rm)
    if args.states < 1:
        raise InvalidInputError(f"--states must be >= 1, got {args.states}")
    pi = rm.pi
    n = pi.n
    # per state 5 N x N arrays (it, its orbit step, KrausSet.apply's sum
    # and 2 buffers), 320 bytes of objects
    require_bytes("verify's start states", args.states * (40 * n * n + 320))
    rng = start_state_rng(args.seed)
    C = rm.exact_coupling()
    # the channel (N x |R| numbers), made before the tails
    ks = kraus_from_grand(rm.rmr, pi)
    # one tails run, to the largest m any check reads (6 = m * l of the
    # submultiplicativity check); each check gets the report or its cut
    rate_grid = [] if rm.rate is None else [rm.n_sites * k for k in range(1, 8)]
    tails = coalescence_tail_exact(C, m_max=max([args.m_max, 6, *rate_grid]))
    trace_identity = coalescence_trace_identity_check(C, tails.up_to(min(args.m_max, 10)))
    report = tails.up_to(args.m_max)
    rho0_set = [random_density(n, rng) for _ in range(args.states)]

    checks = [
        laplacian_preservation_check(C, 0, n - 1),
        rescaled_qperp_decomposition_check(pi),
        trace_identity,
        qperp_bound_check(ks, pi, report, rho0_set, list(range(args.m_max + 1))),
        check_tail_submultiplicativity(C, tails, m=2, l=3),
    ]
    q = qsample(pi)
    mixed = DensityMatrix(
        (1 - 1e-3) * q.projector + 1e-3 * np.eye(n) / n
    )
    checks.append(gentle_measurement_step_check(mixed, q, eps=2e-3))
    if report.t_couple is not None:
        checks.append(main_theorem_check(ks, pi, report, rho0_set[:3], [0.25]))
    if rate_grid:
        checks.append(contraction_rate_check(rm, tails, rate_grid))
    summary = _summaries(checks, {"model": rm.name, "seed": args.seed})
    emit_report(args.out, f"verify-{rm.name}-seed{args.seed}", summary)
    return EXIT_OK if summary["pass"] else EXIT_CHECK_FAILED


def cmd_dilate(args) -> int:
    rm = _load_inputs(args)
    if rm.rmr is None:
        raise InvalidInputError("dilate needs a random-mapping model")
    if args.states < 1:
        raise InvalidInputError(f"--states must be >= 1, got {args.states}")
    require_mode(rm.rmr.n_r, args.mode)
    # kappa d^2 doubles: the route batch
    require_bytes("dilation", rm.rmr.n_r * rm.n * rm.n * 8)
    rng = start_state_rng(args.seed)
    ks = kraus_from_grand(rm.rmr, rm.pi)
    circ = build_dilation(ks)
    checks = []
    for _ in range(args.states):
        xi = uniform_entries(rng, (circ.dim,))
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
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("coalesce", help="coalescence tails, exact or Monte Carlo")
    _add_common(p)
    p.add_argument("--m-max", type=int, default=40)
    p.add_argument("--mc", action="store_true", help="Monte Carlo instead of exact")
    p.add_argument("--samples", type=int, help="MC trajectories per start pair "
                   "(--mc only; default 100000)")
    p.add_argument("--seed", type=int, help="MC randomness seed (--mc only, required there)")
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
        doc = read_json_file(args.config, lambda doc: doc)
    except InvalidInputError as exc:
        raise InvalidInputError(f"config {exc}") from exc
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
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (AssertionError, QCouplingError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

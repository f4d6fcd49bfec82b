import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import hypercube_qperp_overlap, unstamped_grand_coupling
from qcoupling import cli, coupling, quantize, report
from qcoupling.chain import TransitionMatrix, stationary_distribution
from qcoupling.cli import main
from qcoupling.coupling import (
    RandomMappingRep,
    induced_entries,
    rmr_to_json_dict,
    validate_coupling,
)
from qcoupling.errors import GuardExceededError
from qcoupling.models import hypercube_model


# the coupling section of a `validate` summary that passes
VALID = {"valid": True, "issues": [], "stochastic": True, "marginals": True,
         "coalescence": True, "symmetry": True}


def run(*argv):
    return main(list(argv))


def patch_everywhere(monkeypatch, name, replacement):
    """Replace ``name`` in every qcoupling module that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("qcoupling") and hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def files_in(path):
    return {p.name: p.read_bytes() for p in Path(path).iterdir()}


def load_summary(path, prefix):
    matches = [p for p in Path(path).iterdir() if p.name.startswith(prefix) and p.suffix == ".json"]
    assert len(matches) == 1, matches
    return json.loads(matches[0].read_text())


class TestExitCodes:
    def test_unknown_model_is_invalid_input(self, tmp_path):
        assert run("validate", "--model", "nonsense", "--out", str(tmp_path)) == 2

    def test_missing_file_is_invalid_input(self, tmp_path):
        assert run("validate", "--chain", "/no/such.json", "--out", str(tmp_path)) == 2

    def test_guard_exceeded_is_3(self, tmp_path):
        code = run("coalesce", "--model", "colorings-path5-q7", "--out", str(tmp_path))
        assert code == 3

    def test_cycle_past_exact_guard_is_3(self, tmp_path, capsys):
        # the cycle family is dense and has no MC path, so it stops at the guard
        assert run("validate", "--model", "cycle65-prose", "--out", str(tmp_path / "o")) == 3
        assert "guard" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cycle_at_exact_guard_is_0(self, tmp_path):
        assert run("validate", "--model", "cycle64-prose", "--out", str(tmp_path)) == 0

    def test_malformed_coupling_json_names_file_and_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("model", "--model", "hypercube2", "--out", str(out)) == 0
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps(load_summary(out, "model-hypercube2")["chain"]))
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "rmr",\n "R": [,]}')
        capsys.readouterr()
        argv = ["validate", "--chain", str(chain), "--coupling", str(bad)]
        assert run(*argv, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"{bad}: invalid JSON at line 2" in err, err

    @pytest.mark.parametrize("bad", ["chain", "coupling", "config"])
    def test_unreadable_file_is_invalid_input(self, tmp_path, capsys, bad):
        # a directory as --chain, or a --coupling or --config file that is not
        # UTF-8, exits 2 and names the path
        out = tmp_path / "out"
        assert run("model", "--model", "hypercube2", "--out", str(out)) == 0
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps(load_summary(out, "model-hypercube2")["chain"]))
        path = tmp_path / f"bad-{bad}"
        if bad == "chain":
            path.mkdir()
        else:
            path.write_bytes('{"model": "caf\u00e9"}'.encode("latin-1"))
        argv = ["validate", "--chain", str(path if bad == "chain" else chain),
                "--out", str(tmp_path / "o")]
        if bad == "coupling":
            argv += ["--coupling", str(path)]
        if bad == "config":
            argv = ["--config", str(path), *argv]
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{path}: cannot read" in err, err
        assert err.startswith("invalid input: config ") == (bad == "config"), err
        assert not (tmp_path / "o").exists()

    def test_failed_math_check_is_1(self, tmp_path):
        # the printed fixture variant is deliberately not a stochastic coupling
        assert run("validate", "--model", "cycle3-printed", "--out", str(tmp_path)) == 1

    def test_valid_model_is_0(self, tmp_path):
        assert run("validate", "--model", "hypercube2", "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("argv, problem", [
        (("--model", "colorings-path0-q2"), "at least one vertex"),
        (("--model", "colorings-k0-q3"), "at least one vertex"),
        (("--model", "hardcore-path0"), "at least one vertex"),
        (("--model", "hardcore-path3", "--fugacity", "nan"), "fugacity"),
        (("--model", "hardcore-path10", "--fugacity", "inf"), "fugacity"),  # MC-only: no chain
        (("--model", "hardcore-path3", "--fugacity", "1e200"), "fugacity"),  # lambda**2 overflows
    ])
    def test_degenerate_model_is_invalid_input(self, tmp_path, capsys, argv, problem):
        assert run("validate", *argv, "--out", str(tmp_path / "o")) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ("verify", "--model", "hypercube2"),
        ("dilate", "--model", "hypercube2"),
        ("evolve", "--model", "hypercube2", "--rho0", "random"),
    ])
    def test_negative_seed_is_invalid_input(self, tmp_path, capsys, argv):
        assert run(*argv, "--seed", "-1", "--out", str(tmp_path)) == 2
        assert "--seed" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("files", [("--coupling",), ("--chain",), ("--chain", "--coupling")])
    @pytest.mark.parametrize("subcommand", ["validate", "quantize", "model"])
    def test_model_with_input_files_is_invalid_input(self, tmp_path, capsys, subcommand, files):
        # the files are valid inputs of their own, so only the conflict can fail
        out = tmp_path / "out"
        assert run("model", "--model", "hypercube2", "--out", str(out)) == 0
        doc = load_summary(out, "model-hypercube2")
        paths = {"--chain": tmp_path / "chain.json", "--coupling": tmp_path / "coupling.json"}
        paths["--chain"].write_text(json.dumps(doc["chain"]))
        paths["--coupling"].write_text(json.dumps(doc["coupling"]))
        argv = [subcommand, "--model", "hypercube3"]
        for flag in files:
            argv += [flag, str(paths[flag])]
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / "conflict")) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--model", *files)), err
        assert not (tmp_path / "conflict").exists()

    @pytest.mark.parametrize("index", ["x", "1.5", "", "-1", "4", "9"])
    def test_bad_basis_index_is_invalid_input(self, tmp_path, capsys, index):
        # hypercube2 has 4 states, so basis:4 is one past the last
        argv = ("evolve", "--model", "hypercube2", "--rho0", f"basis:{index}")
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert "--rho0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("subcommand", ["verify", "dilate"])
    @pytest.mark.parametrize("states", ["0", "-2"])
    def test_states_below_one_is_invalid_input(self, tmp_path, capsys, subcommand, states):
        argv = (subcommand, "--model", "hypercube2", "--states", states)
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert "--states" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def mapping_files(tmp_path, prob=None, table=None, model="hypercube1"):
    """A bundled model's chain and random-mapping files, by default
    hypercube1's (2 states, 2 values of r); ``prob`` replaces Pr(r) of the
    first r and ``table`` the successor table."""
    out = tmp_path / "model"
    assert run("model", "--model", model, "--out", str(out)) == 0
    doc = load_summary(out, f"model-{model}")
    if prob is not None:
        doc["coupling"]["R"][0]["prob"] = prob
    if table is not None:
        doc["coupling"]["f"] = table
    paths = tmp_path / "chain.json", tmp_path / "mapping.json"
    for path, part in zip(paths, ("chain", "coupling")):
        path.write_text(json.dumps(doc[part]))  # a NaN is written as NaN, which json reads
    return [str(p) for p in paths]


class TestMappingFiles:
    @pytest.mark.parametrize("prob", [float("nan"), float("inf")])
    @pytest.mark.parametrize("subcommand", ["coalesce", "validate", "quantize"])
    def test_non_finite_probability_is_invalid_input(self, tmp_path, capsys, subcommand, prob):
        chain, mapping = mapping_files(tmp_path, prob=prob)
        capsys.readouterr()
        argv = (subcommand, "--chain", chain, "--coupling", mapping)
        assert run(*argv, "--out", str(tmp_path / "o")) == 2
        assert "Pr(r) must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [("coalesce", "--mc", "--seed", "1"), ("verify",)])
    def test_one_state_model_has_no_pair(self, tmp_path, capsys, argv):
        # a one-state chain and mapping: no pair of distinct states to start
        # MC tails or the edge-state checks from
        chain, mapping = tmp_path / "chain.json", tmp_path / "mapping.json"
        chain.write_text(json.dumps({"labels": ["a"], "P": [[1.0]]}))
        mapping.write_text(json.dumps(
            {"kind": "rmr", "R": [{"label": "r0", "prob": 1.0}], "f": [[0]]}))
        capsys.readouterr()
        assert run(*argv, "--chain", str(chain), "--coupling", str(mapping),
                   "--out", str(tmp_path / "o")) == 2
        assert "has one state, so there is no pair" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_successors_read_as_integers(self, tmp_path):
        chain, mapping = mapping_files(tmp_path, table=[[0.0, 0.0], [1.0, 1]])
        assert run("validate", "--chain", chain, "--coupling", mapping,
                   "--out", str(tmp_path / "o")) == 0


def _both(tmp_path, *argv):
    """Run argv on hypercube3 and on its chain and mapping files; the two
    output directories."""
    chain, mapping = mapping_files(tmp_path, model="hypercube3")
    outs = tmp_path / "bundled", tmp_path / "files"
    assert run(*argv, "--model", "hypercube3", "--out", str(outs[0])) == 0
    assert run(*argv, "--chain", chain, "--coupling", mapping, "--out", str(outs[1])) == 0
    return outs


def _series(out: Path, label: str) -> list[list[str]]:
    [path] = out.glob(f"*-{label}-*.csv")
    return [line.split(",") for line in path.read_text().splitlines()]


class TestMappingFileIsAModel:
    """A mapping file runs every subcommand that a bundled mapping runs."""

    def test_exact_tails_identical(self, tmp_path):
        bundled, files = _both(tmp_path, "coalesce", "--m-max", "20")
        [a], [b] = bundled.glob("*-tails-*.csv"), files.glob("*-tails-*.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_evolve_matches_bundled(self, tmp_path):
        # the file's pi comes from GTH elimination, not the bundled uniform pi
        bundled, files = _both(tmp_path, "evolve", "--m-max", "12")
        want, got = _series(bundled, "trace"), _series(files, "trace")
        assert got[0] == want[0] and len(got) == len(want) == 14
        np.testing.assert_allclose(np.array(got[1:], dtype=float),
                                   np.array(want[1:], dtype=float), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("argv", [
        ("dilate",), ("coalesce", "--mc", "--samples", "2000", "--seed", "1"),
    ], ids=["dilate", "coalesce-mc"])
    def test_runs(self, tmp_path, argv):
        chain, mapping = mapping_files(tmp_path, model="hypercube3")
        assert run(*argv, "--chain", chain, "--coupling", mapping,
                   "--out", str(tmp_path / "o")) == 0

    def test_model_writes_the_mapping(self, tmp_path):
        chain, mapping = mapping_files(tmp_path, model="hypercube3")
        assert run("model", "--chain", chain, "--coupling", mapping,
                   "--out", str(tmp_path / "o")) == 0
        doc = load_summary(tmp_path / "o", "model-chain")
        assert doc["coupling"]["kind"] == "rmr"
        assert doc["coupling"] == json.loads(Path(mapping).read_text())

    def test_verify_runs_the_named_models_checks_but_the_rate(self, tmp_path):
        # a file has no rate constant, so no contraction-rate envelope
        bundled, files = _both(tmp_path, "verify", "--m-max", "10", "--states", "3")
        want = load_summary(bundled, "verify-hypercube3")
        got = load_summary(files, "verify-chain")
        assert got["pass"] is True
        names = [c["check"] for c in want["checks"]]
        assert "contraction_rate" in names
        assert [c["check"] for c in got["checks"]] == [n for n in names if n != "contraction_rate"]

    def test_evolve_solves_pi_once(self, tmp_path, monkeypatch):
        chain, mapping = mapping_files(tmp_path, model="hypercube3")
        calls = []

        def counting(P):
            calls.append(P.n)
            return stationary_distribution(P)

        patch_everywhere(monkeypatch, "stationary_distribution", counting)
        assert run("evolve", "--chain", chain, "--coupling", mapping, "--m-max", "4",
                   "--out", str(tmp_path / "o")) == 0
        assert calls == [8]


def past_exact_limit_files(tmp_path):
    """hypercube7's successor table and the 128-state chain it induces: a
    random-mapping model one step past the exact limit, given as files."""
    rmr = hypercube_model(7).rmr
    chain = {"labels": [str(i) for i in range(rmr.n)],
             "P": induced_entries(rmr.table, rmr.probs).tolist()}
    paths = tmp_path / "chain128.json", tmp_path / "mapping128.json"
    paths[0].write_text(json.dumps(chain))
    paths[1].write_text(json.dumps(rmr_to_json_dict(rmr)))
    return [str(p) for p in paths]


class TestExactLimit:
    """Every kind of input meets the one exact limit, with one message."""

    @pytest.mark.parametrize("argv", [
        ("validate",), ("quantize",), ("coalesce", "--m-max", "5"),
        ("evolve", "--m-max", "5"), ("verify", "--m-max", "5"),
    ], ids=lambda argv: argv[0])
    def test_mapping_files_past_the_limit_are_guard(self, tmp_path, capsys, argv):
        chain, mapping = past_exact_limit_files(tmp_path)
        argv = (*argv, "--chain", chain, "--coupling", mapping)
        assert run(*argv, "--out", str(tmp_path / "o")) == 3
        assert "exact mode guarded at N <= 64; N = 128" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_model_on_files_past_the_limit_runs(self, tmp_path):
        chain, mapping = past_exact_limit_files(tmp_path)
        assert run("model", "--chain", chain, "--coupling", mapping,
                   "--out", str(tmp_path / "o")) == 0
        assert load_summary(tmp_path / "o", "model-chain128")["coupling"]["kind"] == "rmr"

    @pytest.mark.parametrize("argv", [
        ("evolve", "--model", "hypercube8"), ("dilate", "--model", "hypercube12"),
    ], ids=["evolve", "dilate"])
    def test_guard_before_the_kraus_set(self, tmp_path, monkeypatch, argv):
        def unreachable(rmr, pi):
            raise AssertionError("Kraus set built past a guard")

        patch_everywhere(monkeypatch, "kraus_from_grand", unreachable)
        assert run(*argv, "--out", str(tmp_path / "o")) == 3
        assert not (tmp_path / "o").exists()


class TestValidate:
    def test_chain_without_coupling_is_skipped(self, tmp_path):
        chain, _ = mapping_files(tmp_path)
        assert run("validate", "--chain", chain, "--out", str(tmp_path / "o")) == 0
        doc = load_summary(tmp_path / "o", "validate-chain")
        assert doc["coupling"] == {"skipped": "model chain has no coupling"}
        assert doc["chain"]["valid"] and doc["pass"]

    def test_mc_only_model_is_guard(self, tmp_path, capsys):
        # hypercube7 has no dense chain or coupling: nothing could be checked
        assert run("validate", "--model", "hypercube7", "--out", str(tmp_path / "o")) == 3
        assert "exact mode guarded at N <= 64; N = 128" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mapping_builds_no_pair_space_operator(self, tmp_path, monkeypatch):
        # a mapping is valid by construction: its report needs no N^2 x N^2 operator
        chain, mapping = mapping_files(tmp_path, model="hypercube3")
        runs = {"model": ("--model", "hypercube6"), "files": ("--chain", chain, "--coupling", mapping)}
        for name, argv in runs.items():
            assert run("validate", *argv, "--out", str(tmp_path / f"{name}-built")) == 0

        def unreachable(rmr):
            raise AssertionError("pair-space operator built")

        patch_everywhere(monkeypatch, "grand_coupling_operator", unreachable)
        for name, argv in runs.items():
            out = tmp_path / f"{name}-not-built"
            assert run("validate", *argv, "--out", str(out)) == 0
            assert files_in(out) == files_in(tmp_path / f"{name}-built")
        assert load_summary(tmp_path / "files-not-built", "validate-chain")["coupling"] == VALID

    @pytest.mark.parametrize("table", [[[0, 1], [0, 1]], [[0, 0], [1, 2]]])
    def test_invalid_mapping_is_invalid_input(self, tmp_path, capsys, table):
        # a table that does not reproduce the chain, and one with an out-of-range successor
        chain, mapping = mapping_files(tmp_path, table=table)
        capsys.readouterr()
        assert run("validate", "--chain", chain, "--coupling", mapping,
                   "--out", str(tmp_path / "o")) == 2
        assert "mapping.json" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("coupling_doc, field", [
        ({"kind": "rmr"}, "'R'"),
        ({"kind": "dense"}, "'C'"),
        ({"kind": "rmr", "R": [], "f": []}, "'R'"),
        ({"kind": "rmr", "R": [{"prob": 0.5}, {"label": "b", "prob": 0.5}],
          "f": [[0, 0], [1, 1]]}, "'label'"),
        ({"kind": "rmr", "R": [{"label": "a", "prob": 0.5}, {"label": "b", "prob": 0.5}],
          "f": [[0.9, 1.7], [0, 1]]}, "'f'"),
        ({"kind": "rmr", "R": [{"label": "a", "prob": 0.5}, {"label": "b", "prob": 0.5}],
          "f": [[True, False], [0, 1]]}, "'f'"),
        # booleans and strings are no JSON numbers: none is cast, in any numeric field
        ({"kind": "rmr", "R": [{"label": "a", "prob": True}, {"label": "b", "prob": 0.0}],
          "f": [[0, 0], [1, 1]]}, "prob"),
        ({"kind": "rmr", "R": [{"label": "a", "prob": "0.5"}, {"label": "b", "prob": 0.5}],
          "f": [[0, 0], [1, 1]]}, "prob"),
        ({"kind": "rmr", "R": [{"label": "a", "prob": 0.5}, {"label": "b", "prob": 0.5}],
          "f": [["0", "1"], ["1", "0"]]}, "'f'"),
        ({"kind": "dense", "C": [[0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0], [0, 0, 0, 0],
                                 [0.5, 0.5, 0.5, True]]}, "'C'"),
        ({"kind": "dense", "C": [[0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0], [0, 0, 0, False],
                                 [0.5, 0.5, 0.5, 0.5]]}, "'C'"),
    ], ids=["rmr-without-R", "dense-without-C", "empty-R", "R-entry-without-label",
            "fractional-f", "boolean-f", "boolean-prob", "string-prob", "string-f",
            "true-in-C", "false-in-C"])
    def test_malformed_coupling_names_field(self, tmp_path, capsys, coupling_doc, field):
        chain, mapping = mapping_files(tmp_path)
        Path(mapping).write_text(json.dumps(coupling_doc))
        capsys.readouterr()
        assert run("validate", "--chain", chain, "--coupling", mapping,
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "mapping.json" in err and field in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entry", [True, "0.5", None])
    def test_non_number_in_chain_names_field(self, tmp_path, capsys, entry):
        chain, mapping = mapping_files(tmp_path)
        Path(chain).write_text(json.dumps({"labels": ["0", "1"],
                                           "P": [[entry, 0.5], [0.5, 0.5]]}))
        capsys.readouterr()
        assert run("validate", "--chain", chain, "--coupling", mapping,
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "chain.json" in err and "'P'" in err
        assert not (tmp_path / "o").exists()


# Pr(r) = 0.3, 0.1, 0.2, 0.4 on two states: r0 and r2 send both states to 0, r1
# is the identity and r3 sends both to 1. The mapping induces P[0, 0] = (0.3 +
# 0.1) + 0.2 = 0.6000000000000001, summed in r order. The grand coupling's
# x-marginal at (x'=0, x=0, y=1) sums the same weights by cell, (0.3 + 0.2) +
# 0.1 = 0.6, one ulp lower, and that is what the full N^3 check compares with
# the chain.
EDGE_MAPPING = {
    "kind": "rmr",
    "R": [{"label": f"r{i}", "prob": p} for i, p in enumerate([0.3, 0.1, 0.2, 0.4])],
    "f": [[0, 0], [0, 1], [0, 0], [1, 1]],
}
EDGE_INDUCED_P00 = (0.3 + 0.1) + 0.2


class TestToleranceEdge:
    """Chains whose P[0, 0] lies within a few ulps of 1e-12 from the induced
    marginal (P[1, 0] is 5e-13 off, and P[:, 1] exact). The one rule is the
    mapping's construction check; a mapping that passes it is a coupling."""

    def test_full_check_differs_by_an_ulp_at_the_edge(self):
        # at P[0, 0] = 0.6000000000010001 the construction check reads
        # 9.99978e-13 and the full check of the unstamped operator 1.0000889e-12
        P = np.array([[0.6000000000010001, 0.5], [0.3999999999995, 0.5]])
        rmr = RandomMappingRep(
            base=TransitionMatrix(("a", "b"), P), r_labels=("r0", "r1", "r2", "r3"),
            probs=np.array([r["prob"] for r in EDGE_MAPPING["R"]]),
            table=np.array(EDGE_MAPPING["f"]).T)
        assert validate_coupling(rmr).valid
        assert validate_coupling(unstamped_grand_coupling(rmr)).issues == [
            "condition 1 (x-marginal) violated at (x'=0, x=0, y=1) by 1e-12"]

    @pytest.mark.parametrize("p00, valid", [
        (0.6000000000009998, True), (0.600000000001, True), (0.6000000000010001, True),
        (0.6000000000010002, False), (0.6000000000010003, False),
    ])
    def test_validate_and_quantize(self, tmp_path, capsys, p00, valid):
        assert (abs(p00 - EDGE_INDUCED_P00) <= 1e-12) == valid
        chain, mapping = tmp_path / "edge.json", tmp_path / "mapping.json"
        chain.write_text(json.dumps({"labels": ["a", "b"],
                                     "P": [[p00, 0.5], [0.3999999999995, 0.5]]}))
        mapping.write_text(json.dumps(EDGE_MAPPING))
        files = ("--chain", str(chain), "--coupling", str(mapping))
        codes = [run(cmd, *files, "--out", str(tmp_path / cmd)) for cmd in ("validate", "quantize")]
        if not valid:
            assert codes == [2, 2]
            assert capsys.readouterr().err.count("does not reproduce the base chain") == 2
            return
        assert codes == [0, 0]
        doc = load_summary(tmp_path / "validate", "validate-edge")
        assert doc["pass"] and doc["coupling"] == VALID
        doc = load_summary(tmp_path / "quantize", "quantize-edge")
        assert doc["channel_cp"] is True and doc["cp"] is True and "channel_skipped" not in doc


class TestQuantize:
    def test_printed_fixture_report(self, tmp_path):
        assert run("quantize", "--model", "cycle3-printed", "--out", str(tmp_path)) == 0
        doc = load_summary(tmp_path, "quantize-cycle3-printed")
        assert doc["cp"] is False
        assert doc["choi_min_eigenvalue"] == pytest.approx(-1.04, abs=0.01)
        assert doc["choi_eigenvalue_sum"] == pytest.approx(3.0, abs=1e-9)

    def test_cp_model_report(self, tmp_path):
        assert run("quantize", "--model", "hypercube2", "--out", str(tmp_path)) == 0
        doc = load_summary(tmp_path, "quantize-hypercube2")
        assert doc["channel_cp"] is True and doc["trace_preserving"] is True


class TestVerify:
    def test_hypercube3_all_pass(self, tmp_path):
        code = run(
            "verify", "--model", "hypercube3", "--m-max", "10", "--states", "3",
            "--out", str(tmp_path),
        )
        assert code == 0
        doc = load_summary(tmp_path, "verify-hypercube3")
        assert doc["pass"] is True
        names = [c["check"] for c in doc["checks"]]
        assert len(names) == len(set(names))  # every check listed exactly once

    def test_tails_run_once(self, tmp_path, monkeypatch):
        # every tail check reads one shared report, run to the largest m any
        # of them needs: max(--m-max 20, 6, 7 x n_sites = 42)
        calls = []
        original = coupling.coalescence_tail_exact

        def counting(C, m_max, **kwargs):
            calls.append(m_max)
            return original(C, m_max, **kwargs)

        patch_everywhere(monkeypatch, "coalescence_tail_exact", counting)
        assert run("verify", "--model", "hypercube6", "--out", str(tmp_path)) == 0
        assert calls == [42]

    def test_channel_first_and_pair_rows_dropped(self, tmp_path, monkeypatch):
        # the channel, a Kraus set, is built before the tails, and no report
        # carries per-pair rows or a pair list: the trace identity reads its
        # pairs' tails off the tail vectors, so every check gets the worst
        # tails alone
        seen = []

        def recording(name, rows_of=None):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                report = None if rows_of is None else args[rows_of]
                seen.append((name, None if report is None else
                             report.per_pair is not None or report.pairs is not None))
                return original(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)

        recording("kraus_from_grand")
        recording("coalescence_tail_exact")
        recording("coalescence_trace_identity_check", rows_of=1)
        recording("qperp_bound_check", rows_of=2)
        recording("check_tail_submultiplicativity", rows_of=1)
        recording("main_theorem_check", rows_of=2)
        recording("contraction_rate_check", rows_of=1)
        assert run("verify", "--model", "hypercube6", "--out", str(tmp_path)) == 0
        assert seen == [
            ("kraus_from_grand", None), ("coalescence_tail_exact", None),
            ("coalescence_trace_identity_check", False), ("qperp_bound_check", False),
            ("check_tail_submultiplicativity", False), ("main_theorem_check", False),
            ("contraction_rate_check", False),
        ]

    def test_same_summary_as_checks_run_in_list_order(self, tmp_path):
        # the checks run in another order than they are listed; the summary
        # lists them as before
        assert run("verify", "--model", "hypercube3", "--out", str(tmp_path)) == 0
        names = [c["check"] for c in load_summary(tmp_path, "verify-hypercube3")["checks"]]
        assert names == [
            "laplacian_preservation", "rescaled_qperp_decomposition",
            "coalescence_trace_identity", "qperp_bound", "tail_submultiplicativity",
            "gentle_measurement", "main_theorem", "contraction_rate",
        ]


class TestByteGuard:
    """A stage sized by the input stops at the byte guard before it allocates:
    exit 3, a message naming the stage, its estimate and the budget, and no
    files."""

    @pytest.mark.parametrize("argv,stage,estimate", [
        # 172 bytes a step (tail_max, m_values and a CSV row), and 7 N^2 doubles
        (("coalesce", "--model", "hypercube6", "--m-max", "100000000"),
         "exact tails", 100_000_001 * 172 + 7 * 64 * 64 * 8),
        (("evolve", "--model", "hypercube3", "--m-max", "100000000"),
         "exact tails", 100_000_001 * 172 + 7 * 8 * 8 * 8),
        (("verify", "--model", "hypercube3", "--m-max", "100000000"),
         "exact tails", 100_000_001 * 172 + 7 * 8 * 8 * 8),
        # per state, five 8 x 8 arrays and 320 bytes of objects
        (("verify", "--model", "hypercube3", "--states", "100000000"),
         "verify's start states", 100_000_000 * (5 * 8 * 8 * 8 + 320)),
        # 9 bytes a step for the kernel's counts and report mask, and a
        # one-row block record of 1-byte indices
        (("coalesce", "--model", "hypercube3", "--mc", "--seed", "1", "--samples", "10",
          "--m-grid", "2000000000"),
         "MC tails", 9 * 2_000_000_001 + 2_000_000_000),
        # the route batch, kappa x d^2 doubles
        (("dilate", "--model", "hypercube12"), "dilation", 24 * 4096**2 * 8),
    ], ids=["coalesce", "evolve", "verify-m-max", "verify-states", "coalesce-mc", "dilate"])
    def test_past_the_budget_is_guard(self, tmp_path, capsys, argv, stage, estimate):
        tracemalloc.start()
        try:
            code = run(*argv, "--out", str(tmp_path / "o"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert f"guard exceeded: {stage} would hold {estimate:,} bytes" in err
        assert f"the byte guard is {coupling.BYTES_GUARD:,}" in err
        assert peak < 16 * 2**20  # nothing of the stage's size was allocated
        assert not (tmp_path / "o").exists()

    def test_dilate_admits_hypercube11(self, tmp_path, monkeypatch):
        # 22 x 2048^2 doubles, 0.74 GB, are under the budget: dilate goes on
        # to build its Kraus set
        class Reached(Exception):
            pass

        def reached(rmr, pi):
            raise Reached

        patch_everywhere(monkeypatch, "kraus_from_grand", reached)
        with pytest.raises(Reached):
            run("dilate", "--model", "hypercube11", "--out", str(tmp_path / "o"))

    @pytest.mark.parametrize("model,m_max", [("hypercube3", 20000), ("hardcore-path3", 20000),
                                             ("colorings-path2-q3", 20000)])
    def test_tails_estimate_counts_what_coalesce_holds(self, tmp_path, model, m_max):
        # the tracemalloc peak that steps add to coalesce, against the
        # estimate of 172 bytes a step: tail_max, m_values, and a CSV row as
        # a str in series_csv's list beside its line twice in the joined
        # text. Rows here are about 30 characters (tails in e-notation), and
        # the estimate allows 32
        peaks = []
        for m in (0, m_max):
            tracemalloc.start()
            try:
                run("coalesce", "--model", model, "--m-max", str(m),
                    "--out", str(tmp_path / str(m)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        estimate = m_max * 172
        assert 0.8 * estimate <= peaks[1] - peaks[0] <= estimate

    def test_tails_estimate_counts_the_vectors(self, monkeypatch):
        # 7 N^2 doubles: the tracemalloc peak of the tails to m = 3 at N = 64,
        # where the per-step arrays are a few dozen bytes
        rmr = hypercube_model(6).rmr
        n = rmr.n
        coupling.coalescence_tail_exact(rmr, m_max=3)
        tracemalloc.start()
        try:
            coupling.coalescence_tail_exact(rmr, m_max=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.8 * 7 * n * n * 8 <= peak <= 7 * n * n * 8
        budget = 4 * 172 + 7 * n * n * 8
        monkeypatch.setattr(coupling, "BYTES_GUARD", budget)
        coupling.coalescence_tail_exact(rmr, m_max=3)  # exactly at the budget
        with pytest.raises(GuardExceededError, match=f"exact tails would hold {budget + 172:,}"):
            coupling.coalescence_tail_exact(rmr, m_max=4)

    def test_states_at_the_budget_run(self, tmp_path, monkeypatch):
        # hypercube3: the tails, to 7 x n_sites = 21, hold 22 x 172 + 7 x 64
        # x 8 = 7368 bytes, and 20 start states of 8 x 8 hold 20 x (5 x 512 + 320) =
        # 57600, which is the budget
        monkeypatch.setattr(coupling, "BYTES_GUARD", 20 * (5 * 8 * 8 * 8 + 320))
        argv = ("verify", "--model", "hypercube3", "--out", str(tmp_path))
        assert run(*argv, "--states", "20") == 0
        assert run(*argv, "--states", "21") == 3

    @pytest.mark.parametrize("model,states", [("hypercube1", 4000), ("hypercube3", 2000),
                                              ("hypercube5", 100)])
    def test_states_estimate_counts_what_verify_holds(self, tmp_path, model, states):
        # the tracemalloc peak that states add to verify, against the
        # estimate of 5 N x N arrays and 320 bytes a state: the stacked orbit
        # holds the states' list, the latest step, and KrausSet.apply's sum
        # and its two gather buffers
        peaks = []
        for count in (1, states + 1):
            tracemalloc.start()
            try:
                run("verify", "--model", model, "--states", str(count),
                    "--out", str(tmp_path / str(count)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        n = 2 ** int(model.removeprefix("hypercube"))
        estimate = states * (5 * n * n * 8 + 320)
        assert 0.8 * estimate <= peaks[1] - peaks[0] <= estimate


class TestCoalesce:
    def test_exact_csv_columns(self, tmp_path):
        assert run(
            "coalesce", "--model", "hypercube2", "--m-max", "6", "--out", str(tmp_path)
        ) == 0
        csv = next(p for p in tmp_path.iterdir() if p.suffix == ".csv")
        assert csv.read_text().splitlines()[0] == "m,tail_max"

    def test_mc_requires_seed(self, tmp_path):
        assert run(
            "coalesce", "--model", "hypercube3", "--mc", "--out", str(tmp_path)
        ) == 2

    @pytest.mark.parametrize("model", ["hypercube4", "hardcore-path4"])
    def test_mc_negative_seed_is_invalid_input(self, tmp_path, capsys, model):
        code = run("coalesce", "--model", model, "--mc", "--seed", "-1",
                   "--samples", "100", "--out", str(tmp_path))
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,code,message", [
        (("--seed", str(2**64)), 2, "--seed must be < 2**64"),
        (("--seed", "1", "--samples", str(2**32)), 2, "--samples must be < 2**32"),
        (("--seed", "1", "--samples", "10", "--m-grid", str(2**32)), 3, "guard exceeded: MC tails"),
    ], ids=["seed", "samples", "m"])
    def test_mc_counters_past_their_bits(self, tmp_path, capsys, flags, code, message):
        # the stream's key is 64 bits, and a word's counter holds the trajectory
        # and the step in 32 bits each: a larger seed, sample count or m would
        # repeat words, so it is refused before any work
        assert run("coalesce", "--model", "hardcore-path4", "--mc", *flags,
                   "--out", str(tmp_path / "o")) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mc_zero_grid(self, tmp_path):
        # m = 0 needs no randomness; the hypercube's start pair is apart there
        code = run("coalesce", "--model", "hypercube3", "--mc", "--seed", "1",
                   "--samples", "100", "--m-grid", "0", "--out", str(tmp_path))
        assert code == 0
        doc = load_summary(tmp_path, "coalesce-hypercube3")
        assert doc["mode"] == "monte_carlo" and doc["tail_final"] == 1.0

    @pytest.mark.parametrize("m_max,grid", [
        (0, [0]), (1, [0, 1]), (40, [*range(0, 41, 2)]),
        (41, [*range(0, 41, 2), 41]), (45, [*range(0, 45, 2), 45]),
    ])
    def test_mc_default_grid_ends_at_m_max(self, tmp_path, m_max, grid):
        code = run("coalesce", "--model", "hypercube3", "--mc", "--seed", "1",
                   "--samples", "1000", "--m-max", str(m_max), "--out", str(tmp_path))
        assert code == 0
        rows = _series(tmp_path, "tails")[1:]
        assert [int(row[0]) for row in rows] == grid
        assert load_summary(tmp_path, "coalesce-hypercube3")["tail_final"] == float(rows[-1][1])

    def test_mc_default_grid_at_default_m_max(self, tmp_path):
        # --m-max 40 by default, every second m: the same files as that grid given
        argv = ("coalesce", "--model", "hardcore-path4", "--mc", "--seed", "2",
                "--samples", "3000")
        assert run(*argv, "--out", str(tmp_path / "default")) == 0
        grid = [str(m) for m in range(0, 41, 2)]
        assert run(*argv, "--m-grid", *grid, "--out", str(tmp_path / "given")) == 0
        assert files_in(tmp_path / "default") == files_in(tmp_path / "given")

    def test_mc_determinism_across_reruns(self, tmp_path):
        outs = []
        for i in range(3):
            out = tmp_path / f"run{i}"
            assert run(
                "coalesce", "--model", "hypercube8", "--mc",
                "--samples", "20000", "--seed", "7",
                "--m-grid", "10", "20", "33", "--out", str(out),
            ) == 0
            outs.append(files_in(out))
        assert outs[0] == outs[1] == outs[2]


class TestEvolve:
    def test_trace_csv_columns(self, tmp_path):
        assert run(
            "evolve", "--model", "hypercube3", "--m-max", "8", "--out", str(tmp_path)
        ) == 0
        csv = next(p for p in tmp_path.iterdir() if p.suffix == ".csv")
        header = csv.read_text().splitlines()[0]
        assert header == (
            "m,trace_distance,qperp_overlap,classical_tail_max,"
            "qperp_bound,theorem_envelope"
        )

    @pytest.mark.parametrize("index", ["0", "3"])
    def test_basis_state_in_range(self, tmp_path, index):
        argv = ("evolve", "--model", "hypercube2", "--rho0", f"basis:{index}", "--m-max", "4")
        assert run(*argv, "--out", str(tmp_path)) == 0
        doc = load_summary(tmp_path, "evolve-hypercube2")
        assert doc["rho0"] == f"basis:{index}"

    @pytest.mark.parametrize("rho0", ["mixed", "basis:0", "basis:5"])
    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_hypercube_overlap_oracle(self, tmp_path, n, rho0):
        # from I/N or a basis state the overlap is the pi (x) pi-averaged
        # coupon-collector tail, at every m to the default --m-max of 30
        assert run("evolve", "--model", f"hypercube{n}", "--rho0", rho0,
                   "--out", str(tmp_path)) == 0
        header, *rows = _series(tmp_path, "trace")
        col = header.index("qperp_overlap")
        assert [int(row[0]) for row in rows] == list(range(31))
        for row in rows:
            m = int(row[0])
            assert abs(float(row[col]) - hypercube_qperp_overlap(n, m)) <= 1e-12, m


@pytest.mark.parametrize("command", ["quantize", "evolve", "verify"])
def test_only_quantize_builds_the_channel_matrix(tmp_path, monkeypatch, command):
    # evolve and verify apply the Kraus set, CP by construction: neither
    # builds its N^2 x N^2 matrix nor judges it CP
    want = ["superop_from_kraus", "verify_cp"] if command == "quantize" else []
    calls = []
    for name in ("superop_from_kraus", "verify_cp"):
        def spy(*args, _name=name, _original=getattr(quantize, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        patch_everywhere(monkeypatch, name, spy)
    assert run(command, "--model", "hypercube3", "--out", str(tmp_path)) == 0
    assert calls == want


class TestDilate:
    def test_amplified_hypercube2(self, tmp_path):
        code = run(
            "dilate", "--model", "hypercube2", "--mode", "amplified",
            "--states", "3", "--out", str(tmp_path),
        )
        assert code == 0
        doc = load_summary(tmp_path, "dilate-hypercube2")
        assert doc["pass"] is True and doc["kappa"] == 4

    def test_amplified_kappa_rule_before_the_kraus_set(self, tmp_path, monkeypatch, capsys):
        def unreachable(rmr, pi):
            raise AssertionError("Kraus set built for an inexact kappa")

        patch_everywhere(monkeypatch, "kraus_from_grand", unreachable)
        argv = ("dilate", "--model", "hypercube7", "--mode", "amplified", "--seed", "1")
        assert run(*argv, "--out", str(tmp_path / "o")) == 2
        assert "got kappa=14" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestModelAndConfig:
    def test_model_materializes_json(self, tmp_path):
        assert run("model", "--model", "hardcore-path3", "--out", str(tmp_path)) == 0
        doc = load_summary(tmp_path, "model-hardcore-path3")
        assert doc["n_states"] == 5
        assert doc["coupling"]["kind"] == "rmr"

    def test_config_file_mirrors_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "hypercube2", "out": str(tmp_path / "o")}))
        assert run("--config", str(cfg), "validate") == 0

    def test_config_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modell": "hypercube2"}))
        assert run("--config", str(cfg), "validate") == 2

    def test_rerun_identical_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("quantize", "--model", "cycle3-prose", "--out", str(out)) == 0
        assert files_in(a) == files_in(b)

    @staticmethod
    def _run_config(tmp_path, subcommand, **doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "o"), **doc}))
        return run("--config", str(cfg), subcommand)

    def test_config_numeric_string_converted(self, tmp_path):
        code = self._run_config(tmp_path, "coalesce", model="hypercube2", m_max="6")
        assert code == 0
        doc = load_summary(tmp_path / "o", "coalesce-hypercube2")
        assert doc["mode"] == "exact"

    @pytest.mark.parametrize("value", ["twenty", 2.5, True, [6], None])
    def test_config_wrong_type_names_key(self, tmp_path, capsys, value):
        code = self._run_config(tmp_path, "coalesce", model="hypercube2", m_max=value)
        assert code == 2
        err = capsys.readouterr().err
        assert "'m_max'" in err and "expected int" in err

    def test_config_bad_choice_names_choices(self, tmp_path, capsys):
        code = self._run_config(tmp_path, "dilate", model="hypercube2", mode="diagonal")
        assert code == 2
        err = capsys.readouterr().err
        assert "'mode'" in err and "postselect" in err

    def test_quantize_has_no_order(self, tmp_path, capsys):
        # every Choi matrix has one layout, so neither the flag nor the config key exists
        with pytest.raises(SystemExit) as exc:
            run("quantize", "--model", "hypercube2", "--order", "map_first", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert self._run_config(tmp_path, "quantize", model="hypercube2", order="map_first") == 2
        assert "config key 'order' does not match any flag" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_coalesce_has_no_workers(self, tmp_path, capsys, via):
        # MC blocks run on one thread, so neither the flag nor the config key exists
        if via == "flags":
            with pytest.raises(SystemExit) as exc:
                run("coalesce", "--model", "hypercube3", "--mc", "--seed", "1",
                    "--samples", "100", "--workers", "2", "--out", str(tmp_path / "o"))
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err
        else:
            code = self._run_config(tmp_path, "coalesce", model="hypercube3", mc=True,
                                    seed=1, samples=100, workers=2)
            assert code == 2
            assert "config key 'workers' does not match any flag" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_m_grid_list(self, tmp_path):
        code = self._run_config(
            tmp_path, "coalesce", model="hypercube3", mc=True, samples=200, seed=1,
            m_grid=[2, "4", 8],
        )
        assert code == 0
        doc = load_summary(tmp_path / "o", "coalesce-hypercube3")
        assert doc["mode"] == "monte_carlo" and doc["samples"] == 200

    @pytest.mark.parametrize("value", [8, [], [2, 4.5], "2 4"])
    def test_config_m_grid_must_be_int_list(self, tmp_path, capsys, value):
        code = self._run_config(
            tmp_path, "coalesce", model="hypercube3", mc=True, seed=1, m_grid=value
        )
        assert code == 2
        assert "'m_grid'" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_m_grid_without_mc_rejected(self, tmp_path, capsys, via):
        # exact tails run to --m-max; a grid there used to be dropped silently
        if via == "flags":
            code = run("coalesce", "--model", "hypercube3", "--m-grid", "2", "4",
                       "--out", str(tmp_path / "o"))
        else:
            code = self._run_config(tmp_path, "coalesce", model="hypercube3", m_grid=[2, 4])
        assert code == 2
        assert "--m-grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value", [("samples", 5), ("seed", 4)])
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_mc_flags_without_mc_rejected(self, tmp_path, capsys, via, flag, value):
        # they used to be dropped silently, leaving the plain exact files
        if via == "flags":
            code = run("coalesce", "--model", "hypercube3", f"--{flag}", str(value),
                       "--out", str(tmp_path / "o"))
        else:
            code = self._run_config(tmp_path, "coalesce", model="hypercube3", **{flag: value})
        assert code == 2
        assert f"--{flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("samples", 0, "--samples must be >= 1, got 0"),
        ("m_grid", [-1, 4], "--m-grid entries must be nonnegative, got -1"),
    ])
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_mc_bad_samples_or_grid_names_flag(self, tmp_path, capsys, via, flag, value,
                                               message):
        if via == "flags":
            values = [str(v) for v in (value if isinstance(value, list) else [value])]
            code = run("coalesce", "--model", "hypercube3", "--mc", "--seed", "1",
                       "--" + flag.replace("_", "-"), *values, "--out", str(tmp_path / "o"))
        else:
            code = self._run_config(tmp_path, "coalesce", model="hypercube3", mc=True, seed=1,
                                    **{flag: value})
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["coalesce", "evolve", "verify"])
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_negative_m_max_names_flag(self, tmp_path, capsys, monkeypatch, via, subcommand):
        # rejected before any work: the model is never resolved
        def unreachable(name, args):
            raise AssertionError("model resolved before --m-max was checked")

        monkeypatch.setattr(cli, "resolve_model", unreachable)
        if via == "flags":
            code = run(subcommand, "--model", "hypercube2", "--m-max", "-1",
                       "--out", str(tmp_path / "o"))
        else:
            code = self._run_config(tmp_path, subcommand, model="hypercube2", m_max=-1)
        assert code == 2
        assert "--m-max must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_switch_takes_bool(self, tmp_path, capsys):
        code = self._run_config(tmp_path, "coalesce", model="hypercube3", mc="yes", seed=1)
        assert code == 2
        assert "true or false" in capsys.readouterr().err

    def test_config_non_flag_attribute_rejected(self, tmp_path):
        assert self._run_config(tmp_path, "validate", model="hypercube2", func="x") == 2


class TestImportFootprint:
    def test_no_job_loads_numpy_random_or_openssl(self, tmp_path):
        # numpy.random loads OpenSSL's _hashlib through secrets, about 5 MB of
        # RSS, and hashlib loads it too. Start states and MC start pairs draw
        # from the stdlib generator, MC tails from the SplitMix64 counter
        # stream, and emit_report hashes with CPython's own SHA-256, so no job
        # loads either. Only a fresh interpreter shows what is loaded; it runs
        # the jobs in turn
        if report.sha256.__module__ == "_hashlib":
            pytest.skip("this CPython has no SHA-256 of its own: emit_report uses hashlib's")
        src = Path(cli.__file__).resolve().parent.parent
        code = (
            "import contextlib, io, sys\n"
            "def loaded():\n"
            "    return [m for m in ('numpy.random', '_hashlib') if m in sys.modules]\n"
            "import numpy\n"
            "print('numpy', *loaded())\n"
            "import qcoupling.cli as cli\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv.split()) == 0, argv\n"
            "    print(argv.split()[0], *loaded())\n"
        )
        jobs = [
            "model --model hypercube3",
            "validate --model hypercube3",
            "coalesce --model hypercube3 --m-max 6",
            "quantize --model hypercube3",
            "evolve --model hypercube3 --m-max 6",
            "evolve --model hardcore-path4 --m-max 6 --rho0 random --seed 3",
            "verify --model hypercube2 --m-max 4 --seed 3",
            "dilate --model hypercube2 --mode amplified --seed 3",
            "dilate --model hypercube3 --seed 3",
            # a hypercube's one worst pair, and five seeded pairs
            "coalesce --model hypercube3 --mc --samples 1000 --seed 1 --m-grid 2 4",
            "coalesce --model hardcore-path4 --mc --samples 1000 --seed 1 --m-grid 2 4",
        ]
        out = subprocess.run(
            [sys.executable, "-c", code, *(f"{job} --out {tmp_path}" for job in jobs)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            check=True, timeout=120,
        )
        lines = out.stdout.splitlines()
        if lines[0] != "numpy":
            pytest.skip("this numpy loads numpy.random, and so _hashlib, on import")
        assert lines[1:] == [job.split()[0] for job in jobs]

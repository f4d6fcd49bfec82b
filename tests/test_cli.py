import json
from pathlib import Path

import pytest

from qcoupling.cli import main


def run(*argv):
    return main(list(argv))


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

    def test_failed_math_check_is_1(self, tmp_path):
        # the printed fixture variant is deliberately not a stochastic coupling
        assert run("validate", "--model", "cycle3-printed", "--out", str(tmp_path)) == 1

    def test_valid_model_is_0(self, tmp_path):
        assert run("validate", "--model", "hypercube2", "--out", str(tmp_path)) == 0

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_mc_workers_below_one_is_invalid_input(self, tmp_path, capsys, workers):
        code = run("coalesce", "--model", "hypercube4", "--mc", "--seed", "1",
                   "--samples", "100", "--workers", workers, "--out", str(tmp_path))
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_mc_determinism_across_runs_and_workers(self, tmp_path):
        outs = []
        for i, workers in enumerate(("1", "4", "1")):
            out = tmp_path / f"run{i}"
            assert run(
                "coalesce", "--model", "hypercube8", "--mc",
                "--samples", "20000", "--seed", "7", "--workers", workers,
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


class TestDilate:
    def test_amplified_hypercube2(self, tmp_path):
        code = run(
            "dilate", "--model", "hypercube2", "--mode", "amplified",
            "--states", "3", "--out", str(tmp_path),
        )
        assert code == 0
        doc = load_summary(tmp_path, "dilate-hypercube2")
        assert doc["pass"] is True and doc["kappa"] == 4


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
        code = self._run_config(tmp_path, "quantize", model="hypercube2", order="diagonal")
        assert code == 2
        err = capsys.readouterr().err
        assert "'order'" in err and "basis_first" in err

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

    @pytest.mark.parametrize("flag,value", [("samples", 5), ("seed", 4), ("workers", 3)])
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

    def test_config_switch_takes_bool(self, tmp_path, capsys):
        code = self._run_config(tmp_path, "coalesce", model="hypercube3", mc="yes", seed=1)
        assert code == 2
        assert "true or false" in capsys.readouterr().err

    def test_config_non_flag_attribute_rejected(self, tmp_path):
        assert self._run_config(tmp_path, "validate", model="hypercube2", func="x") == 2

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vofie import analysis, cli, solver
from vofie.assembly import DIAG_NODES, gauss_nodes
from vofie.cli import PRESETS, build_run, main
from vofie.mesh import make_mesh
from vofie.order import VariableOrder, make_linear_order, make_sine_order
from vofie.solver import Problem, solve


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def zero_config(N=64, r=1.0):
    return {
        "problem": {"f": "zero", "u0": 1.0, "T": 1.0},
        "order": {"family": "sine", "a0": 0.6, "a1": 0.1},
        "mesh": {"N": N, "r": r},
    }


class TestConfigResolution:
    def test_presets_resolve(self):
        for name, preset in PRESETS.items():
            problem, mesh, conv = build_run(json.loads(json.dumps(preset)))
            assert mesh.N >= 48, name

    def test_runs_leave_the_presets_unchanged(self, tmp_path):
        before = json.dumps(PRESETS)
        for preset in PRESETS.values():
            build_run(preset)
        assert main(["solve", "--preset", "table2_col1", "--out", str(tmp_path)]) == 0
        assert json.dumps(PRESETS) == before

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        config = zero_config()
        config["mesh"]["flavor"] = "spicy"
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 1
        assert "flavor" in capsys.readouterr().err

    def test_integral_number_is_a_count(self):
        config = {**zero_config(N=16.0), "convergence": {"N_list": [24.0, 48], "ref_N": 96.0}}
        _, mesh, conv = build_run(config)
        assert (mesh.N, conv["N_list"], conv["ref_N"]) == (16, [24, 48], 96)
        assert all(type(n) is int for n in (mesh.N, *conv["N_list"], conv["ref_N"]))

    def test_invalid_grading_names_precondition(self, tmp_path, capsys):
        config = zero_config(r=0.5)
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 1
        assert "r must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value,named",
        [
            ("mesh", "N", 16.7, "mesh.N"),
            ("problem", "u0", float("nan"), "problem.u0"),
            ("mesh", "r", float("inf"), "mesh.r"),
            ("problem", "u0", True, "problem.u0"),
            ("order", "a0", "0.6", "order.a0"),
            pytest.param("problem", "u0", 10**400, "problem.u0", id="problem-u0-400-digits"),
            ("problem", "f", "cubic", "unknown builtin f: 'cubic'"),
            ("order", "family", "bessel", "unknown order family: 'bessel'"),
            ("convergence", "N_list", 48, "convergence.N_list"),
            # refused by run_convergence, before any solve
            ("convergence", "N_list", [48], "convergence.N_list"),
            ("convergence", "ref_N", 0, "convergence.ref_N"),
            ("problem", "T", 2.0, "sine family is defined on [0, 1]"),
            # a key of another family is refused, not dropped
            pytest.param(None, "problem", {"f": "sin4", "c": 7.0, "u0": 1.0}, "problem.c",
                         id="sin4-with-problem-c"),
            ("order", "value", 0.9, "order.value"),
            ("mesh", "N", 0, "mesh.N must be an integer >= 1, got 0"),
        ],
    )
    def test_bad_config_value_is_refused_by_key(self, tmp_path, capsys, monkeypatch, section, key, value, named):
        # counts must be integers and numbers finite; nothing is rounded or
        # coerced into a solve, and no solve runs
        solves = []
        for module in (cli, analysis):
            monkeypatch.setattr(module, "solve", lambda *args: solves.append(args))
        config = zero_config(N=16)
        (config.setdefault(section, {}) if section else config)[key] = value
        out = tmp_path / "out"
        command = "converge" if section == "convergence" else "solve"
        rc = main([command, "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists() and solves == []

    @pytest.mark.parametrize(
        "key,value",
        [("quad_nodes", 8.9), ("quad_nodes", 8), ("newton", {"tol": 1e-10})],
        ids=["quad_nodes-8.9", "quad_nodes-8", "newton-tol"],
    )
    def test_removed_setting_is_an_unknown_key(self, tmp_path, capsys, monkeypatch, key, value):
        # the per-cell rule and Newton's stopping test are fixed: a config that
        # sets them, even to the values a solve reads, is refused unsolved
        solves = []
        monkeypatch.setattr(cli, "solve", lambda *args: solves.append(args))
        config = {**zero_config(N=16), key: value}
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: unknown top-level keys: ['{key}']\n"
        assert not out.exists() and solves == []

    @pytest.mark.parametrize(
        "order,T,message",
        [
            ({"family": "sine", "a0": 1.5, "a1": 0.4}, 1.0, "alpha must lie in (0, 1], got alpha(t) = 1.5 at t = 0.0"),
            ({"family": "linear", "start": 0.9, "end": 0.0}, 1.0, "alpha must lie in (0, 1], got alpha(t) = 0.0 at t = 1.0"),
            ({"family": "constant", "value": 1.2}, 1.0, "alpha must lie in (0, 1], got alpha(t) = 1.2 at t = 0.0"),
            ({"family": "linear", "start": 0.9, "end": 0.4}, 0.0, "horizon T must be positive and finite, got 0.0"),
        ],
        ids=["sine-a0-1.5", "linear-end-0", "constant-1.2", "linear-T-0"],
    )
    def test_inadmissible_order_is_a_config_error(self, tmp_path, capsys, monkeypatch, order, T, message):
        # the order refuses itself when built, and the CLI reports its message
        solves = []
        monkeypatch.setattr(cli, "solve", lambda *args: solves.append(args))
        config = {"problem": {"f": "sin4", "u0": 1.0, "T": T}, "order": order, "mesh": {"N": 16}}
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not out.exists() and solves == []

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "config must be a JSON object"),
            ("{", "invalid JSON"),
            (json.dumps({**zero_config(), "mesh": {"r": 1.0}}), "mesh.N is required"),
        ],
        ids=["not-an-object", "invalid-json", "no-mesh-N"],
    )
    def test_malformed_config_is_refused(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

    def test_config_or_preset_is_required(self, tmp_path, capsys):
        rc = main(["solve", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "one of --config or --preset is required" in capsys.readouterr().err

    def test_readme_lists_every_config_key(self):
        # the README's config table and the schema name the same keys
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [line.split("|")[1] for line in readme.splitlines() if line.startswith("| `")]
        listed = [key for row in rows for key in re.findall(r"`([^`]+)`", row)]
        keys = [f"{section}.{key}" for section, kinds in cli.SCHEMA.items()
                if isinstance(kinds, dict) for key in kinds]
        keys += [key for key, kind in cli.SCHEMA.items() if not isinstance(kind, dict)]
        assert sorted(listed) == sorted(keys)

    def test_missing_config(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1

    def test_unknown_preset(self, tmp_path):
        rc = main(["solve", "--preset", "table9_col9", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize(
        "order,missing",
        [
            ({"family": "sine", "a0": 0.6}, "a1"),
            ({"family": "linear", "end": 0.4}, "start"),
            ({"family": "constant"}, "value"),
        ],
    )
    def test_missing_order_key_is_a_config_error(self, tmp_path, capsys, order, missing):
        config = zero_config()
        config["order"] = order
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(missing) in err


class TestUsage:
    def test_unknown_flag_is_a_config_error(self, tmp_path, capsys):
        # exit 2 is reserved for solver failures
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--preset", "fig1_casei", "--out", str(tmp_path), "--bogus"])
        assert exc.value.code == 1
        assert "--bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("converge", ["--format", "json"]),
            ("converge", ["--fast-path"]),
            ("coeffs", ["--format", "json"]),
            ("solve", ["--quad-nodes", "16"]),
            ("converge", ["--newton-tol", "1e-12"]),
        ],
    )
    def test_flag_the_subcommand_does_not_take(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "table2_col1", "--out", str(tmp_path), *flag])
        assert exc.value.code == 1
        assert flag[0] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--fast-path" in capsys.readouterr().out


class TestCmdSolve:
    def test_zero_rhs_preserves_u0(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_config(tmp_path, zero_config()), "--out", str(out)])
        assert rc == 0
        rows = (out / "solution.csv").read_text().splitlines()
        assert rows[0] == "t,U"
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.max(np.abs(values - 1.0)) <= 1e-7
        summary = json.loads((out / "summary.json").read_text())
        assert summary["N"] == 64

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, zero_config(N=32))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()

    def test_newton_failure_writes_summary(self, tmp_path, capsys, monkeypatch):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 16, "r": 1.0},
        }
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 2
        assert "node 1" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "NewtonDivergedError"
        assert summary["failed_node"] == 1
        assert summary["t_reached"] == 0.0
        assert summary["last_residual"] > 0.0
        # one iteration allowed: its residual is the whole history
        assert summary["residuals"] == [summary["last_residual"]]
        assert not (out / "solution.csv").exists()

    def test_fast_path_check_and_solve_each_sample_alpha_once(self, tmp_path, monkeypatch):
        # the flag's check and the solve each sample alpha once at the nodes
        # and the rule points; the gap rows add row N's diagonal rule
        N, rule = 64, gauss_nodes()
        line = make_linear_order(0.9, 0.4)
        points = []
        order = VariableOrder(lambda t: points.append(np.ravel(t)) or line.alpha(t),
                              line.dalpha)
        points.clear()

        def counted_run(config):
            problem, *rest = build_run(config)
            return (dataclasses.replace(problem, order=order), *rest)

        monkeypatch.setattr(cli, "build_run", counted_run)
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "linear", "start": 0.9, "end": 0.4},
            "mesh": {"N": N, "r": 1.0},
        }
        rc = main(["solve", "--config", write_config(tmp_path, config),
                   "--out", str(tmp_path / "out"), "--fast-path"])
        assert rc == 0
        mesh = make_mesh(1.0, N, 1.0)
        rule_points = mesh.nodes[: N - 1, None] + mesh.steps[: N - 1, None] * rule.nodes
        expected = np.concatenate((mesh.nodes, rule_points.ravel()))
        assert len(expected) == N + 1 + (N - 1) * rule.count
        sampled = np.concatenate(points)
        assert len(sampled) == 2 * len(expected) + len(DIAG_NODES)
        values, counts = np.unique(sampled, return_counts=True)
        k = np.searchsorted(values, expected)
        assert np.array_equal(values[k], expected) and np.all(counts[k] == 2)

    def test_linear_rhs_reads_lambda(self, tmp_path):
        config = zero_config(N=32)
        config["problem"].update({"f": "linear", "lambda": -2.0})
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        rows = (out / "solution.csv").read_text().splitlines()[1:]
        problem = Problem(f=lambda u, t: -2.0 * u, df_du=lambda u, t: -2.0 + 0.0 * u,
                          u0=1.0, T=1.0, order=make_sine_order(0.6, 0.1))
        expected = solve(problem, make_mesh(1.0, 32, 1.0))
        np.testing.assert_array_equal([float(r.split(",")[1]) for r in rows], expected.values)

    @pytest.mark.parametrize(
        "order",
        [{"family": "linear", "start": 0.9, "end": 0.4}, {"family": "constant", "value": 0.5}],
    )
    def test_problem_horizon_reaches_the_order(self, tmp_path, order):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 2.0},
            "order": order,
            "mesh": {"N": 16, "r": 1.0},
        }
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        last = (out / "solution.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 2.0
        assert json.loads((out / "summary.json").read_text())["T"] == 2.0

    def test_out_naming_a_file_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["solve", "--config", write_config(tmp_path, zero_config(N=8)), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("I/O error:")

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "solve", "--config", write_config(tmp_path, zero_config(N=16)),
            "--out", str(out), "--format", "json",
        ])
        assert rc == 0
        payload = json.loads((out / "solution.json").read_text())
        assert len(payload["t"]) == 17


class TestCmdConverge:
    def test_small_graded_study(self, tmp_path, capsys):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 48, "case": "II"},
            "convergence": {"N_list": [24, 48], "ref_N": 480},
        }
        out = tmp_path / "out"
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 0
        assert "rate" in capsys.readouterr().out
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N,error,rate"
        rate = float(lines[2].split(",")[2])
        assert rate == pytest.approx(2.0, abs=0.3)

    def test_case_and_r_together_is_a_config_error(self, tmp_path, capsys):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 48, "case": "II", "r": 1.0 / 0.6},
            "convergence": {"N_list": [24, 48], "ref_N": 240},
        }
        out = tmp_path / "out"
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        assert "case or r" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    def test_configured_grading_of_case_ii_runs(self, tmp_path, capsys):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 48, "r": 1.0 / 0.6},
            "convergence": {"N_list": [24, 48], "ref_N": 240},
        }
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 0
        assert "   r = 1.66667, reference N = 240" in capsys.readouterr().out

    def test_grading_between_the_cases_runs(self, tmp_path, capsys):
        # mesh.r is the study's grading as given, whichever case it is near
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"r": 1.25},
            "convergence": {"N_list": [24, 48], "ref_N": 240},
        }
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0].split("   ", 1)[1]
        assert header == "r = 1.25, reference N = 240, predicted rate = 1.5"

    def test_grading_below_one_is_refused_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(analysis, "solve", lambda *args: solves.append(args))
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"r": 0.5},
            "convergence": {"N_list": [24, 48], "ref_N": 240},
        }
        out = tmp_path / "out"
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists() and solves == []

    @pytest.mark.parametrize("command", ["solve", "converge"])
    @pytest.mark.parametrize("mesh,message", [
        ({"r": 0.5}, "config error: mesh.r must be >= 1, got 0.5"),
        ({"case": "IV"}, "config error: mesh.case: case must be I, II, III"),
    ], ids=["r", "case"])
    def test_bad_grading_names_its_key(self, tmp_path, capsys, monkeypatch, command, mesh, message):
        # build_run checks the grading for every command, with or without
        # mesh.N, and names the key it came from
        solves = []
        for module in (cli, analysis):
            monkeypatch.setattr(module, "solve", lambda *args: solves.append(args))
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {**mesh, "N": 48} if command == "solve" else mesh,
            "convergence": {"N_list": [24, 48], "ref_N": 240},
        }
        out = tmp_path / "out"
        rc = main([command, "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists() and solves == []

    def test_non_nesting_n_list(self, tmp_path, capsys):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 50, "r": 1.0},
            "convergence": {"N_list": [40, 50], "ref_N": 120},
        }
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 1
        assert "convergence.N_list entry N = 50 does not divide ref_N = 120" in capsys.readouterr().err

    def test_zero_in_n_list_is_a_config_error(self, tmp_path, capsys):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 48, "case": "II"},
            "convergence": {"N_list": [0, 48], "ref_N": 96},
        }
        out = tmp_path / "out"
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "N = 0" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "convergence,message",
        [
            ({"N_list": [24, 24], "ref_N": 96}, "convergence.N_list entry N = 24 is repeated"),
            ({"N_list": [24, 48], "ref_N": 48}, "convergence.N_list entry N = 48 equals ref_N"),
        ],
        ids=["repeated", "equals-ref_N"],
    )
    def test_n_list_without_a_rate_is_a_config_error(self, tmp_path, capsys, convergence, message):
        # a repeated N wrote a NaN rate and exited 0; N = ref_N ran every
        # solve before its zero error was refused
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"case": "II"},
            "convergence": convergence,
        }
        out = tmp_path / "out"
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mesh", [{"case": "II"}, {"r": 1.0 / 0.6}], ids=["case", "r"])
    def test_mesh_n_is_not_required(self, tmp_path, mesh):
        # converge takes its grading from mesh.case or mesh.r and never reads N
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": mesh,
            "convergence": {"N_list": [12, 24], "ref_N": 48},
        }
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["N", "12", "24"]


class TestCmdCoeffs:
    def test_mesh_n_is_required(self, tmp_path, capsys):
        config = {**zero_config(), "mesh": {"r": 1.0}}
        out = tmp_path / "out"
        rc = main(["coeffs", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 1
        assert "mesh.N is required" in capsys.readouterr().err
        assert not out.exists()

    def test_linear_fast_path_discrepancy(self, tmp_path, capsys):
        config = {
            "problem": {"f": "zero", "u0": 1.0, "T": 1.0},
            "order": {"family": "linear", "start": 0.9, "end": 0.4},
            "mesh": {"N": 16, "r": 1.0},
        }
        out = tmp_path / "out"
        rc = main([
            "coeffs", "--config", write_config(tmp_path, config),
            "--out", str(out), "--fast-path",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        disc = float(text.split("max |dense - fast| =")[1].split()[0])
        assert disc <= 1e-12
        assert sorted(p.name for p in out.iterdir()) == ["weights.csv"]

    def test_constant_order_zero_dump(self, tmp_path):
        config = {
            "problem": {"f": "zero", "u0": 1.0, "T": 1.0},
            "order": {"family": "constant", "value": 0.5},
            "mesh": {"N": 8, "r": 1.0},
        }
        out = tmp_path / "out"
        rc = main(["coeffs", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 0
        rows = (out / "weights.csv").read_text().splitlines()[1:]
        h_values = np.array([float(r.split(",")[2]) for r in rows])
        np.testing.assert_allclose(h_values, 0.0, atol=1e-15)

    @pytest.mark.parametrize("command", ["coeffs", "solve"])
    def test_fast_path_on_graded_mesh_fails(self, tmp_path, capsys, command):
        config = {
            "problem": {"f": "zero", "u0": 1.0, "T": 1.0},
            "order": {"family": "linear", "start": 0.9, "end": 0.4},
            "mesh": {"N": 8, "r": 2.0},
        }
        rc = main([
            command, "--config", write_config(tmp_path, config),
            "--out", str(tmp_path), "--fast-path",
        ])
        assert rc == 1
        assert "uniform" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["coeffs", "solve"])
    def test_fast_path_on_sine_order_names_the_departure(self, tmp_path, capsys, command):
        config = {
            "problem": {"f": "zero", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 8, "r": 1.0},
        }
        out = tmp_path / "out"
        rc = main([
            command, "--config", write_config(tmp_path, config),
            "--out", str(out), "--fast-path",
        ])
        assert rc == 1
        assert "departs from its chord by" in capsys.readouterr().err
        # refused before anything is written: no weights.csv, no solution
        assert not out.exists()

import json

import numpy as np
import pytest

from vofie.cli import PRESETS, build_run, main


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def zero_config(N=64, r=1.0):
    return {
        "problem": {"f": "zero", "u0": 1.0, "T": 1.0},
        "order": {"family": "sine", "a0": 0.6, "a1": 0.1},
        "mesh": {"N": N, "r": r},
        "quad_nodes": 40,
    }


class TestConfigResolution:
    def test_presets_resolve(self):
        for name, preset in PRESETS.items():
            problem, mesh, rule, cfg, conv = build_run(json.loads(json.dumps(preset)))
            assert mesh.N >= 48, name
            assert rule.count == 8  # the library rule, gauss_nodes()
            assert cfg.tol == 1e-10

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        config = zero_config()
        config["mesh"]["flavor"] = "spicy"
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 1
        assert "flavor" in capsys.readouterr().err

    def test_invalid_grading_names_precondition(self, tmp_path, capsys):
        config = zero_config(r=0.5)
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 1
        assert "r must be >= 1" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1

    def test_unknown_preset(self, tmp_path):
        rc = main(["solve", "--preset", "table9_col9", "--out", str(tmp_path)])
        assert rc == 1


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

    def test_newton_failure_writes_summary(self, tmp_path, capsys):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 16, "r": 1.0},
            "newton": {"max_iter": 1},
        }
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 2
        assert "node 1" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "NewtonDivergedError"
        assert summary["failed_node"] == 1
        assert summary["t_reached"] == 0.0
        assert summary["last_residual"] > 0.0
        assert not (out / "solution.csv").exists()

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

    def test_non_nesting_n_list(self, tmp_path):
        config = {
            "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
            "order": {"family": "sine", "a0": 0.6, "a1": 0.4},
            "mesh": {"N": 50, "r": 1.0},
            "convergence": {"N_list": [50], "ref_N": 120},
        }
        rc = main(["converge", "--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert rc == 1


class TestCmdCoeffs:
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
        assert (out / "generating_sequence.csv").exists()

    def test_constant_order_zero_dump(self, tmp_path):
        config = {
            "problem": {"f": "zero", "u0": 1.0, "T": 1.0},
            "order": {"family": "constant", "value": 0.5},
            "mesh": {"N": 8, "r": 1.0},
            "quad_nodes": 20,
        }
        out = tmp_path / "out"
        rc = main(["coeffs", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert rc == 0
        rows = (out / "weights.csv").read_text().splitlines()[1:]
        h_values = np.array([float(r.split(",")[2]) for r in rows])
        np.testing.assert_allclose(h_values, 0.0, atol=1e-15)

    def test_fast_path_on_graded_mesh_fails(self, tmp_path, capsys):
        config = {
            "problem": {"f": "zero", "u0": 1.0, "T": 1.0},
            "order": {"family": "linear", "start": 0.9, "end": 0.4},
            "mesh": {"N": 8, "r": 2.0},
        }
        rc = main([
            "coeffs", "--config", write_config(tmp_path, config),
            "--out", str(tmp_path), "--fast-path",
        ])
        assert rc == 1
        assert "uniform" in capsys.readouterr().err

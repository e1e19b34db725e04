import json
import warnings

import pytest

from dephasim.cli import main
from dephasim.presets import preset_config
from dephasim.sweep import CSV_HEADER


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = preset_config("fig2e")
    cfg["time"]["steps"] = 9
    cfg["cutoff"] = 8
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert "wrote 9 rows" in capsys.readouterr().out

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_schema_violation_is_validation_error(self, tmp_path, capsys):
        cfg = preset_config("fig2e")
        cfg["time"]["steps"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "time.steps" in capsys.readouterr().err

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        env = {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        (tmp_path / "env.json").write_text(json.dumps(env))
        cfg = preset_config("fig2e")
        cfg["time"]["steps"] = 5
        cfg["cutoff"] = 2
        cfg["initial_env"] = {"matrix_file": "env.json"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0


    def test_overflowing_non_hermitian_matrix_is_validation_error(self, tmp_path, capsys):
        # the Hermiticity residual inf / inf is NaN; it used to pass, and the sweep
        # ran on the lower triangle, diag(1, 0), and exited 0
        env = {"matrix": [[[1.0, 0.0], [1e200, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        (tmp_path / "env.json").write_text(json.dumps(env))
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["cutoff"] = 2
        cfg["initial_env"] = {"matrix_file": "env.json"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "initial_env.matrix_file" in err
        assert "not Hermitian (residual nan)" in err
        assert not out.exists()

    def test_t_max_a_hair_past_the_schedule_is_validation_error(self, tmp_path, capsys):
        # the grid allowed 1e-9 past the end but the time lookup only 6e-12: exit 2
        path = write_config(tmp_path, time={"t_max": 6.0000000005, "steps": 9})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "time.t_max" in capsys.readouterr().err

    @pytest.mark.parametrize("outputs", [{}, {"negativity": True}])
    def test_non_finite_evolution_is_numerical_failure(self, tmp_path, capsys, outputs):
        # phases of 1e200 x 1e300 overflow; this used to write NaN rows and exit 0.
        # Negativity takes the propagator path, the default outputs the factor path.
        big = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        schedule = {
            "system_dim": 2,
            "env_dim": 2,
            "segments": [{"duration": 1e300, "generators": [big, zero]}],
        }
        env = {"matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]}
        (tmp_path / "s.json").write_text(json.dumps(schedule))
        (tmp_path / "env.json").write_text(json.dumps(env))
        cfg = {
            "model": {"schedule_file": "s.json"},
            "initial_env": {"matrix_file": "env.json"},
            "time": {"t_max": 1e300, "steps": 3},
            "cutoff": 2,
            "outputs": outputs,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o.csv"
        with pytest.warns(RuntimeWarning):
            code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            ('"amplitudes": [[NaN, 0], [0.7071067811865476, 0]]', "amplitudes[0]"),
            ('"amplitudes": [[0.6, 0], [Infinity, 0]]', "amplitudes[1]"),
        ],
    )
    def test_non_finite_amplitudes_rejected(self, tmp_path, capsys, edit, field):
        # Python's json reads NaN/Infinity; a NaN amplitude used to pass the norm
        # check and write nan in every entanglement cell with exit 0
        text = write_config(tmp_path).read_text()
        path = tmp_path / "nan.json"
        path.write_text(text[:-1] + ", " + edit + "}")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert field in capsys.readouterr().err

    def test_non_finite_alpha_rejected(self, tmp_path, capsys):
        # used to exit 2 as a numerical failure
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["model"]["qubit_boson"]["segments"][0]["alpha"] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "model.qubit_boson.segments[0].alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, field", [("model", "model.schedule_file"), ("initial_env", "initial_env.matrix_file")]
    )
    def test_non_utf8_document_is_validation_error(self, tmp_path, capsys, key, field):
        (tmp_path / "doc.json").write_bytes(b'{"matrix": "\xff"}')
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg[key] = {field.split(".")[1]: "doc.json"}
        if key == "initial_env":
            cfg["cutoff"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert field in err
        assert "UTF-8" in err

    def test_non_hermitian_schedule_generator_is_validation_error(self, tmp_path, capsys):
        # used to exit 2: NotHermitianGenerator was not mapped to the document's field
        raising = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        schedule = {
            "system_dim": 2,
            "env_dim": 2,
            "segments": [{"duration": 1.0, "generators": [raising, zero]}],
        }
        (tmp_path / "s.json").write_text(json.dumps(schedule))
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["model"] = {"schedule_file": "s.json"}
        cfg["cutoff"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "model.schedule_file" in err
        assert "anti-Hermitian" in err

    def test_amplitude_count_not_matching_schedule_file_is_validation_error(
        self, tmp_path, capsys
    ):
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        schedule = {
            "system_dim": 3,
            "env_dim": 2,
            "segments": [{"duration": 1.0, "generators": [zero, zero, zero]}],
        }
        (tmp_path / "s.json").write_text(json.dumps(schedule))
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["model"] = {"schedule_file": "s.json"}
        cfg["cutoff"] = 2
        cfg["amplitudes"] = [[0.6, 0.0], [0.8, 0.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "amplitudes: 2 amplitudes for a system of dimension 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, expected",
        [
            ({"alpha": 1e300, "cutoff": 2}, 0),  # runs, with the reach warning
            ({"alpha": 1e300, "cutoff": "auto"}, 2),  # no rung holds the reach
            ({"coherent": 1e300, "cutoff": 4}, 2),  # the amplitudes are not finite
        ],
    )
    def test_huge_finite_amplitude_does_not_raise(self, tmp_path, edit, expected):
        # squaring 1e300 with ** raised OverflowError out of main
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["cutoff"] = edit["cutoff"]
        if "alpha" in edit:
            cfg["model"]["qubit_boson"]["segments"][0]["alpha"] = [edit["alpha"], 0.0]
        else:
            cfg["initial_env"] = {"coherent": {"re": edit["coherent"], "im": 0.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == expected

    def test_eigh_failure_is_numerical_failure(self, tmp_path, capsys):
        # (g + g^dag) / 2 overflows to inf at alpha 1e308 and eigh does not
        # converge: a numerical failure with exit 2, not a traceback
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["model"]["qubit_boson"]["segments"][0]["alpha"] = [1e308, 0.0]
        cfg["cutoff"] = 4
        cfg["initial_env"] = {"thermal": {"theta": 0.5}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err


class TestPresetCommand:
    def test_preset_runs(self, tmp_path):
        out = tmp_path / "fig2e.csv"
        cfg = preset_config("fig2e")  # full preset: 601 grid points
        assert main(["preset", "--name", "fig2e", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + cfg["time"]["steps"]

    def test_unknown_preset(self, tmp_path, capsys):
        code = main(["preset", "--name", "fig9z", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "fig9z" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["preset", "--name", "fig2f", "--out", str(a)]) == 0
        assert main(["preset", "--name", "fig2f", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConvergeCommand:
    def test_converge_prints_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["converge", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "8 vs 16" in out
        assert "max |dE|" in out

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, cutoff=512)
        code = main(["converge", "--config", str(cfg_path)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])

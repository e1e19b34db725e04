import json
import linecache
import warnings
from pathlib import Path

import pytest

import dephasim.sweep
from dephasim.cli import main
from dephasim.linalg import HERM_TOL
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

    @pytest.mark.parametrize(
        "d0, d1, message",
        [
            ([1.1, 0.0], [-0.1, 0.0], "matrix has eigenvalue -1.000e-01 below"),
            ([float("nan"), 0.0], [1.0, 0.0], "must be finite, got nan"),
            ([1.0, 2 * HERM_TOL], [0.0, 0.0], "environment state is not Hermitian"),
        ],
    )
    def test_diagonal_matrix_is_still_checked(self, tmp_path, capsys, d0, d1, message):
        # a diagonal R(0) is read off its diagonal, with no eigensolve
        env = {"matrix": [[d0, [0.0, 0.0]], [[0.0, 0.0], d1]]}
        (tmp_path / "env.json").write_text(json.dumps(env))
        path = write_config(tmp_path, cutoff=2, initial_env={"matrix_file": "env.json"})
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_defect_building_a_matrix_file_state_propagates(self, tmp_path, monkeypatch):
        # only the package's own errors are named for the matrix file (exit 1); a
        # TypeError out of env_from_matrix is a defect, not a bad input
        env = {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        (tmp_path / "env.json").write_text(json.dumps(env))
        path = write_config(tmp_path, cutoff=2, initial_env={"matrix_file": "env.json"})

        def broken(matrix):
            raise TypeError("a defect")

        monkeypatch.setattr(dephasim.sweep, "env_from_matrix", broken)
        with pytest.raises(TypeError, match="^a defect$"):
            main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (
                "amplitudes",
                [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]],
                "amplitudes: 3 amplitudes for a system of dimension 2",
            ),
            ("initial_env", {"fock": {"n": 8}}, "initial_env.fock.n: level 8 outside"),
            ("tolerances", {"cutoff_tail": 1e-12}, "config: unknown keys: ['tolerances']"),
        ],
    )
    def test_inputs_the_run_cannot_use_are_validation_errors(
        self, tmp_path, capsys, key, value, message
    ):
        # 3 amplitudes for the qubit and a level at the cutoff 8 pass the config alone
        path = write_config(tmp_path, **{key: value})
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_t_max_a_hair_past_the_schedule_is_validation_error(self, tmp_path, capsys):
        # the grid allowed 1e-9 past the end but the time lookup only 6e-12: exit 2
        path = write_config(tmp_path, time={"t_max": 6.0000000005, "steps": 9})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "time.t_max" in capsys.readouterr().err

    @pytest.mark.parametrize("outputs", [{}, {"negativity": True}])
    def test_non_finite_evolution_is_numerical_failure(self, tmp_path, capsys, outputs):
        # phases of 1e200 x 1e300 overflow; this used to write NaN rows and exit 0,
        # and later to emit numpy's overflow RuntimeWarning before the failure.
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
            ({"coherent": 1e300, "cutoff": 4}, 0),  # R(0) is |3><3|, with the reach warning
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == expected
        # an explicit cutoff warns about the reach once; "auto" finds no rung and
        # warns nothing; any other warning, a RuntimeWarning above all, is a regression
        reach = 0 if edit["cutoff"] == "auto" else 1
        assert [w.category for w in caught] == [UserWarning] * reach
        assert all(str(w.message).startswith("drive displacement reach") for w in caught)

    @pytest.mark.parametrize("re, cutoff", [(30.0, 16), (40.0, 64), (1e200, 16)])
    def test_far_coherent_state_runs_without_runtime_warning(self, tmp_path, re, cutoff):
        # e^{-|zeta|^2/2} times the amplitudes used to underflow before the
        # renormalization: divide by zero or invalid value, then NaN in R(0), exit 2
        env = {"coherent": {"re": re, "im": 0.0}}
        path = write_config(tmp_path, cutoff=cutoff, initial_env=env)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(UserWarning, match="exceeds cutoff/4"):
                code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        assert "nan" not in out.read_text()

    def test_eigh_failure_is_numerical_failure(self, tmp_path, capsys):
        # (g + g^dag) / 2 overflows to inf at alpha 1e308 and eigh does not
        # converge: a numerical failure with exit 2, not a traceback
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["model"]["qubit_boson"]["segments"][0]["alpha"] = [1e308, 0.0]
        cfg["cutoff"] = 4
        cfg["initial_env"] = {"thermal": {"theta": 0.5}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        # the reach warning of cutoff 4, and no RuntimeWarning before the failure
        assert [w.category for w in caught] == [UserWarning]
        assert str(caught[0].message).startswith("drive displacement reach")

    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_auto_cutoff_past_the_float_range_is_a_config_error(self, tmp_path, capsys, command):
        # beta 1e-10 and alpha 1e308: the reach 2 |alpha| / |beta| overflows to inf, and
        # no cutoff holds the drive. It reached suggest_cutoff, whose argument error
        # printed "numerical failure: max_displacement must be finite" with exit 2
        path = write_config(tmp_path, cutoff="auto")
        cfg = json.loads(path.read_text())
        cfg["model"]["qubit_boson"]["beta"] = 1e-10
        cfg["model"]["qubit_boson"]["segments"][0]["alpha"] = [1e308, 0.0]
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "o.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: model.qubit_boson: ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command, call",
        [("run", "run_sweep("), ("converge", "convergence_report(")],
        ids=["run", "converge"],
    )
    def test_reach_warning_points_at_the_cli(self, tmp_path, command, call):
        # the warning names the line of dephasim/cli.py that calls the sweep,
        # found by call depth, not the caller of main
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["model"]["qubit_boson"]["segments"][0]["alpha"] = [30.0, 0.0]
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "o.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        (warning,) = caught
        assert warning.category is UserWarning
        assert Path(warning.filename).parts[-2:] == ("dephasim", "cli.py")
        assert call in linecache.getline(warning.filename, warning.lineno)

    def test_overflowing_generator_is_named(self, tmp_path, capsys):
        # beta n is inf for n >= 2: this printed two RuntimeWarnings and blamed
        # an anti-Hermitian residual of nan
        cfg = preset_config("fig2a")
        cfg["model"]["qubit_boson"]["beta"] = 1e308
        cfg["cutoff"] = 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert (code, caught) == (2, [])
        assert capsys.readouterr().err == (
            "numerical failure: generator 0 of segment 0 has 2 non-finite entries,"
            " the first at (2, 2)\n"
        )

    @pytest.mark.parametrize("model", ["qubit_boson", "schedule_file"])
    def test_durations_summing_past_the_float_range_are_validation_errors(
        self, tmp_path, capsys, model
    ):
        # a qubit_boson run printed numpy's "overflow encountered in accumulate"
        # and exited 0; under -W error::RuntimeWarning it died with a traceback
        cfg = json.loads(write_config(tmp_path).read_text())
        if model == "qubit_boson":
            cfg["model"]["qubit_boson"]["segments"] = [{"duration": 1e308, "alpha": [0, 0]}] * 2
        else:
            zero = [[[0.0, 0.0]] * 8] * 8
            segment = {"duration": 1e308, "generators": [zero, zero]}
            schedule = {"system_dim": 2, "env_dim": 8, "segments": [segment] * 2}
            (tmp_path / "s.json").write_text(json.dumps(schedule))
            cfg["model"] = {"schedule_file": "s.json"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(out)])
        assert (code, caught) == (1, [])
        assert capsys.readouterr().err == (
            "error: model: segment durations sum to inf, past the float range\n"
        )
        assert not out.exists()

    def test_integer_past_the_float_range_is_validation_error(self, tmp_path, capsys):
        # math.isfinite raised OverflowError out of main
        text = json.dumps(preset_config("fig2a")).replace('"beta": 1.0', '"beta": 1' + "0" * 400)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: model.qubit_boson.beta: must be finite, got 1000"
        )

    @pytest.mark.parametrize("field", ["time.steps", "cutoff"])
    def test_integer_field_past_the_float_range_is_validation_error(self, tmp_path, capsys, field):
        # np.linspace raised ValueError, and the reach check OverflowError, out of main
        cfg = json.loads(write_config(tmp_path).read_text())
        *parents, key = field.split(".")
        target = cfg[parents[0]] if parents else cfg
        target[key] = int("1" + "0" * 400)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: must be finite, got 1000")

    @pytest.mark.parametrize(
        "steps", [10**300, 2**63, 10**15, 10**18], ids=["10**300", "2**63", "10**15", "10**18"]
    )
    def test_grid_past_numpy_size_limit_is_validation_error(self, tmp_path, capsys, steps):
        # finite as a float, so "must be finite" passes it; np.linspace raised
        # ValueError (10**300), IndexError (2**63) or, for a grid the allocator
        # refuses outright (7.11 PiB at 10**15), MemoryError out of main
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["time"]["steps"] = steps
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: time.steps: too many points for one array\n"

    @pytest.mark.parametrize("document", ["config", "schedule"])
    def test_nesting_past_the_recursion_limit_is_validation_error(
        self, tmp_path, capsys, document
    ):
        # json.loads raised RecursionError out of main
        deep = "[" * 100000
        path = tmp_path / "cfg.json"
        if document == "config":
            path.write_text(deep)
        else:
            (tmp_path / "s.json").write_text(deep)
            cfg = json.loads(write_config(tmp_path).read_text())
            path.write_text(json.dumps({**cfg, "model": {"schedule_file": "s.json"}}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert ("model.schedule_file" in err) is (document == "schedule")

    def test_overflowing_phase_on_rows_r0_never_reaches_fails_at_the_origin(
        self, tmp_path, capsys
    ):
        # beta n overflows w_1 - w_0 only on levels far above the thermal R(0),
        # rows the stacks do not carry; the run still fails at its first point
        cfg = preset_config("fig2e")
        assert cfg["model"]["qubit_boson"]["segments"][0]["alpha"] == [0.0, 0.0]
        cfg["model"]["qubit_boson"]["beta"] = 1e306
        cfg["initial_env"] = {"thermal": {"theta": 0.5}}
        cfg["cutoff"] = 128
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical failure: evolved state is not finite at t = 0.0\n"
        )

    @pytest.mark.parametrize("document", [False, True])
    def test_integer_past_the_digit_limit_is_validation_error(self, tmp_path, capsys, document):
        # json.loads raised a plain ValueError out of main
        huge = "1" + "0" * 5000
        if document:
            (tmp_path / "env.json").write_text('{"matrix": [[[' + huge + ", 0]]]}")
            text = json.dumps({**preset_config("fig2e"), "initial_env": {"matrix_file": "env.json"}})
        else:
            text = json.dumps(preset_config("fig2e")).replace('"beta": 1.0', '"beta": ' + huge)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Exceeds the limit (4300 digits)" in err
        assert ("initial_env.matrix_file" in err) is document


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

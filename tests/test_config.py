import json
import math

import numpy as np
import pytest

from dephasim.config import (
    AUTO_CUTOFF,
    CoherentEnv,
    QubitBosonModel,
    ThermalEnv,
    config_from_dict,
    parse_config,
)
from dephasim.errors import ParseError, ValidationError
from dephasim.presets import PRESET_NAMES, preset_config

FIG2D_JSON = """
{
  "model": {"qubit_boson": {"beta": 1.0, "segments": [
    {"duration": 2.0, "alpha": [0.0, 0.0]},
    {"duration": 2.0, "alpha": [0.5, 0.5]},
    {"duration": 2.0, "alpha": [0.0, 0.0]}
  ]}},
  "initial_env": {"thermal": {"theta": 2.0}},
  "time": {"t_max": 6.0, "steps": 601}
}
"""


class TestParseConfig:
    def test_minimal_stepped_config(self):
        cfg = parse_config(FIG2D_JSON.encode())
        assert isinstance(cfg.model, QubitBosonModel)
        assert cfg.initial_env == ThermalEnv(theta=2.0)
        assert [s.duration for s in cfg.model.segments] == [2.0, 2.0, 2.0]
        assert [s.alpha for s in cfg.model.segments] == [0.0, 0.5 + 0.5j, 0.0]
        assert cfg.time.steps == 601

    def test_defaults_filled(self):
        cfg = parse_config(FIG2D_JSON.encode())
        assert cfg.cutoff == AUTO_CUTOFF
        assert all(s.gamma == 0.0 for s in cfg.model.segments)
        r = 1 / math.sqrt(2)
        assert cfg.amplitudes == (complex(r), complex(r))
        assert cfg.outputs.negativity is False
        assert cfg.outputs.entanglement is True

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_config(b'{"model": }')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_invalid_utf8(self):
        with pytest.raises(ParseError):
            parse_config(b"\xff\xfe{}")

    def test_steps_too_small(self):
        obj = json.loads(FIG2D_JSON)
        obj["time"]["steps"] = 1
        with pytest.raises(ValidationError) as err:
            config_from_dict(obj)
        assert err.value.field == "time.steps"

    def test_two_env_variants_rejected(self):
        obj = json.loads(FIG2D_JSON)
        obj["initial_env"] = {"thermal": {"theta": 1.0}, "coherent": {"re": 0.5}}
        with pytest.raises(ValidationError) as err:
            config_from_dict(obj)
        assert err.value.field == "initial_env"

    def test_unknown_keys_rejected(self):
        obj = json.loads(FIG2D_JSON)
        obj["extra"] = 1
        with pytest.raises(ValidationError) as err:
            config_from_dict(obj)
        assert "extra" in str(err.value)

    def test_unknown_nested_keys_rejected(self):
        obj = json.loads(FIG2D_JSON)
        obj["model"]["qubit_boson"]["segments"][0]["color"] = "red"
        with pytest.raises(ValidationError):
            config_from_dict(obj)

    def test_verdict_tolerance_rejected(self):
        # not a config key: separability_verdict takes its own tol argument
        obj = json.loads(FIG2D_JSON)
        obj["tolerances"] = {"verdict": 1e-8}
        with pytest.raises(ValidationError) as err:
            config_from_dict(obj)
        assert "verdict" in str(err.value)

    def test_negative_duration_rejected(self):
        obj = json.loads(FIG2D_JSON)
        obj["model"]["qubit_boson"]["segments"][0]["duration"] = -1.0
        with pytest.raises(ValidationError) as err:
            config_from_dict(obj)
        assert "duration" in err.value.field

    def test_amplitudes_must_be_normalized(self):
        obj = json.loads(FIG2D_JSON)
        obj["amplitudes"] = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(ValidationError) as err:
            config_from_dict(obj)
        assert err.value.field == "amplitudes"

    def test_explicit_amplitudes_accepted(self):
        obj = json.loads(FIG2D_JSON)
        obj["amplitudes"] = [[0.6, 0.0], [0.0, 0.8]]
        cfg = config_from_dict(obj)
        assert cfg.amplitudes == (0.6 + 0j, 0.8j)

    def test_bad_cutoff(self):
        obj = json.loads(FIG2D_JSON)
        obj["cutoff"] = "tiny"
        with pytest.raises(ValidationError):
            config_from_dict(obj)
        obj["cutoff"] = 1
        with pytest.raises(ValidationError):
            config_from_dict(obj)

    def test_boolean_not_number(self):
        obj = json.loads(FIG2D_JSON)
        obj["time"]["t_max"] = True
        with pytest.raises(ValidationError):
            config_from_dict(obj)

    def test_coherent_env(self):
        obj = json.loads(FIG2D_JSON)
        obj["initial_env"] = {"coherent": {"re": 0.25, "im": -0.1}}
        cfg = config_from_dict(obj)
        assert cfg.initial_env == CoherentEnv(zeta=0.25 - 0.1j)

    def test_outputs_flags(self):
        obj = json.loads(FIG2D_JSON)
        obj["outputs"] = {"negativity": True, "type2": False}
        cfg = config_from_dict(obj)
        assert cfg.outputs.negativity is True
        assert cfg.outputs.type2 is False
        assert cfg.outputs.entanglement is True


class TestPresets:
    def test_all_presets_parse(self):
        assert PRESET_NAMES == tuple(sorted(PRESET_NAMES))
        for name in PRESET_NAMES:
            cfg = config_from_dict(preset_config(name))
            assert cfg.cutoff == 64

    def test_expected_names_exist(self):
        expected = {"fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f", "fig3a", "fig3b", "fig3c"}
        assert set(PRESET_NAMES) == expected

    def test_stepped_thermal_temperatures(self):
        temps = {}
        for name in ("fig2a", "fig2b", "fig2c", "fig2d"):
            cfg = config_from_dict(preset_config(name))
            temps[name] = cfg.initial_env.theta
            alphas = [s.alpha for s in cfg.model.segments]
            assert alphas == [0.0, 0.5 + 0.5j, 0.0]
            durations = [s.duration for s in cfg.model.segments]
            assert durations == [2.0, 2.0, 2.0]  # switches at t = 2 and t = 4
        assert temps == {"fig2a": 0.0, "fig2b": 0.5, "fig2c": 1.0, "fig2d": 2.0}

    def test_constant_variants(self):
        off = config_from_dict(preset_config("fig2e"))
        assert [s.alpha for s in off.model.segments] == [0.0]
        assert off.initial_env.theta == 2.0
        on = config_from_dict(preset_config("fig2f"))
        assert [s.alpha for s in on.model.segments] == [0.5 + 0.5j]
        assert on.initial_env.theta == 2.0
        assert on.time.t_start == 2.0

    def test_coherent_amplitudes(self):
        expected = {
            "fig3a": 0.5 * np.exp(1j * np.pi / 4),
            "fig3b": 0.25 * np.exp(1j * np.pi / 4),
            "fig3c": 0.5 + 0.0j,
        }
        for name, zeta in expected.items():
            cfg = config_from_dict(preset_config(name))
            assert abs(cfg.initial_env.zeta - zeta) <= 1e-15

    def test_preset_copies_are_independent(self):
        a = preset_config("fig2d")
        a["time"]["steps"] = 3
        assert preset_config("fig2d")["time"]["steps"] == 601

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_config("fig9z")

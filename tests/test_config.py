import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim import config
from dephasim.config import (
    AUTO_CUTOFF,
    CoherentEnv,
    QubitBosonModel,
    ThermalEnv,
    config_from_dict,
    load_matrix_file,
    load_schedule_file,
    parse_complex_matrix,
    parse_config,
)
from dephasim.errors import NotHermitianGenerator, ParseError, ValidationError
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
        assert cfg.amplitudes is None  # the run sets the equal superposition
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
        # not a config key: a verdict thresholds the type1_max and type2_max columns
        # itself, and no tolerance is configurable, so the whole section is unknown
        obj = json.loads(FIG2D_JSON)
        obj["tolerances"] = {"verdict": 1e-8}
        with pytest.raises(ValidationError) as err:
            config_from_dict(obj)
        assert (err.value.field, err.value.reason) == ("config", "unknown keys: ['tolerances']")

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

    @pytest.mark.parametrize(
        "amplitudes",
        [
            # |c|^2 summed left to right is 1 + 0.99999998e-10, by numpy 1 + 1.00000008e-10:
            # a config check of its own let through what evaluate rejected
            [[0.24253562504845974, 0.0]] * 17,
            [[1e200, 0.0], [0.0, 0.0]],  # squaring 1e200 with ** raised OverflowError
        ],
        ids=["edge-of-tolerance", "huge"],
    )
    def test_amplitude_norm_is_the_check_evaluate_makes(self, amplitudes):
        obj = json.loads(FIG2D_JSON)
        obj["model"] = {"schedule_file": "s.json"}
        obj["amplitudes"] = amplitudes
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


_DROP = object()
SEG = ("model", "qubit_boson", "segments")
ZERO2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
SCHEDULE = {
    "system_dim": 2,
    "env_dim": 2,
    "segments": [{"duration": 1.0, "generators": [ZERO2, ZERO2]}],
}
MATRIX = {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}


def edited(doc, *edits):
    """Deep copy of doc with each (key path, value) applied; _DROP deletes the key."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


# (edits to FIG2D_JSON, expected ValidationError.field): one row per key of every
# section for missing, wrong type, out of range and unknown keys, plus rows with two
# faults that pin which key is checked first
CONFIG_REJECTIONS = [
    ([((), [])], "config"),
    ([(("extra",), 1)], "config"),
    ([(("model",), _DROP)], "model"),
    ([(("model",), [])], "model"),
    ([(("model",), {})], "model"),
    ([(("model",), {"qubit_boson": {}, "schedule_file": "s.json"})], "model"),
    ([(("model", "color"), 1)], "model"),
    ([(("model", "qubit_boson"), 3)], "model.qubit_boson"),
    ([(("model", "qubit_boson", "color"), 1)], "model.qubit_boson"),
    ([(("model", "qubit_boson", "beta"), _DROP)], "model.qubit_boson.beta"),
    ([(("model", "qubit_boson", "beta"), "1")], "model.qubit_boson.beta"),
    ([(("model", "qubit_boson", "beta"), True)], "model.qubit_boson.beta"),
    ([(("model", "qubit_boson", "beta"), 0)], "model.qubit_boson.beta"),
    ([(("model", "qubit_boson", "beta"), None)], "model.qubit_boson.beta"),
    ([(SEG, _DROP)], "model.qubit_boson.segments"),
    ([(SEG, [])], "model.qubit_boson.segments"),
    ([(SEG, {})], "model.qubit_boson.segments"),
    ([(SEG + (0,), 5)], "model.qubit_boson.segments[0]"),
    ([(SEG + (1, "color"), "red")], "model.qubit_boson.segments[1]"),
    ([(SEG + (0, "duration"), _DROP)], "model.qubit_boson.segments[0].duration"),
    ([(SEG + (2, "duration"), 0.0)], "model.qubit_boson.segments[2].duration"),
    ([(SEG + (0, "duration"), "2")], "model.qubit_boson.segments[0].duration"),
    ([(SEG + (1, "alpha"), _DROP)], "model.qubit_boson.segments[1].alpha"),
    ([(SEG + (1, "alpha"), [0.5])], "model.qubit_boson.segments[1].alpha"),
    ([(SEG + (1, "alpha"), [True, 0.0])], "model.qubit_boson.segments[1].alpha"),
    ([(SEG + (1, "alpha"), 0.5)], "model.qubit_boson.segments[1].alpha"),
    ([(SEG + (1, "gamma"), "g")], "model.qubit_boson.segments[1].gamma"),
    ([(SEG + (1, "gamma"), None)], "model.qubit_boson.segments[1].gamma"),
    ([(("model",), {"schedule_file": ""})], "model.schedule_file"),
    ([(("model",), {"schedule_file": 3})], "model.schedule_file"),
    ([(("initial_env",), _DROP)], "initial_env"),
    ([(("initial_env",), 1)], "initial_env"),
    ([(("initial_env",), {})], "initial_env"),
    ([(("initial_env",), {"vacuum": {}})], "initial_env"),
    ([(("initial_env",), {"thermal": {"theta": 1.0}, "fock": {"n": 0}})], "initial_env"),
    ([(("initial_env", "thermal"), [])], "initial_env.thermal"),
    ([(("initial_env", "thermal", "color"), 1)], "initial_env.thermal"),
    ([(("initial_env", "thermal", "theta"), _DROP)], "initial_env.thermal.theta"),
    ([(("initial_env", "thermal", "theta"), -0.5)], "initial_env.thermal.theta"),
    ([(("initial_env", "thermal", "theta"), "2")], "initial_env.thermal.theta"),
    ([(("initial_env",), {"coherent": {"im": 0.1}})], "initial_env.coherent.re"),
    ([(("initial_env",), {"coherent": {"re": "x"}})], "initial_env.coherent.re"),
    ([(("initial_env",), {"coherent": {"re": 0.5, "im": [0]}})], "initial_env.coherent.im"),
    ([(("initial_env",), {"coherent": {"re": 0.5, "z": 0}})], "initial_env.coherent"),
    ([(("initial_env",), {"coherent": 0.5})], "initial_env.coherent"),
    ([(("initial_env",), {"fock": {}})], "initial_env.fock.n"),
    ([(("initial_env",), {"fock": {"n": -1}})], "initial_env.fock.n"),
    ([(("initial_env",), {"fock": {"n": 1.0}})], "initial_env.fock.n"),
    ([(("initial_env",), {"fock": {"n": 1, "m": 2}})], "initial_env.fock"),
    ([(("initial_env",), {"matrix_file": 7})], "initial_env.matrix_file"),
    ([(("initial_env",), {"matrix_file": ""})], "initial_env.matrix_file"),
    ([(("time",), _DROP)], "time"),
    ([(("time",), 5)], "time"),
    ([(("time", "color"), 1)], "time"),
    ([(("time", "t_max"), _DROP)], "time.t_max"),
    ([(("time", "t_max"), 0.0)], "time.t_max"),
    ([(("time", "t_max"), None)], "time.t_max"),
    ([(("time", "steps"), 1)], "time.steps"),
    ([(("time", "steps"), 2.5)], "time.steps"),
    ([(("time", "steps"), None)], "time.steps"),
    ([(("time", "t_start"), "0")], "time.t_start"),
    ([(("cutoff",), "tiny")], "cutoff"),
    ([(("cutoff",), 1)], "cutoff"),
    ([(("cutoff",), 16.0)], "cutoff"),
    ([(("cutoff",), None)], "cutoff"),
    ([(("amplitudes",), "x")], "amplitudes"),
    ([(("amplitudes",), [[1.0, 0.0]])], "amplitudes"),
    ([(("amplitudes",), [[1.0, 0.0], [0.0]])], "amplitudes[1]"),
    ([(("amplitudes",), [[1.0, 0.0], [0.0, "0"]])], "amplitudes[1]"),
    ([(("amplitudes",), [[1.0, 0.0], [1.0, 0.0]])], "amplitudes"),
    # any count is norm-checked here; the run checks the count against the schedule
    ([(("amplitudes",), [[0.6, 0.0], [0.8, 0.0], [0.1, 0.0]])], "amplitudes"),
    ([(("outputs",), 1)], "outputs"),
    ([(("outputs",), {"color": True})], "outputs"),
    ([(("outputs",), {"entanglement": 1})], "outputs.entanglement"),
    ([(("outputs",), {"coherence": "yes"})], "outputs.coherence"),
    ([(("outputs",), {"type1": None})], "outputs.type1"),
    ([(("outputs",), {"type2": 0})], "outputs.type2"),
    ([(("outputs",), {"negativity": "true"})], "outputs.negativity"),
    # no tolerance is configurable: each form the tolerances section once took is unknown
    ([(("tolerances",), {"cutoff_tail": 1e-12})], "config"),
    ([(("tolerances",), None)], "config"),
    ([(("tolerances",), {})], "config"),
    # a boolean is not a number, though Python's bool is an int
    ([(("initial_env",), {"thermal": {"theta": True}})], "initial_env.thermal.theta"),
    ([(("initial_env",), {"fock": {"n": True}})], "initial_env.fock.n"),
    # two faults: the key evaluated first is reported
    ([(("extra",), 1), (("model",), _DROP)], "config"),
    ([(("time",), _DROP), (("model", "qubit_boson", "beta"), 0)], "model.qubit_boson.beta"),
    ([(("time",), _DROP), (("initial_env",), {})], "initial_env"),
    ([(("cutoff",), 1), (("time", "steps"), 1)], "time.steps"),
    ([(("amplitudes",), "x"), (("cutoff",), 1)], "cutoff"),
    ([(("amplitudes",), [[1.0, 0.0], [1.0, 0.0]]), (("outputs",), 1)], "amplitudes"),
    ([(("outputs",), {"color": True, "type1": None})], "outputs"),
    (
        [(SEG + (0, "alpha"), 1), (SEG + (0, "duration"), 0.0)],
        "model.qubit_boson.segments[0].duration",
    ),
    ([(SEG + (0, "gamma"), "g"), (SEG + (1, "alpha"), 1)], "model.qubit_boson.segments[0].gamma"),
    ([(("time", "t_start"), "0"), (("time", "steps"), 1)], "time.steps"),
]

# (edits to SCHEDULE, expected field)
SCHEDULE_REJECTIONS = [
    ([((), [])], "schedule"),
    ([(("color",), 1)], "schedule"),
    ([(("system_dim",), _DROP)], "schedule.system_dim"),
    ([(("system_dim",), 2.0)], "schedule.system_dim"),
    ([(("system_dim",), 1)], "schedule.system_dim"),
    ([(("env_dim",), _DROP)], "schedule.env_dim"),
    ([(("env_dim",), "2")], "schedule.env_dim"),
    ([(("env_dim",), 1)], "schedule.env_dim"),
    ([(("segments",), _DROP)], "schedule.segments"),
    ([(("segments",), [])], "schedule.segments"),
    ([(("segments", 0), [])], "schedule.segments[0]"),
    ([(("segments", 0, "color"), 1)], "schedule.segments[0]"),
    ([(("segments", 0, "duration"), _DROP)], "schedule.segments[0].duration"),
    ([(("segments", 0, "duration"), -1.0)], "schedule.segments[0].duration"),
    ([(("segments", 0, "generators"), _DROP)], "schedule.segments[0].generators"),
    ([(("segments", 0, "generators"), [ZERO2])], "schedule.segments[0].generators"),
    ([(("segments", 0, "generators", 1), [])], "schedule.segments[0].generators[1]"),
    ([(("segments", 0, "generators", 1), [[[0.0, 0.0]]])], "schedule.segments[0].generators[1]"),
    (
        [(("segments", 0, "generators", 1, 1), [[0.0, 0.0]])],
        "schedule.segments[0].generators[1][1]",
    ),
    ([(("segments", 0, "generators", 0, 1, 0), [0.0])], "schedule.segments[0].generators[0][1][0]"),
    ([(("segments", 0, "generators", 0, 0, 1), "0")], "schedule.segments[0].generators[0][0][1]"),
    ([(("env_dim",), 1), (("segments",), _DROP)], "schedule.env_dim"),
    (
        [(("segments", 0, "generators"), [ZERO2]), (("segments", 0, "duration"), 0)],
        "schedule.segments[0].duration",
    ),
    ([(("system_dim",), 1), (("env_dim",), "2")], "schedule.env_dim"),
    ([(("system_dim",), 1), (("segments",), _DROP)], "schedule.system_dim"),
]

MATRIX_REJECTIONS = [
    ([((), [])], "matrix document"),
    ([(("color",), 1)], "matrix document"),
    ([(("matrix",), _DROP)], "matrix document.matrix"),
    ([(("matrix",), [])], "matrix"),
    ([(("matrix", 0), [[1.0, 0.0]])], "matrix[0]"),
    ([(("matrix", 1, 0), [0.0, 0.0, 0.0])], "matrix[1][0]"),
    ([(("matrix", 1, 1), [None, 0.0])], "matrix[1][1]"),
]


class TestValidationFields:
    """Every rejection names the offending field."""

    @pytest.mark.parametrize("edits, field", CONFIG_REJECTIONS)
    def test_config(self, edits, field):
        with pytest.raises(ValidationError) as err:
            config_from_dict(edited(json.loads(FIG2D_JSON), *edits))
        assert err.value.field == field

    @pytest.mark.parametrize("edits, field", SCHEDULE_REJECTIONS)
    def test_schedule_document(self, tmp_path, edits, field):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(edited(SCHEDULE, *edits)))
        with pytest.raises(ValidationError) as err:
            load_schedule_file(str(path))
        assert err.value.field == field

    @pytest.mark.parametrize("edits, field", MATRIX_REJECTIONS)
    def test_matrix_document(self, tmp_path, edits, field):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(edited(MATRIX, *edits)))
        with pytest.raises(ValidationError) as err:
            load_matrix_file(str(path))
        assert err.value.field == field

    @pytest.mark.parametrize(
        "edits",
        [
            [(("amplitudes",), None), (("outputs",), None)],
            [(("outputs",), {})],
        ],
    )
    def test_null_or_empty_sections_take_defaults(self, edits):
        assert config_from_dict(edited(json.loads(FIG2D_JSON), *edits)) == parse_config(
            FIG2D_JSON
        )

    def test_valid_documents_load(self, tmp_path):
        (tmp_path / "s.json").write_text(json.dumps(SCHEDULE))
        (tmp_path / "m.json").write_text(json.dumps(MATRIX))
        schedule = load_schedule_file(str(tmp_path / "s.json"))
        assert (schedule.system_dim, schedule.env_dim, len(schedule.segments)) == (2, 2, 1)
        assert load_matrix_file(str(tmp_path / "m.json"))[0, 0] == 1.0

    def test_a_non_hermitian_document_is_not_loaded(self, tmp_path):
        # the schedule checks its generators when built: no schedule of this document exists
        raising = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(edited(SCHEDULE, (("segments", 0, "generators", 0), raising))))
        with pytest.raises(NotHermitianGenerator, match=(
            "^generator 0 of segment 0 has relative anti-Hermitian residual 1.414e\\+00$"
        )):
            load_schedule_file(str(path))


_NUMBERS = st.integers(-(10**20), 10**20) | st.floats(allow_nan=False, allow_infinity=False)
ONE = [1.0, 0.0]
ZERO = [0.0, 0.0]

# 2 x 2 matrices that leave the array fast path, each with the walker's message
WALKER_MESSAGES = [
    ([[[True, 0.0], ZERO], [ZERO, ONE]], "m[0][0]: expected a number, got True"),
    ([[ONE, [0.0, "0"]], [ZERO, ONE]], "m[0][1]: expected a number, got '0'"),
    ([(ONE, ZERO), (ZERO, ONE)], "m[0]: expected a row of 2 entries"),
    ([[ONE, ZERO], [ZERO]], "m[1]: expected a row of 2 entries"),
    ([[ONE, ZERO], [ZERO, [1.0, 0.0, 0.0]]], "m[1][1]: expected [re, im], got [1.0, 0.0, 0.0]"),
    ([[ONE, ZERO], [[0.0, math.nan], ONE]], "m[1][0]: must be finite, got nan"),
    ([[ONE, ZERO], [ZERO, [-math.inf, 0.0]]], "m[1][1]: must be finite, got -inf"),
    ([[[10**400, 0], ZERO], [ZERO, ONE]], f"m[0][0]: must be finite, got {10**400!r}"),
]


class TestComplexMatrix:
    @given(
        matrix=st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_array_path_matches_the_walker(self, matrix):
        # JSON rows of finite numbers never reach the per-entry walker, and give its values
        expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in matrix])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(config, "_complex_pair", None)
            got = parse_complex_matrix(matrix, "m", len(matrix))
        assert got.dtype == complex and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("matrix, message", WALKER_MESSAGES)
    def test_walker_messages(self, matrix, message):
        with pytest.raises(ValidationError) as err:
            parse_complex_matrix(matrix, "m", 2)
        assert str(err.value) == message


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

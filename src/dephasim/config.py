"""Run configuration: JSON schema, strict validation, defaults.

A run is described by a single UTF-8 JSON document. Complex numbers appear as
two-element [re, im] arrays. Unknown keys are rejected everywhere so typos
fail loudly. See README for the full schema and examples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dephasing import Segment, SegmentSchedule
from .errors import ParseError, ValidationError
from .qubit_boson import AlphaSegment

__all__ = [
    "ThermalEnv",
    "CoherentEnv",
    "FockEnv",
    "MatrixFileEnv",
    "QubitBosonModel",
    "ScheduleFileModel",
    "TimeGrid",
    "OutputFlags",
    "Tolerances",
    "RunConfig",
    "parse_config",
    "config_from_dict",
    "AUTO_CUTOFF",
]

AUTO_CUTOFF = "auto"
DEFAULT_STEPS = 601


@dataclass(frozen=True)
class ThermalEnv:
    theta: float


@dataclass(frozen=True)
class CoherentEnv:
    zeta: complex


@dataclass(frozen=True)
class FockEnv:
    n: int


@dataclass(frozen=True)
class MatrixFileEnv:
    path: str


@dataclass(frozen=True)
class QubitBosonModel:
    beta: float
    segments: tuple[AlphaSegment, ...]


@dataclass(frozen=True)
class ScheduleFileModel:
    path: str


@dataclass(frozen=True)
class TimeGrid:
    t_max: float
    steps: int
    t_start: float = 0.0  # shifts reported times only; dynamics always start at 0


@dataclass(frozen=True)
class OutputFlags:
    entanglement: bool = True
    coherence: bool = True
    type1: bool = True
    type2: bool = True
    negativity: bool = False


@dataclass(frozen=True)
class Tolerances:
    cutoff_tail: float = 1e-12


@dataclass(frozen=True)
class RunConfig:
    model: QubitBosonModel | ScheduleFileModel
    initial_env: ThermalEnv | CoherentEnv | FockEnv | MatrixFileEnv
    time: TimeGrid
    cutoff: int | str = AUTO_CUTOFF
    amplitudes: tuple[complex, ...] | None = None  # None -> equal superposition
    outputs: OutputFlags = field(default_factory=OutputFlags)
    tolerances: Tolerances = field(default_factory=Tolerances)


def parse_config(text: bytes | str, *, base_dir: str | Path | None = None) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Relative file paths inside the document are resolved against base_dir
    when given. Raises ParseError for malformed JSON (with line and column)
    and ValidationError naming the offending field otherwise.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"config is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    return config_from_dict(obj, base_dir=base_dir)


def config_from_dict(obj, *, base_dir: str | Path | None = None) -> RunConfig:
    """Validate an already-decoded configuration object."""
    _expect_mapping(obj, "config")
    _reject_unknown(
        obj,
        "config",
        {"model", "initial_env", "amplitudes", "time", "cutoff", "outputs", "tolerances"},
    )
    model = _parse_model(_require(obj, "model", "config"), base_dir)
    env = _parse_env(_require(obj, "initial_env", "config"), base_dir)
    grid = _parse_time(_require(obj, "time", "config"))
    cutoff = _parse_cutoff(obj.get("cutoff", AUTO_CUTOFF))
    amplitudes = _parse_amplitudes(obj.get("amplitudes"), model)
    outputs = _parse_outputs(obj.get("outputs"))
    tolerances = _parse_tolerances(obj.get("tolerances"))
    return RunConfig(
        model=model,
        initial_env=env,
        time=grid,
        cutoff=cutoff,
        amplitudes=amplitudes,
        outputs=outputs,
        tolerances=tolerances,
    )


def _expect_mapping(obj, path: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(path, f"expected an object, got {type(obj).__name__}")


def _reject_unknown(obj: dict, path: str, allowed: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(path, f"unknown keys: {sorted(unknown)}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"{path}.{key}" if path != "config" else key, "missing")
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(path, f"must be finite, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    return value


def _complex_pair(value, path: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ValidationError(path, f"expected [re, im], got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _resolve(path_value, path: str, base_dir) -> str:
    if not isinstance(path_value, str) or not path_value:
        raise ValidationError(path, f"expected a file path string, got {path_value!r}")
    p = Path(path_value)
    if base_dir is not None and not p.is_absolute():
        p = Path(base_dir) / p
    return str(p)


def _parse_model(obj, base_dir) -> QubitBosonModel | ScheduleFileModel:
    _expect_mapping(obj, "model")
    _reject_unknown(obj, "model", {"qubit_boson", "schedule_file"})
    variants = [k for k in ("qubit_boson", "schedule_file") if k in obj]
    if len(variants) != 1:
        raise ValidationError("model", "exactly one of qubit_boson/schedule_file required")
    if variants[0] == "schedule_file":
        return ScheduleFileModel(path=_resolve(obj["schedule_file"], "model.schedule_file", base_dir))
    spec = obj["qubit_boson"]
    _expect_mapping(spec, "model.qubit_boson")
    _reject_unknown(spec, "model.qubit_boson", {"beta", "segments"})
    beta = _number(_require(spec, "beta", "model.qubit_boson"), "model.qubit_boson.beta")
    if beta == 0:
        raise ValidationError("model.qubit_boson.beta", "must be nonzero")
    raw_segments = _require(spec, "segments", "model.qubit_boson")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ValidationError("model.qubit_boson.segments", "expected a nonempty array")
    segments = []
    for idx, seg in enumerate(raw_segments):
        path = f"model.qubit_boson.segments[{idx}]"
        _expect_mapping(seg, path)
        _reject_unknown(seg, path, {"duration", "alpha", "gamma"})
        duration = _number(_require(seg, "duration", path), f"{path}.duration")
        if duration <= 0:
            raise ValidationError(f"{path}.duration", "must be > 0")
        alpha = _complex_pair(_require(seg, "alpha", path), f"{path}.alpha")
        gamma = _number(seg.get("gamma", 0.0), f"{path}.gamma")
        segments.append(AlphaSegment(duration=duration, alpha=alpha, gamma=gamma))
    return QubitBosonModel(beta=beta, segments=tuple(segments))


def _parse_env(obj, base_dir):
    _expect_mapping(obj, "initial_env")
    _reject_unknown(obj, "initial_env", {"thermal", "coherent", "fock", "matrix_file"})
    variants = [k for k in ("thermal", "coherent", "fock", "matrix_file") if k in obj]
    if len(variants) != 1:
        raise ValidationError(
            "initial_env", "exactly one of thermal/coherent/fock/matrix_file required"
        )
    kind = variants[0]
    if kind == "thermal":
        spec = obj["thermal"]
        _expect_mapping(spec, "initial_env.thermal")
        _reject_unknown(spec, "initial_env.thermal", {"theta"})
        theta = _number(_require(spec, "theta", "initial_env.thermal"), "initial_env.thermal.theta")
        if theta < 0:
            raise ValidationError("initial_env.thermal.theta", "must be >= 0")
        return ThermalEnv(theta=theta)
    if kind == "coherent":
        spec = obj["coherent"]
        _expect_mapping(spec, "initial_env.coherent")
        _reject_unknown(spec, "initial_env.coherent", {"re", "im"})
        re = _number(_require(spec, "re", "initial_env.coherent"), "initial_env.coherent.re")
        im = _number(spec.get("im", 0.0), "initial_env.coherent.im")
        return CoherentEnv(zeta=complex(re, im))
    if kind == "fock":
        spec = obj["fock"]
        _expect_mapping(spec, "initial_env.fock")
        _reject_unknown(spec, "initial_env.fock", {"n"})
        n = _integer(_require(spec, "n", "initial_env.fock"), "initial_env.fock.n")
        if n < 0:
            raise ValidationError("initial_env.fock.n", "must be >= 0")
        return FockEnv(n=n)
    return MatrixFileEnv(path=_resolve(obj["matrix_file"], "initial_env.matrix_file", base_dir))


def _parse_time(obj) -> TimeGrid:
    _expect_mapping(obj, "time")
    _reject_unknown(obj, "time", {"t_max", "steps", "t_start"})
    t_max = _number(_require(obj, "t_max", "time"), "time.t_max")
    if t_max <= 0:
        raise ValidationError("time.t_max", "must be > 0")
    steps = _integer(obj.get("steps", DEFAULT_STEPS), "time.steps")
    if steps < 2:
        raise ValidationError("time.steps", "must be >= 2")
    t_start = _number(obj.get("t_start", 0.0), "time.t_start")
    return TimeGrid(t_max=t_max, steps=steps, t_start=t_start)


def _parse_cutoff(value) -> int | str:
    if value == AUTO_CUTOFF:
        return AUTO_CUTOFF
    cutoff = _integer(value, "cutoff")
    if cutoff < 2:
        raise ValidationError("cutoff", "must be >= 2 (or the string 'auto')")
    return cutoff


def _parse_amplitudes(value, model) -> tuple[complex, ...] | None:
    if value is None:
        if isinstance(model, QubitBosonModel):
            r = 1.0 / math.sqrt(2.0)
            return (complex(r), complex(r))
        return None  # filled from the loaded schedule's dimension at run time
    if not isinstance(value, list) or len(value) < 2:
        raise ValidationError("amplitudes", "expected an array of at least 2 [re, im] pairs")
    amps = tuple(
        _complex_pair(entry, f"amplitudes[{idx}]") for idx, entry in enumerate(value)
    )
    norm_sq = sum(abs(a) ** 2 for a in amps)
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValidationError("amplitudes", f"|c|^2 = {norm_sq!r}, expected 1 within 1e-10")
    if isinstance(model, QubitBosonModel) and len(amps) != 2:
        raise ValidationError("amplitudes", "qubit_boson model requires exactly 2 amplitudes")
    return amps


def _parse_outputs(obj) -> OutputFlags:
    if obj is None:
        return OutputFlags()
    _expect_mapping(obj, "outputs")
    allowed = {"entanglement", "coherence", "type1", "type2", "negativity"}
    _reject_unknown(obj, "outputs", allowed)
    values = {}
    for key in allowed:
        if key in obj:
            if not isinstance(obj[key], bool):
                raise ValidationError(f"outputs.{key}", f"expected a boolean, got {obj[key]!r}")
            values[key] = obj[key]
    return OutputFlags(**values)


def _parse_tolerances(obj) -> Tolerances:
    if obj is None:
        return Tolerances()
    _expect_mapping(obj, "tolerances")
    _reject_unknown(obj, "tolerances", {"cutoff_tail"})
    if "cutoff_tail" not in obj:
        return Tolerances()
    v = _number(obj["cutoff_tail"], "tolerances.cutoff_tail")
    if v <= 0:
        raise ValidationError("tolerances.cutoff_tail", "must be > 0")
    return Tolerances(cutoff_tail=v)


def load_schedule_file(path: str) -> SegmentSchedule:
    """Load a generic schedule document: N, env_dim and explicit generators.

    Schema: {"system_dim": N, "env_dim": d,
             "segments": [{"duration": x, "generators": [matrix, ...]}, ...]}
    where each matrix is a nested array of [re, im] pairs.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError("model.schedule_file", f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            "model.schedule_file", f"{path} is not valid JSON: {exc}"
        ) from exc
    _expect_mapping(obj, "schedule")
    _reject_unknown(obj, "schedule", {"system_dim", "env_dim", "segments"})
    n = _integer(_require(obj, "system_dim", "schedule"), "schedule.system_dim")
    d = _integer(_require(obj, "env_dim", "schedule"), "schedule.env_dim")
    if n < 2:
        raise ValidationError("schedule.system_dim", "must be >= 2")
    if d < 2:
        raise ValidationError("schedule.env_dim", "must be >= 2")
    raw_segments = _require(obj, "segments", "schedule")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ValidationError("schedule.segments", "expected a nonempty array")
    segments = []
    for idx, seg in enumerate(raw_segments):
        path_ = f"schedule.segments[{idx}]"
        _expect_mapping(seg, path_)
        _reject_unknown(seg, path_, {"duration", "generators"})
        duration = _number(_require(seg, "duration", path_), f"{path_}.duration")
        if duration <= 0:
            raise ValidationError(f"{path_}.duration", "must be > 0")
        gens = _require(seg, "generators", path_)
        if not isinstance(gens, list) or len(gens) != n:
            raise ValidationError(f"{path_}.generators", f"expected {n} matrices")
        matrices = tuple(
            parse_complex_matrix(g, f"{path_}.generators[{i}]", d) for i, g in enumerate(gens)
        )
        segments.append(Segment(duration=duration, generators=matrices))
    return SegmentSchedule(system_dim=n, env_dim=d, segments=tuple(segments))


def load_matrix_file(path: str) -> np.ndarray:
    """Load a density matrix document: {"matrix": [[[re, im], ...], ...]}."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError("initial_env.matrix_file", f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            "initial_env.matrix_file", f"{path} is not valid JSON: {exc}"
        ) from exc
    _expect_mapping(obj, "matrix document")
    _reject_unknown(obj, "matrix document", {"matrix"})
    return parse_complex_matrix(_require(obj, "matrix", "matrix document"), "matrix")


def parse_complex_matrix(value, path: str, expected_dim: int | None = None) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ValidationError(path, "expected a nonempty nested array")
    dim = len(value)
    if expected_dim is not None and dim != expected_dim:
        raise ValidationError(path, f"matrix has {dim} rows, expected {expected_dim}")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{path}[{i}]", f"expected a row of {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_pair(entry, f"{path}[{i}][{j}]")
    return out

"""Run configuration: JSON schema, strict validation, defaults.

A run is described by a single UTF-8 JSON document. Complex numbers appear as
two-element [re, im] arrays. Unknown keys are rejected everywhere so typos
fail loudly, and so are the NaN and Infinity that Python's json accepts.
Every section is checked by one walker, _fields, from a table of
{key: (convert, default)}. See README for the full schema and examples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .dephasing import Segment, SegmentSchedule, _checked_amplitudes
from .errors import NotNormalizedError, ParseError, ValidationError
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
class RunConfig:
    model: QubitBosonModel | ScheduleFileModel
    initial_env: ThermalEnv | CoherentEnv | FockEnv | MatrixFileEnv
    time: TimeGrid
    cutoff: int | str = AUTO_CUTOFF
    amplitudes: tuple[complex, ...] | None = None  # None -> equal superposition
    outputs: OutputFlags = field(default_factory=OutputFlags)


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
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError(f"config is nested too deeply: {exc}") from exc
    return config_from_dict(obj, base_dir=base_dir)


def config_from_dict(obj, *, base_dir: str | Path | None = None) -> RunConfig:
    """Validate an already-decoded configuration object."""

    def file_path(value, path: str) -> str:
        if not isinstance(value, str) or not value:
            raise ValidationError(path, f"expected a file path string, got {value!r}")
        p = Path(value)
        if base_dir is not None and not p.is_absolute():
            p = Path(base_dir) / p
        return str(p)

    def amplitudes(value, path: str) -> tuple[complex, ...] | None:
        if value is None:  # sweep._resolve sets the equal superposition of the schedule's pointers
            return None
        amps = _AMPLITUDE_LIST(value, path)
        try:  # the check sweep.evaluate makes, so that amplitudes which pass here run
            _checked_amplitudes(amps, len(amps))
        except NotNormalizedError as exc:
            raise ValidationError(path, str(exc)) from None
        return amps

    model = _one_of(
        qubit_boson=_record(QubitBosonModel, _QUBIT_BOSON),
        schedule_file=lambda v, p: ScheduleFileModel(file_path(v, p)),
    )
    env = _one_of(
        thermal=_record(ThermalEnv, {"theta": (_NONNEGATIVE, _REQUIRED)}),
        coherent=lambda v, p: CoherentEnv(complex(*_fields(v, p, _COHERENT).values())),
        fock=_record(FockEnv, {"n": (_check(_integer, lambda n: n >= 0, ">= 0"), _REQUIRED)}),
        matrix_file=lambda v, p: MatrixFileEnv(file_path(v, p)),
    )
    spec = {
        "model": (model, _REQUIRED),
        "initial_env": (env, _REQUIRED),
        "time": (_record(TimeGrid, _TIME), _REQUIRED),
        "cutoff": (_cutoff, AUTO_CUTOFF),
        "amplitudes": (amplitudes, None),
        "outputs": (_record_or_null(OutputFlags, _bool), None),
    }
    return RunConfig(**_fields(obj, "config", spec))


_REQUIRED = object()  # spec default of a key that must be present


def _fields(obj, path: str, spec: dict) -> dict:
    """Check a JSON object against spec = {key: (convert, default)}.

    Unknown keys are rejected. Keys are converted in spec order, so the first
    error reported is stable; an absent key takes its default, which is
    converted like a given value, unless the default is _REQUIRED.
    convert(value, field_path) returns the checked value or raises
    ValidationError. Keys of the top-level "config" are named without prefix.
    """
    if not isinstance(obj, dict):
        raise ValidationError(path, f"expected an object, got {type(obj).__name__}")
    unknown = obj.keys() - spec.keys()
    if unknown:
        raise ValidationError(path, f"unknown keys: {sorted(unknown)}")
    out = {}
    for key, (convert, default) in spec.items():
        key_path = key if path == "config" else f"{path}.{key}"
        value = obj.get(key, default)
        if value is _REQUIRED:
            raise ValidationError(key_path, "missing")
        out[key] = convert(value, key_path)
    return out


def _record(cls, spec: dict):
    return lambda value, path: cls(**_fields(value, path, spec))


def _record_or_null(cls, convert):
    """A dataclass of defaulted fields, each checked by convert; null means all defaults."""
    spec = {f.name: (convert, f.default) for f in fields(cls)}
    return lambda value, path: cls(**_fields({} if value is None else value, path, spec))


def _one_of(**variants):
    """An object with exactly one of the variant keys, converted by that variant."""
    names = "/".join(variants)

    def convert(value, path: str):
        _fields(value, path, dict.fromkeys(variants, (_keep, None)))
        present = [k for k in variants if k in value]
        if len(present) != 1:
            raise ValidationError(path, f"exactly one of {names} required")
        return variants[present[0]](value[present[0]], f"{path}.{present[0]}")

    return convert


def _list(item, ok=bool, expected: str = "a nonempty array"):
    """A JSON array passing ok(), its items converted with [i] paths."""

    def convert(value, path: str) -> tuple:
        if not isinstance(value, list) or not ok(value):
            raise ValidationError(path, f"expected {expected}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return convert


def _check(convert, ok, bound: str):
    def checked(value, path: str):
        value = convert(value, path)
        if not ok(value):
            raise ValidationError(path, f"must be {bound}")
        return value

    return checked


def _keep(value, path: str):
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(path, f"expected a boolean, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(path, f"must be finite, got {value!r}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    _number(value, path)  # an integer past the float range is not finite
    return value


def _complex_pair(value, path: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(path, f"expected [re, im], got {value!r}")
    return complex(_number(value[0], path), _number(value[1], path))


def _cutoff(value, path: str) -> int | str:
    return AUTO_CUTOFF if value == AUTO_CUTOFF else _CUTOFF_INT(value, path)


_POSITIVE = _check(_number, lambda v: v > 0, "> 0")
_NONNEGATIVE = _check(_number, lambda v: v >= 0, ">= 0")
_AT_LEAST_2 = _check(_integer, lambda v: v >= 2, ">= 2")
_CUTOFF_INT = _check(_integer, lambda v: v >= 2, ">= 2 (or the string 'auto')")
_AMPLITUDE_LIST = _list(
    _complex_pair, lambda v: len(v) >= 2, "an array of at least 2 [re, im] pairs"
)
_ALPHA_SEGMENT = {
    "duration": (_POSITIVE, _REQUIRED),
    "alpha": (_complex_pair, _REQUIRED),
    "gamma": (_number, 0.0),
}
_QUBIT_BOSON = {
    "beta": (_check(_number, lambda v: v != 0, "nonzero"), _REQUIRED),
    "segments": (_list(_record(AlphaSegment, _ALPHA_SEGMENT)), _REQUIRED),
}
_COHERENT = {"re": (_number, _REQUIRED), "im": (_number, 0.0)}
_TIME = {
    "t_max": (_POSITIVE, _REQUIRED),
    "steps": (_AT_LEAST_2, DEFAULT_STEPS),
    "t_start": (_number, 0.0),
}


def _read_json(path: str, field: str):
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ValidationError(field, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(field, f"{path} is not valid UTF-8: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ValidationError(field, f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(field, f"{path} is nested too deeply: {exc}") from exc


def load_schedule_file(path: str) -> SegmentSchedule:
    """Load a generic schedule document: N, env_dim and explicit generators.

    Schema: {"system_dim": N, "env_dim": d,
             "segments": [{"duration": x, "generators": [matrix, ...]}, ...]}
    where each matrix is a nested array of [re, im] pairs.
    """
    # both dimensions are type-checked before either is bounded, and the segments
    # are read last; an absent "segments" is rejected there as None
    spec = {"system_dim": (_integer, _REQUIRED), "env_dim": (_integer, _REQUIRED)}
    doc = _fields(
        _read_json(path, "model.schedule_file"), "schedule", {**spec, "segments": (_keep, None)}
    )
    n = _AT_LEAST_2(doc["system_dim"], "schedule.system_dim")
    d = _AT_LEAST_2(doc["env_dim"], "schedule.env_dim")
    generators = _list(
        lambda g, p: parse_complex_matrix(g, p, d), lambda v: len(v) == n, f"{n} matrices"
    )
    segment = _record(
        Segment, {"duration": (_POSITIVE, _REQUIRED), "generators": (generators, _REQUIRED)}
    )
    segments = _list(segment)(doc["segments"], "schedule.segments")
    return SegmentSchedule(system_dim=n, env_dim=d, segments=segments)


def load_matrix_file(path: str) -> np.ndarray:
    """Load a density matrix document: {"matrix": [[[re, im], ...], ...]}."""
    spec = {"matrix": (lambda v, _: parse_complex_matrix(v, "matrix"), _REQUIRED)}
    return _fields(_read_json(path, "initial_env.matrix_file"), "matrix document", spec)["matrix"]


def parse_complex_matrix(value, path: str, expected_dim: int | None = None) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ValidationError(path, "expected a nonempty nested array")
    dim = len(value)
    if expected_dim is not None and dim != expected_dim:
        raise ValidationError(path, f"matrix has {dim} rows, expected {expected_dim}")
    pairs = _numeric_pairs(value, dim)
    if pairs is not None:
        return pairs.view(complex)[..., 0]
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{path}[{i}]", f"expected a row of {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_pair(entry, f"{path}[{i}][{j}]")
    return out


def _numeric_pairs(value: list, dim: int):
    """The (dim, dim, 2) floats of rows of [re, im] pairs of finite JSON numbers.

    None sends the matrix to the entry-by-entry walker, whose messages name
    the offending entry; any JSON matrix the walker rejects gives None here.
    """
    if not all(type(row) is list for row in value):
        return None
    try:
        pairs = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if pairs.shape != (dim, dim, 2) or not np.isfinite(pairs).all():
        return None
    numbers = chain.from_iterable(chain.from_iterable(value))
    return pairs if set(map(type, numbers)) <= {int, float} else None

"""Built-in sweep presets.

Each preset is a plain configuration dictionary (see config.parse_config) so
it can be inspected, serialized or tweaked before running. The fig2 family
uses a thermal initial mode, the fig3 family a coherent one; both share the
same three-step drive: undriven for 2 time units, driven at
alpha/beta = (1+i)/2 for 2, undriven for 2. The two constant-drive variants
(fig2e, fig2f) keep the corresponding interaction on for the whole sweep;
fig2f reports times starting at 2 so its curve aligns with the driven phase
of the stepped sweeps.
"""

from __future__ import annotations

import copy
import math

__all__ = ["PRESET_NAMES", "preset_config"]

_ALPHA_ON = [0.5, 0.5]  # (1+i)/2
_ALPHA_OFF = [0.0, 0.0]
_STEPPED_SEGMENTS = [
    {"duration": 2.0, "alpha": _ALPHA_OFF},
    {"duration": 2.0, "alpha": _ALPHA_ON},
    {"duration": 2.0, "alpha": _ALPHA_OFF},
]
_CUTOFF = 64


def _polar(r: float, phase: float) -> list[float]:
    return [r * math.cos(phase), r * math.sin(phase)]


def _stepped_thermal(theta: float) -> dict:
    return {
        "model": {"qubit_boson": {"beta": 1.0, "segments": copy.deepcopy(_STEPPED_SEGMENTS)}},
        "initial_env": {"thermal": {"theta": theta}},
        "time": {"t_max": 6.0, "steps": 601},
        "cutoff": _CUTOFF,
    }


def _constant(alpha: list[float], theta: float, t_max: float, steps: int, t_start: float) -> dict:
    segments = [{"duration": t_max, "alpha": list(alpha)}]
    return {
        "model": {"qubit_boson": {"beta": 1.0, "segments": segments}},
        "initial_env": {"thermal": {"theta": theta}},
        "time": {"t_max": t_max, "steps": steps, "t_start": t_start},
        "cutoff": _CUTOFF,
    }


def _stepped_coherent(zeta: list[float]) -> dict:
    cfg = _stepped_thermal(0.0)
    cfg["initial_env"] = {"coherent": {"re": zeta[0], "im": zeta[1]}}
    return cfg


_PRESETS = {
    "fig2a": _stepped_thermal(0.0),
    "fig2b": _stepped_thermal(0.5),
    "fig2c": _stepped_thermal(1.0),
    "fig2d": _stepped_thermal(2.0),
    "fig2e": _constant(_ALPHA_OFF, 2.0, t_max=6.0, steps=601, t_start=0.0),
    "fig2f": _constant(_ALPHA_ON, 2.0, t_max=4.0, steps=401, t_start=2.0),
    "fig3a": _stepped_coherent(_polar(0.5, math.pi / 4)),
    "fig3b": _stepped_coherent(_polar(0.25, math.pi / 4)),
    "fig3c": _stepped_coherent([0.5, 0.0]),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_config(name: str) -> dict:
    """Deep copy of the named preset's configuration dictionary."""
    try:
        base = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return copy.deepcopy(base)

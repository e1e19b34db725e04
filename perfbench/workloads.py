"""Seeded inputs for the benchmark's workloads.

`WORKLOADS[name](rng)` draws one sweep's inputs: the JSON config for
`dephasim run`, the schedule or matrix documents it names, and what the
output checks need. Every sweep draws afresh, so a cache that outlives one
CLI call cannot inflate the figures.

- pure-c64: coherent environment (rank-1 R(0)) at cutoff 64 on a 601-point
  grid. Per-point Python overhead is a large share of the time.
- thermal-c256: thermal environment, theta in [1.5, 2.5] (numerical rank
  about 35 theta of 256), at cutoff 256 on a coarse grid. The O(d^3)
  eigensolvers dominate.
- qutrit-neg: 3-pointer schedule file with random Hermitian generators and a
  full-rank matrix-file environment at d = 32, every output on. The only
  path through file parsing, three type-1 pairs, type-2 commutators and the
  partial-transpose eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dephasim.dephasing import Segment, SegmentSchedule, equal_superposition
from dephasim.fock import FockSpace, coherent_state, env_from_matrix, thermal_state
from dephasim.qubit_boson import AlphaSegment, QubitBosonParams, build_schedule

# The preset drive: off for 2, on for 2 at |alpha/beta| = 1/sqrt(2), off for 2,
# with the config default of equal pointer amplitudes.
BETA = 1.0
DRIVE = ((2.0, 0.0), (2.0, 1 / math.sqrt(2)), (2.0, 0.0))
QUBIT = (1 / math.sqrt(2), 1 / math.sqrt(2))

QUTRIT_DIM = 32
QUTRIT_SEGMENTS = (1.0, 1.0, 1.0, 1.0)


@dataclass
class Draw:
    """One sweep's inputs and the facts the output checks use."""

    config: dict
    points: int
    t_max: float
    system_dim: int
    env_dim: int
    amplitudes: tuple[complex, ...]
    documents: dict[str, object] = field(default_factory=dict)  # file name -> JSON
    zeta: complex | None = None  # coherent environment
    theta: float | None = None  # thermal environment
    undriven_until: float = 0.0
    segments: tuple = ()  # qubit: AlphaSegments; qutrit: (duration, generators)
    rho0: np.ndarray | None = None  # matrix-file environment

    def reference(self):
        """Schedule and initial environment, built without the config parser."""
        if self.system_dim == 2:
            params = QubitBosonParams(beta=BETA, segments=self.segments, cutoff=self.env_dim)
            space = FockSpace(self.env_dim)
            env0 = (coherent_state(self.zeta, space) if self.zeta is not None
                    else thermal_state(self.theta, space))
            return build_schedule(params), env0
        segments = tuple(Segment(duration=d, generators=g) for d, g in self.segments)
        schedule = SegmentSchedule(system_dim=self.system_dim, env_dim=self.env_dim,
                                   segments=segments)
        return schedule, env_from_matrix(self.rho0)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_json(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _qubit_boson(rng: np.random.Generator, env: dict, cutoff: int, steps: int, **facts) -> Draw:
    drive = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    segments = tuple(AlphaSegment(duration=d, alpha=a * drive) for d, a in DRIVE)
    t_max = sum(d for d, _ in DRIVE)
    config = {
        "model": {"qubit_boson": {"beta": BETA, "segments": [
            {"duration": s.duration, "alpha": _pair(s.alpha)} for s in segments]}},
        "initial_env": env,
        "time": {"t_max": t_max, "steps": steps},
        "cutoff": cutoff,
        "outputs": {"negativity": False},
    }
    return Draw(config=config, points=steps, t_max=t_max, system_dim=2, env_dim=cutoff,
                amplitudes=QUBIT, undriven_until=DRIVE[0][0], segments=segments, **facts)


def pure_c64(rng: np.random.Generator) -> Draw:
    zeta = complex(rng.uniform(0.25, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    env = {"coherent": {"re": zeta.real, "im": zeta.imag}}
    return _qubit_boson(rng, env, cutoff=64, steps=601, zeta=zeta)


def thermal_c256(rng: np.random.Generator) -> Draw:
    theta = float(rng.uniform(1.5, 2.5))
    return _qubit_boson(rng, {"thermal": {"theta": theta}}, cutoff=256, steps=31, theta=theta)


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random Hermitian matrix with spectrum inside about [-2, 2]."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / (2 * math.sqrt(d))


def qutrit_neg(rng: np.random.Generator) -> Draw:
    n, d = 3, QUTRIT_DIM
    segments = tuple(
        (duration, tuple(_hermitian(rng, d) for _ in range(n))) for duration in QUTRIT_SEGMENTS
    )
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = g @ g.conj().T
    rho0 = (rho0 + rho0.conj().T) / (2 * np.trace(rho0).real)
    t_max = sum(QUTRIT_SEGMENTS)
    steps = 401
    documents = {
        "schedule.json": {"system_dim": n, "env_dim": d, "segments": [
            {"duration": duration, "generators": [_matrix_json(v) for v in gens]}
            for duration, gens in segments]},
        "env.json": {"matrix": _matrix_json(rho0)},
    }
    config = {
        "model": {"schedule_file": "schedule.json"},
        "initial_env": {"matrix_file": "env.json"},
        "time": {"t_max": t_max, "steps": steps},
        "cutoff": d,
        "outputs": {"entanglement": True, "coherence": True, "type1": True,
                    "type2": True, "negativity": True},
    }
    return Draw(config=config, points=steps, t_max=t_max, system_dim=n, env_dim=d,
                amplitudes=tuple(equal_superposition(n)), documents=documents,
                segments=segments, rho0=rho0)


WORKLOADS = {"pure-c64": pure_c64, "thermal-c256": thermal_c256, "qutrit-neg": qutrit_neg}
# Dimension of each workload's largest eigensolve, at which its speed probe
# runs (qutrit-neg: the 3d x 3d partial transpose).
PROBE_DIM = {"pure-c64": 64, "thermal-c256": 256, "qutrit-neg": 3 * QUTRIT_DIM}

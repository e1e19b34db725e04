"""Qubit coupled to a single bosonic mode through a step-switched interaction.

The Hamiltonian is sigma_z (x) [alpha(t) a^dag + alpha*(t) a + beta a^dag a
+ gamma(t)] with alpha piecewise constant, which is pure dephasing in the
sigma_z basis: the two pointer states drive the mode with opposite-sign
generators V_{0/1} = +/- (alpha a^dag + alpha* a + beta n + gamma), so
V_1 = -V_0 within each segment. Each segment exponential of w_1 is then the
inverse of that of w_0, but w_1(t)^dag multiplies them in the reverse order,
so w_0(t) = w_1(t)^dag holds only inside the first segment: on the preset
drive at cutoff 32, ||w_0 - w_1^dag||_F is 0 at t = 1 and 8.1 at t = 3.

Propagators come from the segment exponentials in the schedule engine. The
closed form of one constant-alpha segment (displacement x phase x rotation)
is a test oracle in tests/util.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dephasing import Segment, SegmentSchedule
from .errors import InvalidArgument
from .fock import FockSpace, annihilation, number_op
from .linalg import dagger

__all__ = [
    "AlphaSegment",
    "QubitBosonParams",
    "build_schedule",
    "branch_generator",
]


@dataclass(frozen=True)
class AlphaSegment:
    """One step of the drive: duration, linear-coupling amplitude, scalar offset."""

    duration: float
    alpha: complex
    gamma: float = 0.0

    def __post_init__(self):
        if not self.duration > 0:
            raise InvalidArgument(f"segment duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class QubitBosonParams:
    """Step-function drive parameters for the qubit-mode model."""

    beta: float
    segments: tuple[AlphaSegment, ...]
    cutoff: int

    def __post_init__(self):
        if self.beta == 0:
            raise InvalidArgument("beta must be nonzero (the drive reach divides by it)")
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise InvalidArgument("at least one drive segment is required")


def branch_generator(
    alpha: complex, beta: float, gamma: float, space: FockSpace, branch: int
) -> np.ndarray:
    """Environment generator V_branch = +/- (alpha a^dag + alpha* a + beta n + gamma)."""
    if branch not in (0, 1):
        raise InvalidArgument(f"branch must be 0 or 1, got {branch}")
    a = annihilation(space)
    base = alpha * dagger(a) + np.conj(alpha) * a + beta * number_op(space)
    base += gamma * np.eye(space.dim)
    return base if branch == 0 else -base


def build_schedule(params: QubitBosonParams) -> SegmentSchedule:
    """Two-pointer schedule with opposite-sign generators per drive step."""
    space = FockSpace(params.cutoff)
    segments = []
    for step in params.segments:
        v0 = branch_generator(step.alpha, params.beta, step.gamma, space, 0)
        segments.append(Segment(duration=step.duration, generators=(v0, -v0)))
    return SegmentSchedule(system_dim=2, env_dim=space.dim, segments=tuple(segments))

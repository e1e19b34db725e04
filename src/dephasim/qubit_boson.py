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
from .fock import FockSpace

__all__ = [
    "AlphaSegment",
    "QubitBosonParams",
    "build_schedule",
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


def _branch_bands(alpha: complex, beta: float, gamma: float, dim: int):
    """(diagonal, sub-, super-diagonal) of V_0 = alpha a^dag + alpha* a + beta n + gamma."""
    n, root = np.arange(dim), np.sqrt(np.arange(1, dim))
    with np.errstate(over="ignore"):  # SegmentSchedule names an overflowed entry
        bands = beta * n + gamma, alpha * root, np.conj(alpha) * root
    return tuple(x.astype(complex) for x in bands)


def build_schedule(params: QubitBosonParams) -> SegmentSchedule:
    """Two-pointer schedule of +/-V_0 per step, as bands; a repeated step shares its Segment."""
    dim = FockSpace(params.cutoff).dim
    shared = {}
    for step in dict.fromkeys(params.segments):  # each distinct step once
        v0 = _branch_bands(step.alpha, params.beta, step.gamma, dim)
        shared[step] = Segment(step.duration, (v0, tuple(-x for x in v0)))
    return SegmentSchedule(2, dim, tuple(shared[step] for step in params.segments))

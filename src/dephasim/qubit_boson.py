"""Qubit coupled to a single bosonic mode through a step-switched interaction.

The Hamiltonian is sigma_z (x) [alpha(t) a^dag + alpha*(t) a + beta a^dag a
+ gamma(t)] with alpha piecewise constant, which is pure dephasing in the
sigma_z basis: the two pointer states drive the mode with opposite-sign
generators V_{0/1} = +/- (alpha a^dag + alpha* a + beta n + gamma). Because
the generators differ only by sign, w_0(t) = w_1(t)^dag at all times.

For one constant-alpha interval the conditional propagator has a closed form:
a displacement whose amplitude circulates with the free mode rotation, a
scalar phase, and the bare rotation,

    w_branch(t) = e^{i chi} D(lam(t)) e^{i phi(t)} e^{-/+ i beta n t},
    lam(t) = (alpha/beta)(e^{-/+ i beta t} - 1),
    phi(t) = -/+ (|alpha|^2/beta^2) sin(beta t).

The scalar prefactor chi = +/- |alpha|^2 t / beta follows from completing the
square in the generator (V = D (beta n) D^dag -/+ |alpha|^2/beta up to sign);
it cancels from every plotted quantity, so the closed form is exposed both
with and without it. Production propagators always come from the direct
segment exponentials in the schedule engine; the closed form serves as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dephasing import Segment, SegmentSchedule
from .fock import FockSpace, annihilation, displacement, number_op
from .linalg import dagger

__all__ = [
    "AlphaSegment",
    "QubitBosonParams",
    "build_schedule",
    "branch_generator",
    "analytic_propagator_piece",
]


@dataclass(frozen=True)
class AlphaSegment:
    """One step of the drive: duration, linear-coupling amplitude, scalar offset."""

    duration: float
    alpha: complex
    gamma: float = 0.0

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError(f"segment duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class QubitBosonParams:
    """Step-function drive parameters for the qubit-mode model."""

    beta: float
    segments: tuple[AlphaSegment, ...]
    cutoff: int

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("beta must be nonzero (closed forms divide by it)")
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("at least one drive segment is required")

    @property
    def max_alpha_over_beta(self) -> float:
        return max(abs(s.alpha) / abs(self.beta) for s in self.segments)


def branch_generator(
    alpha: complex, beta: float, gamma: float, space: FockSpace, branch: int
) -> np.ndarray:
    """Environment generator V_branch = +/- (alpha a^dag + alpha* a + beta n + gamma)."""
    if branch not in (0, 1):
        raise ValueError(f"branch must be 0 or 1, got {branch}")
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


def analytic_propagator_piece(
    alpha: complex,
    beta: float,
    t: float,
    branch: int,
    space: FockSpace,
    *,
    exact_phase: bool = False,
) -> np.ndarray:
    """Closed-form single-segment propagator for one branch.

    Without ``exact_phase`` this is the displacement/phase/rotation product
    quoted in the module docstring, which matches the direct exponential
    exp(-i V_branch t) up to the global phase chi = +/- |alpha|^2 t / beta;
    with ``exact_phase=True`` that factor is included and the match is exact.
    Reliable on the lower block of the space away from the truncation corner.
    """
    if branch not in (0, 1):
        raise ValueError(f"branch must be 0 or 1, got {branch}")
    if beta == 0:
        raise ValueError("beta must be nonzero")
    sign = 1.0 if branch == 0 else -1.0
    levels = np.arange(space.dim)
    rotation = np.exp(-1j * sign * beta * levels * t)
    if alpha == 0:
        return np.diag(rotation)
    lam = (alpha / beta) * (np.exp(-1j * sign * beta * t) - 1.0)
    phi = -sign * (abs(alpha) ** 2 / beta**2) * math.sin(beta * t)
    piece = np.exp(1j * phi) * displacement(lam, space) * rotation[np.newaxis, :]
    if exact_phase:
        piece = piece * np.exp(1j * sign * abs(alpha) ** 2 * t / beta)
    return piece

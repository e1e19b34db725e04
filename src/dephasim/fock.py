"""Truncated single-mode bosonic environment.

Operators and states live in the number basis |0>, ..., |M-1> of a FockSpace
with cutoff M. Constructors renormalize on the truncated basis, so returned
density matrices have unit trace exactly; the probability mass removed by the
truncation is recorded on the state as ``truncated_mass``.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffCapExceeded, InvalidArgument, NotNormalizedError
from .linalg import TRACE_TOL, _factor, require_hermitian

__all__ = [
    "FockSpace",
    "EnvDensity",
    "annihilation",
    "number_op",
    "fock_state",
    "thermal_state",
    "coherent_amplitudes",
    "coherent_state",
    "env_from_matrix",
    "suggest_cutoff",
]

CUTOFF_LADDER = (16, 32, 64, 128, 256, 512)
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


@dataclass(frozen=True)
class FockSpace:
    """Number basis |0>..|cutoff-1> of a single bosonic mode."""

    cutoff: int

    def __post_init__(self):
        if not isinstance(self.cutoff, int) or self.cutoff < 2:
            raise InvalidArgument(f"cutoff must be an integer >= 2, got {self.cutoff!r}")

    @property
    def dim(self) -> int:
        return self.cutoff


@dataclass(frozen=True, eq=False)
class EnvDensity:
    """Environment density matrix on a truncated Fock space.

    ``truncated_mass`` is the probability mass that the cutoff removed from
    the untruncated state before renormalization (zero when exact).
    ``factor`` is the d x r psd_factor A of the matrix (A A^dag = matrix);
    its eigh (a diagonal read-off for thermal and Fock states) is the PSD check.
    """

    space: FockSpace
    matrix: np.ndarray
    truncated_mass: float = field(default=0.0)
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = require_hermitian(self.matrix, what="environment state")
        if arr.shape != (self.space.dim, self.space.dim):
            raise InvalidArgument(
                f"state has shape {arr.shape}, expected {(self.space.dim,) * 2}"
            )
        tr = float(np.trace(arr).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotNormalizedError(f"state has trace {tr!r}, expected 1 within {TRACE_TOL}")
        for name, value in (("matrix", arr.copy()), ("factor", _factor(arr))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.space.dim


def annihilation(space: FockSpace) -> np.ndarray:
    """Annihilation operator: <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1).astype(complex)


def number_op(space: FockSpace) -> np.ndarray:
    """Number operator diag(0, 1, ..., cutoff-1)."""
    return np.diag(np.arange(space.dim, dtype=float)).astype(complex)


def fock_state(n: int, space: FockSpace) -> EnvDensity:
    """Pure number state |n><n|."""
    if not 0 <= n < space.dim:
        raise InvalidArgument(f"level {n} outside the truncated basis 0..{space.dim - 1}")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[n, n] = 1.0
    return EnvDensity(space, mat)


def thermal_state(theta: float, space: FockSpace) -> EnvDensity:
    """Gibbs state of the free mode at dimensionless temperature theta.

    Populations are p_n proportional to exp(-n/theta), renormalized over the
    truncated basis. theta = 0 returns the exact vacuum.
    """
    if theta < 0:
        raise InvalidArgument(f"temperature must be >= 0, got {theta}")
    if theta == 0:
        return fock_state(0, space)
    q = math.exp(-1.0 / theta)
    weights = q ** np.arange(space.dim, dtype=float)
    probs = weights / weights.sum()
    # untruncated geometric tail sum_{n >= M} (1-q) q^n = q^M
    return EnvDensity(space, np.diag(probs).astype(complex), truncated_mass=q**space.dim)


def coherent_amplitudes(zeta: complex, space: FockSpace) -> np.ndarray:
    """Number-basis amplitudes of |zeta>, renormalized after truncation."""
    _warn_if_beyond_reach(abs(zeta), space, "coherent state amplitude")
    n = np.arange(space.dim)
    # amp[n] = e^{-|z|^2/2} z^n / sqrt(n!), built multiplicatively to avoid factorials
    steps = np.ones(space.dim, dtype=complex)
    steps[1:] = zeta / np.sqrt(n[1:].astype(float))
    amps = math.exp(-abs(zeta) * abs(zeta) / 2) * np.cumprod(steps)
    norm = np.linalg.norm(amps)
    return amps / norm


def coherent_state(zeta: complex, space: FockSpace) -> EnvDensity:
    """Pure coherent state |zeta><zeta| on the truncated basis."""
    amps = coherent_amplitudes(zeta, space)
    raw_norm_sq = _untruncated_overlap(zeta, space)
    return EnvDensity(space, np.outer(amps, amps.conj()), truncated_mass=1.0 - raw_norm_sq)


def _untruncated_overlap(zeta: complex, space: FockSpace) -> float:
    """Probability mass of |zeta> inside the truncated basis."""
    x = abs(zeta) * abs(zeta)  # not ** 2, which raises OverflowError past ~1e154
    if x == 0.0:
        return 1.0
    terms = np.cumprod(np.concatenate(([1.0], x / np.arange(1, space.dim, dtype=float))))
    return float(math.exp(-x) * terms.sum())


def env_from_matrix(matrix: np.ndarray, *, truncated_mass: float = 0.0) -> EnvDensity:
    """Wrap an explicit density matrix, inferring the space from its dimension."""
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidArgument(f"expected a square matrix, got shape {arr.shape}")
    return EnvDensity(FockSpace(arr.shape[0]), arr, truncated_mass=truncated_mass)


def _beyond_reach(reach: float, dim: int) -> bool:
    """The reach rule |z|^2 <= dim/4, with a relative slack of 1e-12 for roundoff.

    The preset drive |alpha/beta| = 1/sqrt(2) gives (2|alpha/beta|)^2 =
    2.0000000000000004 for dim/4 = 2, which the rule means to accept. The
    square is a float product, which overflows to inf where ** would raise.
    """
    return reach * reach > dim / 4 * (1 + 1e-12)


def _warn_if_beyond_reach(amp: float, space: FockSpace, what: str) -> None:
    if _beyond_reach(amp, space.dim):
        warnings.warn(
            f"{what} |z|^2 = {amp * amp:.3g} exceeds cutoff/4 = {space.dim / 4:.3g}; "
            "truncation errors may be significant",
            stacklevel=_caller_outside_package(),
        )


def _caller_outside_package() -> int:
    """warnings.warn stacklevel of the first frame outside this package.

    The warning then points at the user's call (coherent_state, run_sweep,
    convergence_report, ...) however deep inside the package it was raised.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def suggest_cutoff(
    *,
    theta: float = 0.0,
    coherent_amp: float = 0.0,
    fock_level: int = 0,
    max_displacement: float = 0.0,
    tol: float = 1e-12,
) -> int:
    """Smallest cutoff in the doubling ladder 16..512 meeting the truncation policy.

    Requirements at cutoff M: the untruncated thermal tail mass exp(-M/theta)
    is below tol, the total displacement reach satisfies |z|^2 <= M/4, and any
    initial number state sits in the lower half of the basis.
    """
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    reach = abs(coherent_amp) + abs(max_displacement)
    for m in CUTOFF_LADDER:
        if theta > 0 and math.exp(-m / theta) >= tol:
            continue
        if _beyond_reach(reach, m):
            continue
        if fock_level + 1 > m // 2:
            continue
        return m
    raise CutoffCapExceeded(
        f"no cutoff <= {CUTOFF_LADDER[-1]} satisfies tail tolerance {tol} and "
        f"displacement reach {reach * reach:.3g}"
    )

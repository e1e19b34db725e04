"""Truncated single-mode bosonic environment.

Operators and states live in the number basis |0>, ..., |M-1> of a FockSpace
with cutoff M. Constructors renormalize on the truncated basis, so returned
density matrices have unit trace exactly; the probability mass removed by the
truncation is recorded on the state as ``truncated_mass``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffCapExceeded, InvalidArgument, NonFiniteError, NotNormalizedError
from .linalg import TRACE_TOL, _factor, require_hermitian

__all__ = [
    "FockSpace",
    "EnvDensity",
    "fock_state",
    "thermal_state",
    "coherent_amplitudes",
    "coherent_state",
    "env_from_matrix",
    "suggest_cutoff",
]

CUTOFF_LADDER = (16, 32, 64, 128, 256, 512)
CUTOFF_TAIL = 1e-12  # largest thermal tail mass exp(-M/theta) that suggest_cutoff accepts


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
    ``factor`` is a d x r factor A of the matrix (A A^dag = matrix). A pure
    state from coherent_state or fock_state carries its unit amplitude column
    as A and the outer product of that column as the matrix, so it is PSD by
    construction and costs no eigensolve. Any other matrix takes psd_factor's
    eigh (a diagonal read-off for a thermal state), which is its PSD check.
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
        factor = self.__dict__.get("factor")  # preset by _pure_state only
        if factor is None:
            factor = _factor(arr)
        for name, value in (("matrix", arr.copy()), ("factor", factor)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.space.dim


def fock_state(n: int, space: FockSpace) -> EnvDensity:
    """Pure number state |n><n|."""
    if not 0 <= n < space.dim:
        raise InvalidArgument(f"level {n} outside the truncated basis 0..{space.dim - 1}")
    level = np.zeros(space.dim, dtype=complex)
    level[n] = 1.0
    return _pure_state(level, space)


def _pure_state(amps: np.ndarray, space: FockSpace, truncated_mass: float = 0.0) -> EnvDensity:
    """EnvDensity of |psi><psi| for unit amplitudes amps, with amps[:, None] as its factor.

    The matrix np.outer(amps, amps^*) passes the checks of any other state;
    only the eigensolve of psd_factor is skipped.
    """
    state = object.__new__(EnvDensity)
    object.__setattr__(state, "factor", amps[:, None])
    state.__init__(space, np.outer(amps, amps.conj()), truncated_mass)
    return state


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
    """Number-basis amplitudes of |zeta>, renormalized after truncation.

    The renormalization cancels the prefactor e^{-|zeta|^2/2}, so it is
    never formed: _amplitudes_from_peak scales the amplitudes to a largest
    modulus of 1, and every finite zeta gives a unit vector. A NaN or
    infinite zeta raises NonFiniteError before any arithmetic.
    """
    if not np.isfinite(zeta):
        raise NonFiniteError(f"coherent state amplitude {zeta!r} is not finite")
    amps, _ = _amplitudes_from_peak(zeta, space.dim)
    return amps / np.linalg.norm(amps)


def coherent_state(zeta: complex, space: FockSpace) -> EnvDensity:
    """Pure coherent state |zeta><zeta| on the truncated basis, with its amplitudes as factor."""
    amps = coherent_amplitudes(zeta, space)
    raw_norm_sq = _untruncated_overlap(zeta, space)
    return _pure_state(amps, space, truncated_mass=1.0 - raw_norm_sq)


def _amplitudes_from_peak(zeta: complex, dim: int) -> tuple[np.ndarray, int]:
    """(v, peak): v_n = zeta^n / sqrt(n!) over n < dim, divided by |v_peak|, the largest.

    The ratio v_n / v_{n-1} = zeta / sqrt(n) has modulus at least 1 up to
    n = |zeta|^2 and below 1 past it, so peak = floor(|zeta|^2), capped at
    dim - 1. v is built outward from v_peak = (zeta / |zeta|)^peak by ratios
    of modulus at most 1: no entry overflows and the largest is 1. zeta = 0
    gives peak 0 and v = e_0; a NaN or infinite zeta gives NaN entries.
    """
    r = abs(zeta)
    x = r * r  # not ** 2, which raises OverflowError past ~1e154
    peak = math.floor(x) if x < dim else dim - 1
    root = np.sqrt(np.arange(1, dim, dtype=float))
    up = np.cumprod(zeta / root[peak:])
    if not peak:
        return np.concatenate(([1.0], up)), peak
    unit = zeta / r
    # v_{n-1} / v_n = sqrt(n) / zeta as sqrt(n) / r * conj(zeta / r): a complex
    # division by zeta would form |zeta|^2, which overflows past ~1e154
    down = np.cumprod((root[peak - 1 :: -1] / r) * unit.conjugate())[::-1]
    return np.concatenate((down, [1.0], up)) * unit**peak, peak


def _untruncated_overlap(zeta: complex, space: FockSpace) -> float:
    """Probability mass e^{-|zeta|^2} sum_{n < dim} |zeta|^{2n} / n! of |zeta> inside the basis.

    It is |<peak|zeta>|^2 ||v||^2 for the v of _amplitudes_from_peak; the
    first factor is formed from its logarithm, so it underflows to 0 (a mass
    of 0 inside) rather than to 0 * inf when |zeta|^2 overflows.
    """
    v, peak = _amplitudes_from_peak(zeta, space.dim)
    r = abs(zeta)
    log_peak = 2 * peak * math.log(r) - r * r - math.lgamma(peak + 1) if peak else -r * r
    return math.exp(log_peak) * float(np.vdot(v, v).real)


def env_from_matrix(matrix: np.ndarray) -> EnvDensity:
    """Wrap an explicit density matrix, inferring the space from its dimension."""
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidArgument(f"expected a square matrix, got shape {arr.shape}")
    return EnvDensity(FockSpace(arr.shape[0]), arr)


def _beyond_reach(reach: float, dim: int) -> bool:
    """The reach rule |z|^2 <= dim/4, with a relative slack of 1e-12 for roundoff.

    The preset drive |alpha/beta| = 1/sqrt(2) gives (2|alpha/beta|)^2 =
    2.0000000000000004 for dim/4 = 2, which the rule means to accept. The
    square is a float product, which overflows to inf where ** would raise.
    """
    return reach * reach > dim / 4 * (1 + 1e-12)


def suggest_cutoff(
    *,
    theta: float = 0.0,
    fock_level: int = 0,
    max_displacement: float = 0.0,
) -> int:
    """Smallest cutoff in the doubling ladder 16..512 meeting the truncation policy.

    Requirements at cutoff M: the untruncated thermal tail mass exp(-M/theta)
    is below CUTOFF_TAIL, the displacement reach z = max_displacement (which
    holds the |zeta| of a coherent initial state) satisfies |z|^2 <= M/4, and
    any initial number state sits in the lower half of the basis. A run that
    needs a tighter tail passes an explicit cutoff.
    """
    reach = abs(max_displacement)
    for m in CUTOFF_LADDER:
        if theta > 0 and math.exp(-m / theta) >= CUTOFF_TAIL:
            continue
        if _beyond_reach(reach, m):
            continue
        if fock_level + 1 > m // 2:
            continue
        return m
    raise CutoffCapExceeded(
        f"no cutoff <= {CUTOFF_LADDER[-1]} satisfies tail tolerance {CUTOFF_TAIL} and "
        f"displacement reach {reach * reach:.3g}"
    )

"""Separability criteria and the qubit-environment entanglement measure.

For joint states produced from a product initial state with a pure system
state, separability at time t is equivalent to a finite set of conditions on
the factored representation:

  type 1: all conditional environment states agree, R_ii(t) = R_jj(t);
  type 2: the products w_i w_j^dag all commute pairwise (absent for qubits).

Violation of any one condition certifies entanglement. For a qubit the single
type-1 condition is also quantified by the measure

    E(t) = 4 |c_0|^2 |c_1|^2 (1 - F(R_00, R_11)),

which vanishes exactly on separable states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dephasing import ConditionalPropagatorSet, JointStateBlocks
from .errors import DimensionMismatch, NotQubit
from .linalg import dagger, fidelity, frobenius, trace_distance

__all__ = [
    "Type1Residual",
    "Type2Residual",
    "SeparabilityVerdict",
    "qee_measure",
    "measure_from_fidelity",
    "type1_residuals",
    "type2_residuals",
    "separability_verdict",
]


def measure_from_fidelity(c, f: float) -> float:
    """4|c_0|^2|c_1|^2 (1 - F), clamped to [0, 1] to absorb ~1e-12 roundoff."""
    amps = np.asarray(c, dtype=complex).reshape(-1)
    if amps.size != 2:
        raise NotQubit(f"measure requires 2 pointer amplitudes, got {amps.size}")
    raw = 4.0 * abs(amps[0]) ** 2 * abs(amps[1]) ** 2 * (1.0 - f)
    return float(min(max(raw, 0.0), 1.0))


def qee_measure(c, rho00, rho11) -> float:
    """Entanglement between a qubit and its environment from the conditional states.

    Zero exactly when the two conditional environment states coincide, and
    bounded by the initial-coherence prefactor 4|c_0|^2|c_1|^2.
    """
    r0 = np.asarray(rho00, dtype=complex)
    r1 = np.asarray(rho11, dtype=complex)
    if r0.shape != r1.shape:
        raise DimensionMismatch(
            f"conditional states differ in shape: {r0.shape} vs {r1.shape}"
        )
    return measure_from_fidelity(c, fidelity(r0, r1))


@dataclass(frozen=True)
class Type1Residual:
    """Trace distance between conditional states R_ii and R_jj.

    The pairs (0, j) form the independent set; the remaining pairs are implied
    by them and flagged as derived.
    """

    i: int
    j: int
    residual: float
    independent: bool

    def describe(self) -> str:
        return f"type1({self.i},{self.j}) residual {self.residual:.3e}"


@dataclass(frozen=True)
class Type2Residual:
    """Frobenius norm of the commutator [w_i w_j^dag, w_k w_l^dag]."""

    i: int
    j: int
    k: int
    l: int
    residual: float

    def describe(self) -> str:
        return (
            f"type2 [w{self.i} w{self.j}^+, w{self.k} w{self.l}^+] "
            f"residual {self.residual:.3e}"
        )


def type1_residuals(blocks: JointStateBlocks) -> list[Type1Residual]:
    """Pairwise distances between conditional environment states.

    Zero residuals on every pair mean the first-type separability conditions
    hold at this time.
    """
    n = blocks.system_dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            d = trace_distance(blocks.blocks[i, i], blocks.blocks[j, j])
            out.append(Type1Residual(i=i, j=j, residual=d, independent=(i == 0)))
    return out


def type2_residuals(props: ConditionalPropagatorSet) -> list[Type2Residual]:
    """Commutator norms over the independent second-type conditions.

    The independent set pairs w_i w_0^dag against w_j w_0^dag for
    1 <= i < j <= N-1, matching the (N-1)(N-2)/2 count; for a qubit the list
    is empty because conditions of this type do not exist.
    """
    n = props.system_dim
    if n < 3:
        return []
    w0d = dagger(props.w[0])
    products = [props.w[i] @ w0d for i in range(1, n)]
    out = []
    for a in range(len(products)):
        for b in range(a + 1, len(products)):
            comm = products[a] @ products[b] - products[b] @ products[a]
            out.append(
                Type2Residual(i=a + 1, j=0, k=b + 1, l=0, residual=frobenius(comm))
            )
    return out


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the criteria scan at one time point."""

    entangled: bool
    witness: Type1Residual | Type2Residual | None = None

    def describe(self) -> str:
        if not self.entangled:
            return "separable"
        return f"entangled via {self.witness.describe()}"


def separability_verdict(
    blocks: JointStateBlocks,
    props: ConditionalPropagatorSet,
    tol: float = 1e-8,
) -> SeparabilityVerdict:
    """Entangled iff any criterion residual exceeds tol.

    Valid only for states evolved from a product initial state with a pure
    system state (the iff direction fails otherwise). The witness is the
    largest violating residual.
    """
    violations: list[Type1Residual | Type2Residual] = [
        r for r in type1_residuals(blocks) if r.residual > tol
    ]
    violations += [r for r in type2_residuals(props) if r.residual > tol]
    if not violations:
        return SeparabilityVerdict(entangled=False)
    worst = max(violations, key=lambda r: r.residual)
    return SeparabilityVerdict(entangled=True, witness=worst)

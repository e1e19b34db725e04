"""Separability criteria and the qubit-environment entanglement measure.

For joint states produced from a product initial state with a pure system
state, separability at time t is equivalent to a finite set of conditions on
the factored representation:

  type 1: all conditional environment states agree, R_ii(t) = R_jj(t);
  type 2: the products w_i w_j^dag all commute pairwise (absent for qubits).

Only pointers with c_i != 0 enter the joint state, so the conditions run over
those alone; a set with no condition left reads as satisfied. Violation of
any one condition certifies entanglement. For a qubit the single
type-1 condition is also quantified by the measure

    E(t) = 4 |c_0|^2 |c_1|^2 (1 - F(R_00, R_11)),

which vanishes exactly on separable states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dephasing import ConditionalPropagatorSet, JointStateBlocks
from .errors import DimensionMismatch, NotQubit
from .linalg import dagger, fidelity, trace_distance

__all__ = [
    "Type1Residual",
    "Type2Residual",
    "SeparabilityVerdict",
    "qee_measure",
    "measure_from_fidelity",
    "supported_pointers",
    "type1_residuals",
    "type2_norms",
    "type2_residuals",
    "separability_verdict",
]


def measure_from_fidelity(c, f):
    """4|c_0|^2|c_1|^2 (1 - F), clamped to [0, 1] to absorb ~1e-12 roundoff.

    f is one fidelity, or an array of them for an array of measures. A zero
    prefactor times F - 1 > 0 is -0.0, which the clamp keeps; it returns +0.0.
    """
    amps = np.asarray(c, dtype=complex).reshape(-1)
    if amps.size != 2:
        raise NotQubit(f"measure requires 2 pointer amplitudes, got {amps.size}")
    prefactor = 4.0 * abs(amps[0]) ** 2 * abs(amps[1]) ** 2
    return np.clip(prefactor * (1.0 - np.asarray(f)), 0.0, 1.0) + 0.0


def qee_measure(c, rho00, rho11) -> float:
    """Entanglement between a qubit and its environment from the conditional states.

    Zero exactly when the two conditional environment states coincide, and
    bounded by the initial-coherence prefactor 4|c_0|^2|c_1|^2.
    """
    r0 = np.asarray(rho00, dtype=complex)
    r1 = np.asarray(rho11, dtype=complex)
    if r0.shape != r1.shape:
        raise DimensionMismatch(f"conditional states differ in shape: {r0.shape} vs {r1.shape}")
    return measure_from_fidelity(c, fidelity(r0, r1))


@dataclass(frozen=True)
class Type1Residual:
    """Trace distance between conditional states R_ii and R_jj.

    The pairs (r, j), r the first pointer with c_r != 0, form the independent
    set; the remaining pairs are implied by them and flagged as derived.
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


def supported_pointers(c) -> list[int]:
    """Indices i with c_i != 0, the pointers the separability criteria test."""
    return [i for i, ci in enumerate(c) if ci != 0]


def type1_residuals(blocks: JointStateBlocks) -> list[Type1Residual]:
    """Pairwise distances between the conditional states of pointers with c_i != 0.

    Zero residuals on every pair (or no pair at all) mean the first-type
    separability conditions hold at this time.
    """
    on = supported_pointers(blocks.c)
    out = []
    for i, j in combinations(on, 2):
        d = trace_distance(blocks.blocks[i, i], blocks.blocks[j, j])
        out.append(Type1Residual(i=i, j=j, residual=d, independent=(i == on[0])))
    return out


def type2_norms(w, pointers) -> dict[tuple[int, int], np.ndarray]:
    """{(a, b): ||[P_a, P_b]||_F} with P_a = w_a w_r^dag and r = pointers[0].

    The pairs a < b of pointers[1:] are the independent second-type
    conditions among the listed pointers; fewer than three pointers have
    none. w is indexed by pointer, each w_i a d x d propagator or a (T, d, d)
    stack of them, also in any common frame V^dag w_i, which leaves every
    norm unchanged.
    """
    if len(pointers) < 3:
        return {}
    ref_dag = dagger(w[pointers[0]])
    p = {a: w[a] @ ref_dag for a in pointers[1:]}
    return {
        (a, b): np.linalg.norm(p[a] @ p[b] - p[b] @ p[a], axis=(-2, -1))
        for a, b in combinations(pointers[1:], 2)
    }


def _type2_residuals(w, pointers) -> list[Type2Residual]:
    return [
        Type2Residual(i=a, j=pointers[0], k=b, l=pointers[0], residual=float(norm))
        for (a, b), norm in type2_norms(w, pointers).items()
    ]


def type2_residuals(props: ConditionalPropagatorSet) -> list[Type2Residual]:
    """Commutator norms over the independent second-type conditions.

    The independent set pairs w_i w_0^dag against w_j w_0^dag for
    1 <= i < j <= N-1, matching the (N-1)(N-2)/2 count; for a qubit the list
    is empty because conditions of this type do not exist.
    """
    return _type2_residuals(props.w, range(props.system_dim))


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
    system state (the iff direction fails otherwise). Both criteria run over
    the pointers with c_i != 0; type-2 takes the first of them as its
    reference. The witness is the largest violating residual.
    """
    residuals = type1_residuals(blocks)
    residuals += _type2_residuals(props.w, supported_pointers(blocks.c))
    violations = [r for r in residuals if r.residual > tol]
    if not violations:
        return SeparabilityVerdict(entangled=False)
    worst = max(violations, key=lambda r: r.residual)
    return SeparabilityVerdict(entangled=True, witness=worst)

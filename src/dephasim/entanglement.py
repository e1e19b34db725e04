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

which vanishes exactly on separable states. sweep.evaluate reports all of
them per time (type1_max, type2_max, entanglement) from the kernels here and
in linalg; type2_residuals is the reference for one set of propagators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NotQubit
from .linalg import dagger

__all__ = [
    "Type2Residual",
    "measure_from_fidelity",
    "type2_norms",
    "type2_residuals",
]


def measure_from_fidelity(c, f):
    """4|c_0|^2|c_1|^2 (1 - F), clamped to [0, 1] to absorb the fidelity's roundoff of a few eps.

    f is one fidelity, or an array of them for an array of measures. A zero
    prefactor times F - 1 > 0 is -0.0, which the clamp keeps; it returns +0.0.
    """
    amps = np.asarray(c, dtype=complex).reshape(-1)
    if amps.size != 2:
        raise NotQubit(f"measure requires 2 pointer amplitudes, got {amps.size}")
    prefactor = 4.0 * abs(amps[0]) ** 2 * abs(amps[1]) ** 2
    return np.clip(prefactor * (1.0 - np.asarray(f)), 0.0, 1.0) + 0.0


@dataclass(frozen=True)
class Type2Residual:
    """Frobenius norm of the commutator [w_i w_j^dag, w_k w_l^dag]."""

    i: int
    j: int
    k: int
    l: int
    residual: float


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


def type2_residuals(w) -> list[Type2Residual]:
    """Commutator norms over the independent second-type conditions.

    w = (w_0, ..., w_{N-1}) are the propagators at one time. The independent
    set pairs w_i w_0^dag against w_j w_0^dag for 1 <= i < j <= N-1, matching
    the (N-1)(N-2)/2 count; for a qubit the list is empty because conditions
    of this type do not exist.
    """
    return [
        Type2Residual(i=a, j=0, k=b, l=0, residual=float(norm))
        for (a, b), norm in type2_norms(w, range(len(w))).items()
    ]

"""Shared test helpers: random operators and oracles the package does not ship."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from dephasim.errors import ConvergenceFailure
from dephasim.linalg import as_operator, dagger, require_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, dim):
    a = random_complex(rng, (dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim):
    g = random_complex(rng, (dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex(rng, (dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_density(rng, dim):
    v = random_complex(rng, dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def expm(m):
    """Matrix exponential e^M of a general square matrix; the test oracle for propagators."""
    return scipy.linalg.expm(as_operator(m))


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition M = U diag(w) U^dag, eigenvalues ascending, U unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ dagger(self.eigenvectors)


def hermitian_eig(m, *, herm_tol: float = 1e-9) -> HermitianEigen:
    """Validated eigendecomposition of a Hermitian matrix."""
    arr = require_hermitian(m, herm_tol)
    try:
        w, u = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    return HermitianEigen(w, u)


def phase1_coherence_oracle(theta: float, t: float) -> float:
    """Normalized qubit coherence for an undriven interval and a thermal mode.

    With alpha = 0 the conditional propagators are counter-rotating number
    phases, so |Tr(e^{-2 i n t} rho_th)| sums a geometric series:
    (1 - q)/|1 - q e^{-2 i t}| with q = e^{-1/theta} (hbar = beta = 1).
    Zero temperature gives 1 for all t.
    """
    if theta < 0:
        raise ValueError(f"temperature must be >= 0, got {theta}")
    if theta == 0:
        return 1.0
    q = math.exp(-1.0 / theta)
    return float(abs((1.0 - q) / (1.0 - q * np.exp(-2j * t))))

"""Dense complex linear algebra on small operator matrices.

Everything here takes and returns plain numpy arrays (complex128, square).
Matrices in this package stay below dimension ~512, so direct LAPACK
factorizations are always the right tool; there are no sparse or iterative
paths. All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
)

__all__ = [
    "dagger",
    "frobenius",
    "as_operator",
    "hermiticity_residual",
    "require_hermitian",
    "psd_factor",
    "sqrtm_psd",
    "fidelity_of_factors",
    "fidelity",
    "fidelity_given_sqrt",
    "trace_distance_of_factors",
    "trace_distance",
    "partial_transpose",
    "negativity",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def as_operator(m) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return arr


def hermiticity_residual(m: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part residual ||M - M^dag||_F."""
    return frobenius(m - dagger(m))


def require_hermitian(m, tol: float = 1e-9, what: str = "matrix") -> np.ndarray:
    """Validate Hermiticity relative to max(1, ||M||_F) and return the array."""
    arr = as_operator(m)
    res = hermiticity_residual(arr)
    if res > tol * max(1.0, frobenius(arr)):
        raise NotHermitianError(f"{what} is not Hermitian (residual {res:.3e})")
    return arr


def _psd_eigh(m, clamp: float, herm_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a Hermitian M with no eigenvalue below -clamp.

    Raises NotHermitianError, NotPSDError, or ConvergenceFailure when LAPACK
    does not converge.
    """
    arr = require_hermitian(m, herm_tol)
    try:
        w, u = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    if w[0] < -clamp:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -{clamp:.1e}")
    return w, u


RANK_CUT = 1e-15  # psd_factor drops eigenvalues at or below this times the largest


def psd_factor(m, *, clamp: float = 1e-10, herm_tol: float = 1e-9) -> np.ndarray:
    """A = V_r sqrt(p_r) (d x r) with A A^dag = M for a Hermitian PSD M, from one eigh.

    Keeps the eigenpairs above RANK_CUT times the largest eigenvalue;
    eigenvalues below -clamp raise NotPSDError.
    """
    w, u = _psd_eigh(m, clamp, herm_tol)
    keep = w > RANK_CUT * w[-1]
    return u[:, keep] * np.sqrt(w[keep])


def sqrtm_psd(m, *, clamp: float = 1e-10, herm_tol: float = 1e-9) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-clamp, 0) are treated as roundoff and clamped to zero;
    anything below -clamp raises NotPSDError.
    """
    w, u = _psd_eigh(m, clamp, herm_tol)
    s = (u * np.sqrt(np.clip(w, 0.0, None))) @ dagger(u)
    return (s + dagger(s)) / 2


def fidelity_given_sqrt(sqrt_rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Fidelity where the PSD square root of the first state is already known.

    No validation is performed; callers are expected to have produced
    sqrt_rho1 with sqrtm_psd (or an exact equivalent).
    """
    m = sqrt_rho1 @ rho2 @ sqrt_rho1
    w = np.linalg.eigvalsh((m + dagger(m)) / 2)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def fidelity_of_factors(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity of a a^dag and b b^dag: (sum of singular values of a^dag b)^2.

    An r1 x r2 SVD, with no square roots of roundoff-level eigenvalues.
    """
    return float(np.sum(np.linalg.svd(dagger(a) @ b, compute_uv=False)) ** 2)


def fidelity(rho1, rho2, *, trace_tol: float = 1e-8, psd_clamp: float = 1e-10) -> float:
    """Uhlmann fidelity F(rho1, rho2) = [Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    Both inputs must be Hermitian, PSD within the clamp window, and have unit
    trace within trace_tol. Evaluated as fidelity_of_factors of their psd_factor.
    """
    r1 = require_hermitian(rho1, what="rho1")
    r2 = require_hermitian(rho2, what="rho2")
    if r1.shape != r2.shape:
        raise DimensionMismatch(f"state dimensions differ: {r1.shape} vs {r2.shape}")
    for name, r in (("rho1", r1), ("rho2", r2)):
        tr = float(np.trace(r).real)
        if abs(tr - 1.0) > trace_tol:
            raise NotNormalizedError(f"{name} has trace {tr!r}, expected 1 within {trace_tol}")
    return fidelity_of_factors(
        psd_factor(r1, clamp=psd_clamp), psd_factor(r2, clamp=psd_clamp)
    )


def trace_distance_of_factors(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||a a^dag - b b^dag||_1 of factored states.

    When r1 + r2 < d, a and b are replaced by the column blocks of R in the
    reduced QR [a | b] = Q R, which leaves the spectrum of the difference
    unchanged and shrinks the eigenproblem to (r1 + r2) x (r1 + r2).
    """
    r1 = a.shape[1]
    if r1 + b.shape[1] < a.shape[0]:
        r = np.linalg.qr(np.hstack((a, b)), mode="r")
        a, b = r[:, :r1], r[:, r1:]
    w = np.linalg.eigvalsh(a @ dagger(a) - b @ dagger(b))
    return float(0.5 * np.sum(np.abs(w)))


def trace_distance(rho1, rho2, *, herm_tol: float = 1e-9) -> float:
    """Trace distance (1/2)||rho1 - rho2||_1 via eigenvalues of the difference."""
    r1 = require_hermitian(rho1, herm_tol, what="rho1")
    r2 = require_hermitian(rho2, herm_tol, what="rho2")
    if r1.shape != r2.shape:
        raise DimensionMismatch(f"state dimensions differ: {r1.shape} vs {r2.shape}")
    w = np.linalg.eigvalsh(r1 - r2)
    return float(0.5 * np.sum(np.abs(w)))


def partial_transpose(sigma, dim_sys: int, dim_env: int) -> np.ndarray:
    """Partial transpose over the system factor of a (dim_sys*dim_env)^2 matrix."""
    arr = as_operator(sigma)
    n = dim_sys * dim_env
    if arr.shape != (n, n):
        raise DimensionMismatch(
            f"matrix has shape {arr.shape}, expected ({n}, {n}) for dims "
            f"{dim_sys}x{dim_env}"
        )
    blocks = arr.reshape(dim_sys, dim_env, dim_sys, dim_env)
    return blocks.transpose(2, 1, 0, 3).reshape(n, n)


def negativity(sigma, dim_sys: int, dim_env: int, *, herm_tol: float = 1e-9) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over the system.

    A positive value certifies entanglement across the system/environment cut;
    zero is inconclusive (PPT misses bound entanglement).
    """
    pt = partial_transpose(sigma, dim_sys, dim_env)
    require_hermitian(sigma, herm_tol, what="sigma")
    w = np.linalg.eigvalsh(pt)
    return float(-np.sum(w[w < 0.0]))

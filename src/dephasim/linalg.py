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
    "negativity_of_factors",
    "negativity",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


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


RANK_CUT = 1e-15  # psd_factor drops eigenvalues at or below this times the largest
HERM_TOL = 1e-9  # largest hermiticity_residual of a matrix taken as Hermitian
PSD_CLAMP = 1e-10  # eigenvalues in [-PSD_CLAMP, 0) are roundoff; lower ones are not PSD
TRACE_TOL = 1e-8  # largest |Tr rho - 1| of a density matrix taken as normalized
NORM_TOL = 1e-10  # largest ||c|^2 - 1| of pointer amplitudes taken as normalized


def hermiticity_residual(m: np.ndarray) -> float:
    """Relative residual ||M - M^dag||_F / max(1, ||M||_F); NaN if both norms overflow."""
    with np.errstate(over="ignore"):  # an overflow gives a NaN residual, which callers reject
        return frobenius(m - dagger(m)) / max(1.0, frobenius(m))


def require_hermitian(m, *, what: str = "matrix") -> np.ndarray:
    """Validate that hermiticity_residual is at most HERM_TOL and return the array."""
    arr = as_operator(m)
    res = hermiticity_residual(arr)
    if not res <= HERM_TOL:  # not "> HERM_TOL": a NaN residual must fail too
        raise NotHermitianError(f"{what} is not Hermitian (residual {res:.3e})")
    return arr


def _psd_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a Hermitian M with no eigenvalue below -PSD_CLAMP.

    Raises NotHermitianError, NotPSDError, or ConvergenceFailure when LAPACK
    does not converge.
    """
    arr = require_hermitian(m)
    try:
        w, u = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    if w[0] < -PSD_CLAMP:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.1e}")
    return w, u


def psd_factor(m) -> np.ndarray:
    """A = V_r sqrt(p_r) (d x r) with A A^dag = M for a Hermitian PSD M, from one eigh.

    Keeps the eigenpairs above RANK_CUT times the largest eigenvalue;
    eigenvalues below -PSD_CLAMP raise NotPSDError.
    """
    w, u = _psd_eigh(m)
    keep = w > RANK_CUT * w[-1]
    return u[:, keep] * np.sqrt(w[keep])


def sqrtm_psd(m) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_CLAMP, 0) are treated as roundoff and clamped to
    zero; anything below -PSD_CLAMP raises NotPSDError.
    """
    w, u = _psd_eigh(m)
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


def fidelity_of_factors(a: np.ndarray, b: np.ndarray):
    """Fidelity of a a^dag and b b^dag: (sum of singular values of a^dag b)^2.

    An r1 x r2 SVD, with no square roots of roundoff-level eigenvalues. For
    (T, d, r) stacks of factors it returns the T fidelities as an array.
    """
    return np.sum(np.linalg.svd(dagger(a) @ b, compute_uv=False), axis=-1) ** 2


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity F(rho1, rho2) = [Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    Both inputs must be Hermitian, PSD within PSD_CLAMP, and have unit trace
    within TRACE_TOL. Evaluated as fidelity_of_factors of their psd_factor.
    """
    r1 = require_hermitian(rho1, what="rho1")
    r2 = require_hermitian(rho2, what="rho2")
    if r1.shape != r2.shape:
        raise DimensionMismatch(f"state dimensions differ: {r1.shape} vs {r2.shape}")
    for name, r in (("rho1", r1), ("rho2", r2)):
        tr = float(np.trace(r).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotNormalizedError(f"{name} has trace {tr!r}, expected 1 within {TRACE_TOL}")
    return fidelity_of_factors(psd_factor(r1), psd_factor(r2))


def trace_distance_of_factors(a: np.ndarray, b: np.ndarray):
    """Trace distance (1/2)||a a^dag - b b^dag||_1 of factored states.

    When r1 + r2 < d, a and b are replaced by the column blocks of R in the
    reduced QR [a | b] = Q R, which leaves the spectrum of the difference
    unchanged and shrinks the eigenproblem to (r1 + r2) x (r1 + r2). For
    (T, d, r) stacks of factors it returns the T distances as an array.
    """
    r1 = a.shape[-1]
    if r1 + b.shape[-1] < a.shape[-2]:
        r = np.linalg.qr(np.concatenate((a, b), axis=-1), mode="r")
        a, b = r[..., :r1], r[..., r1:]
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a @ dagger(a) - b @ dagger(b))), axis=-1)


def trace_distance(rho1, rho2) -> float:
    """Trace distance (1/2)||rho1 - rho2||_1 via eigenvalues of the difference."""
    r1 = require_hermitian(rho1, what="rho1")
    r2 = require_hermitian(rho2, what="rho2")
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


def _negative_sum(pt: np.ndarray):
    """Sum of |negative eigenvalues| of a Hermitian matrix or stack; +0.0 if there are none."""
    w = np.linalg.eigvalsh(pt)
    return np.sum(np.maximum(-w, 0.0), axis=-1) + 0.0  # -0.0 + 0.0 is +0.0


def negativity_of_factors(z: np.ndarray, dim_sys: int):
    """Negativity of sigma = Z Z^dag for Z = [c_0 Y_0; ...; c_{N-1} Y_{N-1}] (N d x r).

    The partial transpose over the system has blocks PT_ab = Z_b Z_a^dag.
    When N r < d, each Z_i is replaced by its column block of R in the
    reduced QR [Z_0 | ... | Z_{N-1}] = Q R, a common isometry that leaves the
    nonzero spectrum of the partial transpose unchanged and shrinks the
    eigenproblem from N d to N (N r). For (T, N d, r) stacks it returns the T
    negativities as an array.
    """
    r = z.shape[-1]
    d = z.shape[-2] // dim_sys
    if dim_sys * r < d:
        r_blocks = np.linalg.qr(np.concatenate(np.split(z, dim_sys, axis=-2), axis=-1), mode="r")
        z = np.concatenate(np.split(r_blocks, dim_sys, axis=-1), axis=-2)
        d = dim_sys * r
    blocks = (z @ dagger(z)).reshape(*z.shape[:-2], dim_sys, d, dim_sys, d)
    m = dim_sys * d
    return _negative_sum(np.swapaxes(blocks, -4, -2).reshape(*z.shape[:-2], m, m))


def negativity(sigma, dim_sys: int, dim_env: int) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over the system.

    A positive value certifies entanglement across the system/environment cut;
    zero (always +0.0) is inconclusive (PPT misses bound entanglement). This
    validates a formed joint state; sweeps call negativity_of_factors.
    """
    pt = partial_transpose(sigma, dim_sys, dim_env)
    require_hermitian(sigma, what="sigma")
    return float(_negative_sum(pt))

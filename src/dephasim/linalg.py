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
    "as_operator",
    "hermiticity_residual",
    "require_hermitian",
    "eigh",
    "psd_factor",
    "sqrtm_psd",
    "fidelity_of_factors",
    "fidelity",
    "fidelity_given_sqrt",
    "trace_distance_of_factors",
    "trace_distance",
    "negativity_of_factors",
    "negativity",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


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


def _bands(m: np.ndarray):
    """(diagonal, sub-, super-diagonal, whether diagonal, whether tridiagonal) by exact zeros."""
    if len(m) >= 3 and (m[0, -1] != 0 or m[-1, 0] != 0):  # neither: no bands read, no scan
        return None, None, None, False, False
    diag, sub, sup = np.diagonal(m), np.diagonal(m, -1), np.diagonal(m, 1)
    off = np.count_nonzero(m) - np.count_nonzero(diag)
    return diag, sub, sup, not off, off == np.count_nonzero(sub) + np.count_nonzero(sup)


def hermiticity_residual(m: np.ndarray) -> float:
    """Relative residual ||M - M^dag||_F / max(1, ||M||_F).

    A tridiagonal M - M^dag is zero off the three diagonals: both norms are taken on them.
    NaN, which callers reject, if both norms overflow or an entry is not finite.
    """
    diag, sub, sup, _, tridiagonal = _bands(m)
    if tridiagonal:
        m, adj = np.concatenate((diag, sub, sup)), np.concatenate((diag, sup, sub)).conj()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(m - (adj if tridiagonal else dagger(m))) / max(1.0, np.linalg.norm(m))


def require_hermitian(m, *, what: str = "matrix") -> np.ndarray:
    """Validate that hermiticity_residual is at most HERM_TOL and return the array."""
    arr = as_operator(m)
    res = hermiticity_residual(arr)
    if not res <= HERM_TOL:  # not "> HERM_TOL": a NaN residual must fail too
        raise NotHermitianError(f"{what} is not Hermitian (residual {res:.3e})")
    return arr


@np.errstate(over="ignore", invalid="ignore")
def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues w and eigenvectors u of the Hermitian part H = (m + m^dag)/2.

    Structure is read off exact-zero counts. An exactly diagonal m gives the
    diagonal of H, diag.real, in its own order, and u None: the identity, which
    callers neither form nor multiply. Otherwise w ascends. A tridiagonal m is
    gauged to the real symmetric T = Phi^dag H Phi, where the diagonal unitary
    Phi takes its phases from the sub-diagonal s = (sub + conj(sup))/2 of H
    (phase 1 at a zero entry); T = Q diag(w) Q^T is solved in real arithmetic
    (one dsyevd) and u = Phi Q, with no d x d H formed. Any other m takes the
    dense complex solve of H. Unlike diag.real, these sums overflow silently
    past half the float range: LinAlgError, or w not finite.
    """
    diag, sub, sup, diagonal, tridiagonal = _bands(m)
    if diagonal:
        return diag.real, None
    if not tridiagonal:
        return np.linalg.eigh((m + dagger(m)) / 2)
    sub = (sub + sup.conj()) / 2
    off = np.abs(sub)
    t = np.diag(diag.real) + np.diag(off, -1) + np.diag(off, 1)
    w, q = np.linalg.eigh(t)
    # Phi_{k+1} = Phi_k s_k / |s_k|, a running product renormalized to unit
    # modulus: each ratio Phi_{k+1} / Phi_k keeps the phase of s_k to roundoff
    unit = np.divide(sub, off, out=np.ones_like(sub), where=off > 0)
    phi = np.cumprod(np.concatenate(([1.0], unit)))
    phi /= np.abs(phi)
    return w, phi[:, None] * q


def _psd_eigh(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a require_hermitian array with none below -PSD_CLAMP.

    Raises NotPSDError, or ConvergenceFailure when LAPACK does not converge.
    """
    try:
        w, u = eigh(arr)  # NaN w or LinAlgError if the Hermitian part overflows
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    if u is None:  # diagonal: w in stable ascending order, the matching identity columns
        order = np.argsort(w, kind="stable")
        w, u = w[order], np.eye(len(w), dtype=arr.dtype)[:, order]
    if not w[0] >= -PSD_CLAMP:  # a NaN spectrum must fail too
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.1e}")
    return w, u


def psd_factor(m) -> np.ndarray:
    """A = V_r sqrt(p_r) (d x r) with A A^dag = M for a Hermitian PSD M, from one eigh.

    Keeps the eigenpairs above RANK_CUT times the largest eigenvalue;
    eigenvalues below -PSD_CLAMP raise NotPSDError. A diagonal M costs no
    eigensolve: eigh reads it off its diagonal.
    """
    return _factor(require_hermitian(m))


def _factor(arr: np.ndarray) -> np.ndarray:
    """psd_factor of an array that already passed require_hermitian."""
    w, u = _psd_eigh(arr)
    keep = w > RANK_CUT * w[-1]
    return u[:, keep] * np.sqrt(w[keep])


def sqrtm_psd(m) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_CLAMP, 0) are treated as roundoff and clamped to
    zero; anything below -PSD_CLAMP raises NotPSDError.
    """
    w, u = _psd_eigh(require_hermitian(m))
    s = (u * np.sqrt(np.clip(w, 0.0, None))) @ dagger(u)
    return (s + dagger(s)) / 2


def fidelity_given_sqrt(sqrt_rho1: np.ndarray, rho2) -> float:
    """Fidelity where the PSD square root of the first state is already known.

    fidelity_of_factors of sqrt_rho1, a factor of rho1, and psd_factor(rho2), which
    validates rho2; sqrt_rho1 should come from sqrtm_psd (or an exact equivalent).
    """
    return float(fidelity_of_factors(sqrt_rho1, psd_factor(rho2)))


def _half_trace_norm(h: np.ndarray):
    """(1/2) sum |eig| of a Hermitian matrix or (T, d, d) stack; exactly diagonal: no eigvalsh."""
    diag = np.diagonal(h, axis1=-2, axis2=-1)
    diagonal = not h[..., :1, -1:].any() and np.count_nonzero(h) == np.count_nonzero(diag)
    return 0.5 * np.sum(np.abs(diag.real if diagonal else np.linalg.eigvalsh(h)), axis=-1)


def fidelity_of_factors(a: np.ndarray, b: np.ndarray):
    """Fidelity of a a^dag and b b^dag: (sum of singular values of a^dag b)^2.

    An r1 x r2 SVD, with no square roots of roundoff-level eigenvalues; none
    if r1 or r2 is 1 or every overlap is exactly diagonal: F = (sum |diag|)^2.
    For (T, d, r) stacks of factors it returns the T fidelities as an array.
    """
    m = dagger(a) @ b
    if 1 in m.shape[-2:]:  # a row or column: its 2-norm is its one singular value
        return np.sum(np.abs(m) ** 2, axis=(-2, -1))
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    if np.count_nonzero(m) == np.count_nonzero(diag):  # the singular values are |diag|
        return np.sum(np.abs(diag), axis=-1) ** 2
    return np.sum(np.linalg.svd(m, compute_uv=False), axis=-1) ** 2


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
    return fidelity_of_factors(_factor(r1), _factor(r2))


def _direct_path(r1: int, r2: int, d: int) -> bool:
    """Whether trace_distance_of_factors of ranks r1, r2 in dimension d takes its last path."""
    return not r1 == r2 == 1 and r1 + r2 >= d


def trace_distance_of_factors(a: np.ndarray, b: np.ndarray):
    """Trace distance (1/2)||a a^dag - b b^dag||_1 of factored states.

    Three paths, by the ranks r1, r2 (columns) of a and b and the dimension d:
    - r1 = r2 = 1: the closed form of the rank-2 difference, with no LAPACK
      call. Its eigenvalues are (|a|^2 - |b|^2)/2 +/- D, of product
      -|a|^2 |b_perp|^2 <= 0, so the distance is
      D = sqrt(((|a|^2 - |b|^2)/2)^2 + |a|^2 |b_perp|^2), where
      b_perp = b - a (a^dag b)/|a|^2 is one Gram-Schmidt step (b_perp = b
      for a = 0). It is within about eps max(1, |a|^2, |b|^2) at any D;
      the equal form ((|a|^2 + |b|^2)/2)^2 - |a^dag b|^2 under the root
      cancels, to an error of about eps / D.
    - r1 + r2 < d otherwise: a and b are replaced by the column blocks of R
      in the reduced QR [a | b] = Q R, which leaves the spectrum of the
      difference unchanged and shrinks the eigenproblem to (r1 + r2) square.
    - else (_direct_path): _half_trace_norm of the d x d difference, which
      sweep.evaluate forms from per-segment Gram blocks in a shared frame.
    For (T, d, r) stacks of factors it returns the T distances as an array.
    """
    r1 = a.shape[-1]
    if r1 == b.shape[-1] == 1:
        ah = dagger(a)
        aa, ab = (ah @ a)[..., 0, 0].real, (ah @ b)[..., 0, 0]
        bb = (dagger(b) @ b)[..., 0, 0].real
        coef = np.divide(ab, aa, out=np.zeros_like(ab), where=aa > 0)
        perp = b - a * coef[..., None, None]
        return np.sqrt(((aa - bb) / 2) ** 2 + aa * (dagger(perp) @ perp)[..., 0, 0].real)
    if not _direct_path(r1, b.shape[-1], a.shape[-2]):
        r = np.linalg.qr(np.concatenate((a, b), axis=-1), mode="r")
        a, b = r[..., :r1], r[..., r1:]
    return _half_trace_norm(a @ dagger(a) - b @ dagger(b))


def trace_distance(rho1, rho2) -> float:
    """Trace distance (1/2)||rho1 - rho2||_1: _half_trace_norm of the difference."""
    r1 = require_hermitian(rho1, what="rho1")
    r2 = require_hermitian(rho2, what="rho2")
    if r1.shape != r2.shape:
        raise DimensionMismatch(f"state dimensions differ: {r1.shape} vs {r2.shape}")
    with np.errstate(over="ignore"):  # |eig| summing past the float range reads inf
        distance = float(_half_trace_norm(r1 - r2))
    if not np.isfinite(distance):
        raise NonFiniteError(f"trace distance overflows: {distance}")
    return distance


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
    arr = require_hermitian(sigma, what="sigma")
    n = dim_sys * dim_env
    if arr.shape != (n, n):
        raise DimensionMismatch(
            f"matrix has shape {arr.shape}, expected ({n}, {n}) for dims "
            f"{dim_sys}x{dim_env}"
        )
    # the partial transpose over the system swaps the two system indices
    pt = arr.reshape(dim_sys, dim_env, dim_sys, dim_env).transpose(2, 1, 0, 3).reshape(n, n)
    return float(_negative_sum(pt))

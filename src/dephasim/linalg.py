"""Dense complex linear algebra on small operator matrices.

Everything here takes and returns plain numpy arrays (complex128, square),
but eigh and hermiticity_residual also take the (diagonal, sub-, super-
diagonal) triple of a tridiagonal matrix, as _bands reads it and a Segment
holds it, and only rotate reads the u of eigh (None, (phi, Q) or a complex U).
Matrices in this package stay below dimension ~512, so direct LAPACK
factorizations are always the right tool; there are no sparse or iterative
paths. All functions are pure and safe to call concurrently. The factor
kernels (*_of_factors) trust their inputs: on factors with entries near 1e200
their products overflow, with numpy's "overflow encountered in matmul".
sweep.evaluate passes none: R(0) has unit trace and every step is unitary.
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
    "hermiticity_residual",
    "require_hermitian",
    "eigh",
    "rotate",
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


RANK_CUT = 1e-15  # psd_factor drops eigenvalues at or below this times the largest
HERM_TOL = 1e-9  # largest hermiticity_residual of a matrix taken as Hermitian
PSD_CLAMP = 1e-10  # eigenvalues in [-PSD_CLAMP, 0) are roundoff; lower ones are not PSD
TRACE_TOL = 1e-8  # largest |Tr rho - 1| of a density matrix taken as normalized
NORM_TOL = 1e-10  # largest ||c|^2 - 1| of pointer amplitudes taken as normalized
CHUNK_BYTES = 1 << 18  # one segment_chunks chunk of stacks; one negativity_of_factors run


def _bands(m: np.ndarray):
    """The (diagonal, sub-, super-diagonal) views of m, tridiagonal by exact zeros, else None."""
    if len(m) >= 3 and (m[0, -1] != 0 or m[-1, 0] != 0):  # not tridiagonal: no scan
        return None
    diag, sub, sup = np.diagonal(m), np.diagonal(m, -1), np.diagonal(m, 1)
    off = np.count_nonzero(m) - np.count_nonzero(diag)
    return (diag, sub, sup) if off == np.count_nonzero(sub) + np.count_nonzero(sup) else None


def _tridiagonal(diag, sub, sup) -> np.ndarray:
    """The matrix with these three bands and zeros elsewhere: what _bands reads back."""
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def hermiticity_residual(g) -> float:
    """Relative residual ||G - G^dag||_F / max(1, ||G||_F) of a matrix or a held triple of bands.

    A tridiagonal G - G^dag is zero off the three diagonals: both norms are
    taken on the bands, as held or as _bands reads them off a matrix.
    NaN, which callers reject, if both norms overflow or an entry is not finite.
    """
    bands = g if isinstance(g, tuple) else _bands(g)
    if bands is None:
        adj = dagger(g)
    else:
        diag, sub, sup = bands
        g, adj = np.concatenate(bands), np.concatenate((diag, sup, sub)).conj()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(g - adj) / max(1.0, np.linalg.norm(g))


def require_hermitian(m, *, what: str = "matrix") -> np.ndarray:
    """m as a complex array, checked square, finite and Hermitian (residual <= HERM_TOL)."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    res = hermiticity_residual(arr)
    if not res <= HERM_TOL:  # not "> HERM_TOL": a NaN residual must fail too
        raise NotHermitianError(f"{what} is not Hermitian (residual {res:.3e})")
    return arr


@np.errstate(over="ignore", invalid="ignore")
def eigh(g):
    """Eigenvalues w and eigenvectors u of the Hermitian part H = (G + G^dag)/2.

    g is a matrix, or the (diagonal, sub-, super-diagonal) triple of a
    tridiagonal one as a Segment holds it; a matrix's structure is read off
    its exact zeros by _bands. Bands with both off-diagonals zero give the
    diagonal of H, diag.real, in its own order, and u None: the identity,
    which callers neither form nor multiply. Otherwise w ascends. Other
    bands are gauged to the real symmetric T = Phi^dag H Phi, where the
    diagonal unitary Phi takes its phases from the sub-diagonal
    s = (sub + conj(sup))/2 of H (phase 1 where |s| is 0 or subnormal, whose
    reciprocal overflows: a change below 5e-308); T = Q diag(w) Q^T is solved
    in real arithmetic (one dsyevd), with no d x d H formed, and u is the
    pair (phi, Q) of U = diag(phi) Q. A matrix with no bands takes the dense
    complex solve of H, and u is the complex U. linalg.rotate applies any u.
    Unlike diag.real, these sums overflow silently past half the float
    range: LinAlgError, or w not finite.
    """
    bands = g if isinstance(g, tuple) else _bands(g)
    if bands is None:
        return np.linalg.eigh((g + dagger(g)) / 2)
    diag, sub, sup = bands
    if not (sub.any() or sup.any()):
        return diag.real, None
    sub = (sub + sup.conj()) / 2
    off = np.abs(sub)
    t = _tridiagonal(diag.real, off, off)
    w, q = np.linalg.eigh(t)
    # Phi_{k+1} = Phi_k s_k / |s_k|, a running product renormalized to unit
    # modulus: each ratio Phi_{k+1} / Phi_k keeps the phase of s_k to roundoff
    unit = np.divide(sub, off, out=np.ones_like(sub), where=off >= np.finfo(float).tiny)
    phi = np.cumprod(np.concatenate(([1.0], unit)))
    phi /= np.abs(phi)
    return w, (phi, q)


def rotate(u, y: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
    """U y, or U^dag y if adjoint, for the u of eigh and a (d, r) factor or (T, d, r) stack y.

    u None is the identity: y itself. A pair (phi, Q), U = diag(phi) Q, costs
    one real product of Q (Q^T if adjoint) with the float view of y, which
    holds Re y and Im y in alternate columns, and one diagonal phase: half
    the real multiplications of the complex product with a formed U.
    A complex u is multiplied as it is.
    """
    if u is None:
        return y
    if not isinstance(u, tuple):
        return (dagger(u) if adjoint else u) @ y
    phi, q = u
    if adjoint:
        y, q = phi.conj()[:, None] * y, q.T
    z = (q @ np.ascontiguousarray(y, dtype=complex).view(float)).view(complex)
    if not adjoint:
        z *= phi[:, None]
    return z


def _unit_trace(arr: np.ndarray, what: str) -> np.ndarray:
    """arr, a require_hermitian array, checked to have unit trace within TRACE_TOL."""
    tr = float(np.trace(arr).real)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise NotNormalizedError(f"{what} has trace {tr!r}, expected 1 within {TRACE_TOL}")
    return arr


def _psd_eigh(arr: np.ndarray):
    """eigh of a require_hermitian array with no eigenvalue below -PSD_CLAMP.

    Raises NotPSDError, or ConvergenceFailure when LAPACK does not converge.
    """
    try:
        w, u = eigh(arr)  # NaN w or LinAlgError if the Hermitian part overflows
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    lowest = w.min()
    if not lowest >= -PSD_CLAMP:  # a NaN spectrum must fail too
        raise NotPSDError(f"matrix has eigenvalue {lowest:.3e} below -{PSD_CLAMP:.1e}")
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
    # the kept sqrt(w), in stable ascending order (eigh's own unless diagonal), sit on
    # unit columns e_k, which rotate takes to U e_k
    order = np.argsort(w, kind="stable")
    rows = order[w[order] > RANK_CUT * w[order[-1]]]
    a = np.zeros((len(w), len(rows)), dtype=complex)
    a[rows, np.arange(len(rows))] = np.sqrt(w[rows])
    return rotate(u, a)


def sqrtm_psd(m) -> np.ndarray:
    """Hermitian PSD square root U sqrt(W) U^dag via eigendecomposition.

    Eigenvalues in [-PSD_CLAMP, 0) are treated as roundoff and clamped to
    zero; anything below -PSD_CLAMP raises NotPSDError.
    """
    w, u = _psd_eigh(require_hermitian(m))
    half = rotate(u, np.diag(np.sqrt(np.clip(w, 0.0, None)).astype(complex)))  # U sqrt(W)
    s = rotate(u, dagger(half))
    return (s + dagger(s)) / 2


def fidelity_given_sqrt(sqrt_rho1: np.ndarray, rho2) -> float:
    """Fidelity where the PSD square root of the first state is already known.

    fidelity_of_factors of sqrt_rho1, a factor of rho1, and psd_factor(rho2), with
    rho2 checked as fidelity checks it; sqrt_rho1 should come from sqrtm_psd (or an
    exact equivalent) of a unit-trace rho1.
    """
    r2 = _unit_trace(require_hermitian(rho2, what="rho2"), "rho2")
    return float(fidelity_of_factors(sqrt_rho1, _factor(r2)))


def _half_trace_norm(h: np.ndarray):
    """(1/2) sum |eig| of a Hermitian matrix or (T, d, d) stack; exactly diagonal: no eigvalsh."""
    diag = np.diagonal(h, axis1=-2, axis2=-1)
    diagonal = not h[..., :1, -1:].any() and np.count_nonzero(h) == np.count_nonzero(diag)
    return 0.5 * np.sum(np.abs(diag.real if diagonal else np.linalg.eigvalsh(h)), axis=-1)


def _rank_one_pair(a: np.ndarray, b: np.ndarray):
    """|a|^2, |b|^2, a^dag b and |b_perp|^2, b_perp = b - a (a^dag b)/|a|^2, for a one-column a.

    b_perp = b where 1/|a|^2 overflows (|a|^2 is 0 or subnormal). Each norm is formed as
    a^dag b is, whose parts the step divides by |a|^2: b = a gives |b|^2 = |a|^2, b_perp = 0.
    """
    def norm(x):  # x^dag x of x's entries (all of b's columns) as one column
        x = x.reshape(*x.shape[:-2], -1, 1)
        return (dagger(x) @ x).real[..., 0, 0]
    aa, ab = norm(a), dagger(a) @ b
    parts, sq = np.asarray(ab, dtype=complex).view(float), aa[..., None, None]
    coef = np.divide(parts, sq, out=np.zeros_like(parts), where=sq >= np.finfo(float).tiny)
    return aa, norm(b), ab, norm(b - a * coef.view(complex))


def _rank_one_fidelity(aa, bb, ab, pp):  # of _rank_one_pair: 1 for b = a, 0 for b = 0
    return 1.0 - np.divide(pp, bb, out=np.ones_like(bb), where=bb > 0)


def _rank_one_distance(aa, bb, ab, pp):  # of _rank_one_pair: 0 for b = a
    return np.sqrt(((aa - bb) / 2) ** 2 + aa * pp)


def fidelity_of_factors(a: np.ndarray, b: np.ndarray, *, out=None):
    """Fidelity of the states a a^dag and b b^dag: (sum of singular values of a^dag b)^2.

    a and b are factors of unit-trace states. An r1 x r2 SVD, with no square
    roots of roundoff-level eigenvalues; none if every overlap is exactly
    diagonal: F = (sum |diag|)^2, or if a (else b) is one column, a path that
    normalizes both: F = 1 - |b_perp|^2/|b|^2 (_rank_one_fidelity) of the
    _rank_one_pair of (a, b), else (b, a). For (T, d, r) stacks, the T fidelities.
    out, if given, receives the overlaps a^dag b of the SVD path.
    """
    if 1 in (a.shape[-1], b.shape[-1]):
        return _rank_one_fidelity(*_rank_one_pair(*((a, b) if a.shape[-1] == 1 else (b, a))))
    m = np.matmul(dagger(a), b, out=out)
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    if np.count_nonzero(m) == np.count_nonzero(diag):  # the singular values are |diag|
        return np.sum(np.abs(diag), axis=-1) ** 2
    return np.sum(np.linalg.svd(m, compute_uv=False), axis=-1) ** 2


def _state_pair(rho1, rho2) -> tuple[np.ndarray, np.ndarray]:
    """rho1 and rho2 through require_hermitian, checked to have the same shape."""
    r1 = require_hermitian(rho1, what="rho1")
    r2 = require_hermitian(rho2, what="rho2")
    if r1.shape != r2.shape:
        raise DimensionMismatch(f"state dimensions differ: {r1.shape} vs {r2.shape}")
    return r1, r2


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity F(rho1, rho2) = [Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    Both inputs must be Hermitian, PSD within PSD_CLAMP, and have unit trace
    within TRACE_TOL. Evaluated as fidelity_of_factors of their psd_factor.
    """
    r1, r2 = (_unit_trace(r, name) for r, name in zip(_state_pair(rho1, rho2), ("rho1", "rho2")))
    return fidelity_of_factors(_factor(r1), _factor(r2))


def _direct_path(r1: int, r2: int, d: int) -> bool:
    """Whether trace_distance_of_factors of ranks r1, r2 in dimension d takes its last path."""
    return not r1 == r2 == 1 and r1 + r2 >= d


def trace_distance_of_factors(a: np.ndarray, b: np.ndarray):
    """Trace distance (1/2)||a a^dag - b b^dag||_1 of factored states.

    Three paths, by the ranks r1, r2 (columns) of a and b and the dimension d:
    - r1 = r2 = 1: _rank_one_distance of _rank_one_pair, with no LAPACK call.
      The rank-2 difference has eigenvalues (|a|^2 - |b|^2)/2 +/- D, of product
      -|a|^2 |b_perp|^2 <= 0, so D = sqrt(((|a|^2 - |b|^2)/2)^2 + |a|^2 |b_perp|^2),
      within about eps max(1, |a|^2, |b|^2) at any D; the equal form
      ((|a|^2 + |b|^2)/2)^2 - |a^dag b|^2 under the root cancels, to about eps / D.
    - r1 + r2 < d otherwise: a and b are replaced by the column blocks of R
      in the reduced QR [a | b] = Q R, which leaves the spectrum of the
      difference unchanged and shrinks the eigenproblem to (r1 + r2) square.
    - else (_direct_path): _half_trace_norm of the d x d difference, which
      sweep.evaluate forms from per-segment Gram blocks in a shared frame.
    For (T, d, r) stacks of factors it returns the T distances as an array.
    """
    r1 = a.shape[-1]
    if r1 == b.shape[-1] == 1:
        return _rank_one_distance(*_rank_one_pair(a, b))
    if not _direct_path(r1, b.shape[-1], a.shape[-2]):
        r = np.linalg.qr(np.concatenate((a, b), axis=-1), mode="r")
        a, b = r[..., :r1], r[..., r1:]
    return _half_trace_norm(a @ dagger(a) - b @ dagger(b))


def trace_distance(rho1, rho2) -> float:
    """Trace distance (1/2)||rho1 - rho2||_1: _half_trace_norm of the difference."""
    r1, r2 = _state_pair(rho1, rho2)
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
    negativities as an array, from runs of points whose m x m partial
    transposes hold at most CHUNK_BYTES, m = N d or N (N r) as formed.
    """
    shape, r = z.shape[:-2], z.shape[-1]
    z = z.reshape(-1, *z.shape[-2:])  # one Z is a stack of one
    d = z.shape[-2] // dim_sys
    if dim_sys * r < d:
        r_blocks = np.linalg.qr(np.concatenate(np.split(z, dim_sys, axis=-2), axis=-1), mode="r")
        z = np.concatenate(np.split(r_blocks, dim_sys, axis=-1), axis=-2)
        d = dim_sys * r
    m = dim_sys * d
    run = max(1, CHUNK_BYTES // (16 * m * m))
    negs = []
    for zk in np.split(z, range(run, len(z), run)):
        blocks = (zk @ dagger(zk)).reshape(-1, dim_sys, d, dim_sys, d)
        negs.append(_negative_sum(np.swapaxes(blocks, -4, -2).reshape(-1, m, m)))
    return np.concatenate(negs).reshape(shape)


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
    with np.errstate(over="ignore"):  # |eig| summing past the float range reads inf
        value = float(_negative_sum(pt))
    if not np.isfinite(value):
        raise NonFiniteError(f"negativity overflows: {value}")
    return value

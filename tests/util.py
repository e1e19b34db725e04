"""Shared test helpers: random operators and oracles the package does not ship."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from dephasim import sweep
from dephasim.dephasing import Segment, segment_chunks
from dephasim.errors import ConvergenceFailure, NonFiniteError
from dephasim.fock import FockSpace
from dephasim.linalg import _tridiagonal, dagger, require_hermitian
from dephasim.qubit_boson import _branch_bands

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def chunk_stacks(schedule, a, times, *, frame=False):
    """(index of the first time, stacks) of each segment_chunks chunk, in index order.

    segment_chunks yields the chunks by segment; sorted by first, their stacks
    follow the times as given, unsorted or revisiting too.
    """
    return sorted(
        ((first, stacks) for first, *_, stacks in segment_chunks(schedule, a, times, frame=frame)),
        key=lambda chunk: chunk[0],
    )


def recorded_routes(monkeypatch):
    """The list that receives each Route of sweep.route: an evaluate call's, then its segments'."""
    routes, route = [], sweep.route

    def recorded(*args):
        routes.append(route(*args))
        return routes[-1]

    monkeypatch.setattr(sweep, "route", recorded)
    return routes


def generator_matrices(segment):
    """The d x d generator matrices of a Segment: each held triple of bands formed, else as held."""
    return tuple(_tridiagonal(*h) if isinstance(h, tuple) else h for h in segment._held)


def branch_generator(alpha, beta, gamma, space: FockSpace) -> np.ndarray:
    """qubit_boson's V_0 = alpha a^dag + alpha* a + beta n + gamma (V_1 = -V_0) as a matrix."""
    return generator_matrices(Segment(1.0, (_branch_bands(alpha, beta, gamma, space.dim),)))[0]


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
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return scipy.linalg.expm(m)


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition M = U diag(w) U^dag, eigenvalues ascending, U unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ dagger(self.eigenvectors)


def hermitian_eig(m) -> HermitianEigen:
    """Validated eigendecomposition of a Hermitian matrix."""
    arr = require_hermitian(m)
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


def normalized_coherence(blocks, i: int, j: int) -> float:
    """|rho_ij(t)| / |rho_ij(0)| = |Tr R_ij(t)|, since Tr R_ij(0) = 1, from formed blocks."""
    return float(abs(np.trace(blocks.blocks[i, j])))


def annihilation(space: FockSpace) -> np.ndarray:
    """Annihilation operator: <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1).astype(complex)


def number_op(space: FockSpace) -> np.ndarray:
    """Number operator diag(0, 1, ..., cutoff-1)."""
    return np.diag(np.arange(space.dim, dtype=float)).astype(complex)


def creation(space: FockSpace) -> np.ndarray:
    """Creation operator, conjugate transpose of annihilation."""
    return dagger(annihilation(space))


def displacement(lam: complex, space: FockSpace) -> np.ndarray:
    """Displacement operator exp(lam a^dag - lam* a) in the number basis.

    Matrix elements come from the associated-Laguerre closed form, evaluated
    with a scaled two-term recurrence so no factorial is ever formed. The
    result is the corner of the untruncated unitary: it is unitary to
    truncation accuracy on the lower block (see displacement_safe_dim) but not
    at the corner itself.
    """
    lower = _displacement_lower(lam, space.dim)
    upper = _displacement_lower(-lam, space.dim)
    return np.tril(lower) + np.triu(dagger(upper), k=1)


def _displacement_lower(lam: complex, dim: int) -> np.ndarray:
    """Entries <n+k|D(lam)|n> for all k >= 0.

    With x = |lam|^2, the column-n entry on diagonal k is
        e^{-x/2} * (lam^k / sqrt(k!)) * G_n^{(k)}(x),
    where G_n^{(k)} = sqrt(n!/(n+k)!) L_n^{(k)} absorbs the amplitude ratio
    into the Laguerre recurrence to keep every intermediate O(e^{x/2}).
    """
    x = abs(lam) ** 2
    k = np.arange(dim, dtype=float)
    damp = math.exp(-x / 2)
    # lam^k / sqrt(k!) along the diagonal index
    pk_steps = np.ones(dim, dtype=complex)
    pk_steps[1:] = lam / np.sqrt(k[1:])
    pk = np.cumprod(pk_steps)

    out = np.zeros((dim, dim), dtype=complex)
    g_prev = np.zeros(dim)
    g_cur = np.ones(dim)
    rows = np.arange(dim)
    for n in range(dim):
        live = rows[: dim - n]
        out[live + n, n] = damp * pk[: dim - n] * g_cur[: dim - n]
        scale = np.sqrt((n + 1.0) / (n + 1.0 + k)) / (n + 1.0)
        g_next = scale * ((2 * n + k + 1.0 - x) * g_cur - np.sqrt(n * (n + k)) * g_prev)
        g_prev, g_cur = g_cur, g_next
    return out


def displacement_safe_dim(lam: complex, space: FockSpace) -> int:
    """Size of the lower block on which the truncated displacement is reliable.

    Cutting the basis at M corrupts a boundary layer below the corner: level
    n couples upward with strength |lam| sqrt(n), so the layer is roughly
    2|lam| sqrt(M) levels deep, beyond which the corruption decays
    superexponentially. The extra constant buys ~1e-9 Frobenius agreement for
    operator identities with two displacement factors (measured directly; see
    the displacement round-trip tests).
    """
    halo = math.ceil(2 * abs(lam) * math.sqrt(space.dim)) + 12
    return max(0, space.dim - halo)


def analytic_propagator_piece(
    alpha: complex,
    beta: float,
    t: float,
    branch: int,
    space: FockSpace,
    *,
    exact_phase: bool = False,
) -> np.ndarray:
    """Closed-form propagator exp(-i V_branch t) of one constant-alpha qubit-boson segment.

    A displacement whose amplitude circulates with the free mode rotation, a
    scalar phase, and the bare rotation:

        w_branch(t) = e^{i chi} D(lam(t)) e^{i phi(t)} e^{-/+ i beta n t},
        lam(t) = (alpha/beta)(e^{-/+ i beta t} - 1),
        phi(t) = -/+ (|alpha|^2/beta^2) sin(beta t).

    The scalar chi = +/- |alpha|^2 t / beta comes from completing the square
    in the generator and cancels from every plotted quantity; it is included
    only with ``exact_phase=True``. Reliable on the lower block of the space
    away from the truncation corner.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    sign = 1.0 if branch == 0 else -1.0
    levels = np.arange(space.dim)
    rotation = np.exp(-1j * sign * beta * levels * t)
    if alpha == 0:
        return np.diag(rotation)
    lam = (alpha / beta) * (np.exp(-1j * sign * beta * t) - 1.0)
    phi = -sign * (abs(alpha) ** 2 / beta**2) * math.sin(beta * t)
    piece = np.exp(1j * phi) * displacement(lam, space) * rotation[np.newaxis, :]
    if exact_phase:
        piece = piece * np.exp(1j * sign * abs(alpha) ** 2 * t / beta)
    return piece


def _displacements(zeta: complex, beta: float, segments, t: float) -> list[complex]:
    """The coherent amplitudes (mu_0, mu_1) of the two branches at schedule time t, from zeta.

    Within a segment of drive alpha and duration tau, pointer i's amplitude moves as
        mu_i <- (mu_i + alpha/beta) e^{-/+ i beta tau} - alpha/beta
    (- for pointer 0, + for pointer 1). segments holds (duration, alpha) pairs.
    """
    mu = [complex(zeta), complex(zeta)]
    start = 0.0
    for duration, alpha in segments:
        tau = min(max(t - start, 0.0), duration)
        shift = alpha / beta
        mu = [(m + shift) * np.exp(-1j * s * beta * tau) - shift for m, s in zip(mu, (1, -1))]
        start += duration
    return mu


def coherent_oracle(zeta: complex, beta: float, segments, c, times):
    """Closed-form (E, coherence) of a qubit_boson schedule from a coherent R(0) = |zeta><zeta|.

    Each branch keeps the mode coherent, at the amplitude mu_i of _displacements
    from mu_i = zeta. With the overlap |<mu_0|mu_1>| = e^{-|mu_0 - mu_1|^2 / 2},
    the measure is E = 4 |c_0 c_1|^2 (1 - e^{-|mu_0 - mu_1|^2}) and the coherence
    |Tr R_01| = e^{-|mu_0 - mu_1|^2 / 2}. Untruncated: no cutoff enters.
    segments holds (duration, alpha) pairs; returns two arrays over times.
    """
    weight = 4 * abs(c[0] * c[1]) ** 2
    es, cohs = [], []
    for t in times:
        mu = _displacements(zeta, beta, segments, t)
        gap = abs(mu[0] - mu[1]) ** 2
        es.append(weight * -math.expm1(-gap))
        cohs.append(math.exp(-gap / 2))
    return np.array(es), np.array(cohs)


def thermal_oracle(theta: float, beta: float, segments, c, times):
    """Closed-form (E, coherence) of a qubit_boson schedule from a thermal R(0) at theta > 0.

    Branch i takes R(0) to a thermal state displaced by the mu_i of
    _displacements from 0 (the free rotations commute with R(0)). With
    q = e^{-1/theta}, nbar = q / (1 - q), |D| = |mu_0 - mu_1| and
    z = q e^{-2 i beta t}, the fidelity of two displaced thermal states gives
    E = 4 |c_0 c_1|^2 (1 - e^{-|D|^2 / (2 nbar + 1)}), and the thermal
    average of a displacement times e^{-2 i beta t n} gives the coherence
    |Tr R_01| = |e^{-|D|^2/2} (1 - q)/(1 - z) e^{-|D|^2 z/(1 - z)}|.
    Untruncated: no cutoff enters. times are schedule times (without t_start).
    """
    weight = 4 * abs(c[0] * c[1]) ** 2
    q = math.exp(-1.0 / theta)
    width = 2 * q / (1 - q) + 1
    es, cohs = [], []
    for t in times:
        mu = _displacements(0.0, beta, segments, t)
        gap = abs(mu[0] - mu[1]) ** 2
        z = q * np.exp(-2j * beta * t)
        es.append(weight * -math.expm1(-gap / width))
        cohs.append(abs(math.exp(-gap / 2) * (1 - q) / (1 - z) * np.exp(-gap * z / (1 - z))))
    return np.array(es), np.array(cohs)


def fock_oracle(n: int, beta: float, segments, c, times):
    """Closed-form (E, coherence, type-1) of a qubit_boson schedule from a Fock R(0) = |n><n|.

    Branch i takes |n> to D(mu_i)|n>, up to a phase, with the mu_i of
    _displacements from 0 (the free rotations only phase |n>). With
    x = |mu_0 - mu_1|^2 and L_n(x) = 1 + s, s = sum_{k=1..n} C(n, k) (-x)^k / k!,
    the overlap |<n|D(mu_0 - mu_1)|n>| = e^{-x/2} |L_n(x)| is the coherence
    |Tr R_01|, the fidelity is F = e^{-x} L_n(x)^2, E = 4 |c_0 c_1|^2 (1 - F) and
    the pure-state trace distance is D = sqrt(1 - F). 1 - F is formed as
    (1 - e^{-x}) - e^{-x} s (2 + s), two terms of one sign where F is near 1
    (small x, s <= 0), so it does not cancel. Untruncated: no cutoff enters.
    segments holds (duration, alpha) pairs; returns three arrays over times.
    """
    weight = 4 * abs(c[0] * c[1]) ** 2
    es, cohs, distances = [], [], []
    for t in times:
        mu = _displacements(0.0, beta, segments, t)
        x = abs(mu[0] - mu[1]) ** 2
        s = sum(math.comb(n, k) * (-x) ** k / math.factorial(k) for k in range(1, n + 1))
        infidelity = -math.expm1(-x) - math.exp(-x) * s * (2 + s)
        es.append(weight * infidelity)
        cohs.append(math.exp(-x / 2) * abs(1 + s))
        distances.append(math.sqrt(infidelity))
    return np.array(es), np.array(cohs), np.array(distances)

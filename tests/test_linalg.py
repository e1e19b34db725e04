import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim.errors import (
    DephasimError,
    DimensionMismatch,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
)
from dephasim.fock import (
    FockSpace,
    coherent_amplitudes,
    coherent_state,
    env_from_matrix,
    fock_state,
    thermal_state,
)
from dephasim.linalg import (
    RANK_CUT,
    dagger,
    eigh,
    fidelity,
    fidelity_given_sqrt,
    fidelity_of_factors,
    negativity,
    psd_factor,
    require_hermitian,
    sqrtm_psd,
    trace_distance,
    trace_distance_of_factors,
)
from dephasim.qubit_boson import branch_generator
from util import (
    PAULI_X,
    expm,
    hermitian_eig,
    random_complex,
    random_density,
    random_hermitian,
    random_pure_density,
    random_unitary,
)

seeds = st.integers(0, 2**32 - 1)


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_pauli_x(self):
        # by hand: eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
        eig = hermitian_eig(PAULI_X)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)

    @given(seed=seeds)
    def test_reconstruction_and_unitarity(self, seed):
        m = random_hermitian(np.random.default_rng(seed), 8)
        eig = hermitian_eig(m)
        assert np.linalg.norm(eig.reconstruct() - m) <= 1e-10 * np.linalg.norm(m)
        u = eig.eigenvectors
        assert np.linalg.norm(dagger(u) @ u - np.eye(8)) <= 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            hermitian_eig(m)


# ||M - M^dag||_F / ||M||_F overflows to inf / inf = NaN, which used to pass as
# Hermitian; eigh then read the lower triangle, diag(1, 0)
OVERFLOWING = np.array([[1.0, 1e200], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize(
    "call",
    [
        require_hermitian,
        env_from_matrix,
        lambda m: trace_distance(m, np.diag([1.0, 0.0])),
    ],
)
def test_overflowing_residual_is_not_hermitian(call):
    with pytest.raises(NotHermitianError):
        call(OVERFLOWING)


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_pauli_rotation(self):
        theta = 0.3
        expected = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * PAULI_X
        assert np.linalg.norm(expm(1j * theta * PAULI_X) - expected) <= 1e-12

    def test_diagonal(self):
        d = np.array([0.1, -2.0, 3.5])
        assert np.allclose(expm(np.diag(d)), np.diag(np.exp(d)), atol=1e-12)

    def test_rejects_nonfinite(self):
        m = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NonFiniteError):
            expm(m)

    @given(seed=seeds, dim=st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_antihermitian_gives_unitary(self, seed, dim):
        a = 1j * random_hermitian(np.random.default_rng(seed), dim)
        u = expm(a)
        assert np.linalg.norm(dagger(u) @ u - np.eye(dim)) <= 1e-10

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_same_generator_composition(self, seed):
        a = 1j * random_hermitian(np.random.default_rng(seed), 6)
        assert np.linalg.norm(expm(a) @ expm(a) - expm(2 * a)) <= 1e-9


class TestSqrtmPsd:
    def test_identity(self):
        assert np.allclose(sqrtm_psd(np.eye(4, dtype=complex)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    @given(seed=seeds, dim=st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_square_recovers_input(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = g @ dagger(g)
        s = sqrtm_psd(x)
        assert np.linalg.norm(s @ s - x) <= 1e-9 * max(1.0, np.linalg.norm(x))
        assert np.linalg.eigvalsh(s)[0] >= -1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError):
            sqrtm_psd(np.diag([1.0, -1e-6]))

    def test_clamps_tiny_negative(self):
        s = sqrtm_psd(np.diag([1.0, -1e-11]))
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-12)


class TestFidelity:
    def test_self_fidelity(self):
        rho = random_density(np.random.default_rng(7), 8)
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-10

    def test_vacuum_vs_coherent(self):
        # pure-state overlap: |<0|zeta>|^2 = e^{-|zeta|^2}, here e^{-1}
        space = FockSpace(32)
        f = fidelity(fock_state(0, space).matrix, coherent_state(1.0, space).matrix)
        assert abs(f - np.exp(-1.0)) <= 1e-8

    def test_mixed_vs_pure_qubit(self):
        # hand evaluation: sqrt(I/2) = I/sqrt(2), inner sqrt = |0><0|/sqrt(2)
        f = fidelity(np.eye(2) / 2, np.diag([1.0, 0.0]))
        assert abs(f - 0.5) <= 1e-10

    @given(seed=seeds, dim=st.integers(2, 16))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
        assert abs(fidelity(rho1, rho2) - fidelity(rho2, rho1)) <= 1e-9

    @given(seed=seeds, dim=st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_threshold_pair_with_trace_distance(self, seed, dim):
        # equal pair: F = 1 and d = 0 at tolerance; random pair: both clearly away
        rng = np.random.default_rng(seed)
        rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
        assert abs(fidelity(rho1, rho1) - 1.0) <= 1e-10
        assert trace_distance(rho1, rho1) <= 1e-8
        f, d = fidelity(rho1, rho2), trace_distance(rho1, rho2)
        assert f < 1.0 - 1e-8 and d > 1e-8
        # Fuchs - van de Graaf: 1 - sqrt(F) <= d <= sqrt(1 - F)
        assert 1.0 - np.sqrt(f) <= d + 1e-12
        assert d <= np.sqrt(1.0 - f) + 1e-12

    def test_given_sqrt_matches(self):
        rng = np.random.default_rng(11)
        rho1, rho2 = random_density(rng, 10), random_density(rng, 10)
        direct = fidelity(rho1, rho2)
        via_sqrt = fidelity_given_sqrt(sqrtm_psd(rho1), rho2)
        assert abs(direct - via_sqrt) <= 1e-13

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(2), np.eye(2) / 2)

    def test_unnormalized_is_package_error(self):
        with pytest.raises(NotNormalizedError) as err:
            fidelity(np.eye(2) / 2, np.eye(2))
        assert isinstance(err.value, DephasimError)
        assert isinstance(err.value, ValueError)

    def test_pure_self_fidelity_exact(self):
        # eigvalsh of sqrt(rho) rho sqrt(rho) left 1 + 2.5e-8 here
        psi = coherent_state(0.5 * np.exp(0.25j * np.pi), FockSpace(64)).matrix
        assert abs(fidelity(psi, psi) - 1.0) <= 1e-14

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_pure_vs_mixed_is_expectation(self, theta):
        space = FockSpace(64)
        amps = coherent_amplitudes(0.4 - 0.3j, space)
        sigma = thermal_state(theta, space).matrix
        expected = float(np.vdot(amps, sigma @ amps).real)
        psi = np.outer(amps, amps.conj())
        assert abs(fidelity(psi, sigma) - expected) <= 1e-14
        assert abs(fidelity(sigma, psi) - expected) <= 1e-14


def hermitian_part(m):
    return (m + dagger(m)) / 2


DIAGONAL_STATES = [
    *(thermal_state(2.0, FockSpace(d)).matrix for d in (8, 64, 256)),
    *(fock_state(n, FockSpace(16)).matrix for n in (0, 5, 15)),  # the zeros are tied
]
DIAGONAL_GENERATORS = [
    hermitian_part(branch_generator(0, 1.0, 0.0, FockSpace(64), 0)),
    hermitian_part(branch_generator(0, -1.0, 0.0, FockSpace(64), 0)),  # descending diagonal
    hermitian_part(branch_generator(0, 1.0, 0.25, FockSpace(64), 1)),
]


class TestDiagonalEigh:
    """eigh reads a diagonal matrix off its diagonal, bit for bit as np.linalg.eigh."""

    @pytest.mark.parametrize("m", DIAGONAL_STATES + DIAGONAL_GENERATORS)
    def test_eigh_matches_lapack(self, m, monkeypatch):
        w_ref, u_ref = np.linalg.eigh(m)
        monkeypatch.setattr(np.linalg, "eigh", None)  # the read-off makes no eigensolve
        w, u = eigh(m)
        assert w.tobytes() == w_ref.tobytes()
        assert u.tobytes() == u_ref.tobytes()

    @pytest.mark.parametrize("m", DIAGONAL_STATES)
    def test_psd_factor_matches_lapack(self, m, monkeypatch):
        w_ref, u_ref = np.linalg.eigh(m)
        keep = w_ref > RANK_CUT * w_ref[-1]
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert psd_factor(m).tobytes() == (u_ref[:, keep] * np.sqrt(w_ref[keep])).tobytes()

    def test_tiny_off_diagonal_entry_takes_the_dense_path(self, monkeypatch):
        m = thermal_state(2.0, FockSpace(8)).matrix.copy()
        m[3, 0] = 1e-300
        calls = []
        solve = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or solve(a))
        eigh(m)
        assert len(calls) == 1


def tridiagonal(rng, d, zeros=()):
    """A random Hermitian tridiagonal matrix whose sub-diagonal is zero at the given indices."""
    sub = random_complex(rng, d - 1)
    sub[list(zeros)] = 0
    m = np.diag(rng.normal(size=d).astype(complex)) + np.diag(sub, -1)
    return m + np.diag(sub.conj(), 1)


class TestTridiagonalEigh:
    """eigh solves a tridiagonal matrix as a real symmetric one, gauged by a diagonal unitary."""

    @pytest.mark.parametrize("zeros", [(), (0, 7, 38)])
    def test_one_real_solve_gives_the_eigensystem(self, zeros, monkeypatch):
        m = tridiagonal(np.random.default_rng(4), 40, zeros)
        w_ref = np.linalg.eigvalsh(m)
        solved, solve = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a) or solve(a))
        w, u = eigh(m)
        assert [a.dtype for a in solved] == [np.float64]
        scale = np.linalg.norm(m, 2)
        assert np.abs(w - w_ref).max() <= 1e-14 * scale
        assert np.linalg.norm(dagger(u) @ u - np.eye(40)) <= 1e-13
        assert np.abs((u * w) @ dagger(u) - m).max() <= 1e-14 * scale

    def test_zero_and_positive_entries_take_phase_one(self):
        # a real matrix with positive off-diagonals and a -0.0 entry: Phi = I, u = V
        t = np.abs(tridiagonal(np.random.default_rng(5), 12, zeros=(4,)))
        m = t.astype(complex)
        m[5, 4] = m[4, 5] = -0.0
        w, u = eigh(m)
        w_ref, v_ref = np.linalg.eigh(t)
        assert w.tobytes() == w_ref.tobytes()
        assert u.tobytes() == v_ref.astype(complex).tobytes()

    def test_entry_off_the_three_diagonals_takes_the_dense_solve(self, monkeypatch):
        m = tridiagonal(np.random.default_rng(6), 8)
        m[5, 0] = 1e-300
        solved, solve = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a) or solve(a))
        eigh(m)
        assert len(solved) == 1 and solved[0] is m


class TestFactors:
    def test_factor_reconstructs(self):
        rho = random_density(np.random.default_rng(4), 7)
        a = psd_factor(rho)
        assert a.shape == (7, 7)
        assert np.linalg.norm(a @ dagger(a) - rho) <= 1e-14

    def test_rank_cut(self):
        # thermal populations e^{-2n}: 18 of the 64 lie above 1e-15 of the largest
        assert psd_factor(thermal_state(0.5, FockSpace(64)).matrix).shape == (64, 18)
        assert psd_factor(random_pure_density(np.random.default_rng(1), 9)).shape == (9, 1)

    def test_factor_rejects_negative(self):
        with pytest.raises(NotPSDError):
            psd_factor(np.diag([1.0, -1e-6]))

    @given(seed=seeds, dim=st.integers(2, 10))
    @settings(max_examples=25, deadline=None)
    def test_fidelity_of_factors_is_unitarily_invariant(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
        u = random_unitary(rng, dim)
        a, b = psd_factor(rho1), psd_factor(rho2)
        assert abs(fidelity_of_factors(u @ a, u @ b) - fidelity_of_factors(a, b)) <= 1e-12
        assert abs(fidelity_of_factors(a, b) - fidelity_given_sqrt(sqrtm_psd(rho1), rho2)) <= 1e-12

    @pytest.mark.parametrize(
        "z", [0.75, -3.0, 1e-150j, (3 + 4j) * 2.0**-40, (5 - 12j) * 2.0**500]
    )
    def test_one_by_one_fidelity_is_the_svd_exactly(self, z, monkeypatch):
        # with both |z| exact (real or Pythagorean entries) the two paths agree bit for bit
        a, b = np.array([[1.0 + 0j], [0.0]]), np.array([[np.conj(z)], [2.0]])
        svd = np.sum(np.linalg.svd(dagger(a) @ b, compute_uv=False)) ** 2
        monkeypatch.setattr(np.linalg, "svd", None)  # the one-column path makes no SVD
        assert fidelity_of_factors(a, b) == svd == abs(z) ** 2

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 7), (2, 1), (7, 1)])
    def test_one_column_fidelity_matches_the_svd(self, shape):
        # F = sum |a^dag b|^2 against the SVD path on (T, d, r) stacks; a 1 x 1 has
        # its |z| from hypot here and from LAPACK's dlapy3 there, which differ by a
        # few ulp (at most 4 eps relative over 1e5 random draws)
        rng = np.random.default_rng(sum(shape))
        a = random_complex(rng, (200, 9, shape[0])) * 10.0 ** rng.uniform(-3, 3, (200, 1, 1))
        b = random_complex(rng, (200, 9, shape[1]))
        svd = np.sum(np.linalg.svd(dagger(a) @ b, compute_uv=False), axis=-1) ** 2
        assert np.max(np.abs(fidelity_of_factors(a, b) - svd) / svd) <= 1e-15

    @given(seed=seeds, rank=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_reduced_trace_distance(self, seed, rank):
        # rank 1: the closed form; 2 rank < 12: the QR-reduced eigenproblem;
        # rank 6 and up: the direct one
        rng = np.random.default_rng(seed)
        for r in (rank, rank + 5):
            a = random_complex(rng, (12, r))
            b = random_complex(rng, (12, r))
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            direct = trace_distance(a @ dagger(a), b @ dagger(b))
            assert abs(trace_distance_of_factors(a, b) - direct) <= 1e-13


class TestTraceDistance:
    def test_equal(self):
        rho = random_density(np.random.default_rng(3), 6)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) <= 1e-12

    def test_mixed_vs_pure(self):
        # difference has eigenvalues +-1/2
        assert abs(trace_distance(np.eye(2) / 2, np.diag([1.0, 0.0])) - 0.5) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            trace_distance(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2) / 2)


class TestNegativity:
    def test_product_state(self):
        rng = np.random.default_rng(5)
        sigma = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert negativity(sigma, 2, 3) <= 1e-12

    def test_bell_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        sigma = np.outer(psi, psi.conj())
        # partial transpose has eigenvalues (1/2, 1/2, 1/2, -1/2)
        assert abs(negativity(sigma, 2, 2) - 0.5) <= 1e-12

    def test_classical_classical_mixture(self):
        rng = np.random.default_rng(9)
        sigma = 0.3 * np.kron(np.diag([1.0, 0.0]), random_density(rng, 2)) + 0.7 * np.kron(
            np.diag([0.0, 1.0]), random_density(rng, 2)
        )
        assert negativity(sigma, 2, 2) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            negativity(np.eye(6) / 6, 2, 2)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_npt_states_are_flagged(self, seed):
        # mix a Bell state with a little noise: stays NPT for small mixing
        rng = np.random.default_rng(seed)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        bell = np.outer(psi, psi.conj())
        p = rng.uniform(0.0, 0.2)
        sigma = (1 - p) * bell + p * np.eye(4) / 4
        assert negativity(sigma, 2, 2) > 1e-8

    def test_pure_entangled_pair(self):
        v = np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)], dtype=complex)
        sigma = np.outer(v, v.conj())
        # PT negative eigenvalue of a Schmidt pair is -sqrt(p q)
        assert abs(negativity(sigma, 2, 2) - np.sqrt(0.8 * 0.2)) <= 1e-12


def test_operator_validation():
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(NonFiniteError):
        sqrtm_psd(np.array([[np.inf, 0], [0, 1.0]]))


def test_pure_density_helper_traces():
    rho = random_pure_density(np.random.default_rng(2), 5)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12

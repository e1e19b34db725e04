import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim.errors import (
    ConvergenceFailure,
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
from dephasim import linalg
from dephasim.linalg import (
    RANK_CUT,
    dagger,
    eigh,
    fidelity,
    fidelity_given_sqrt,
    fidelity_of_factors,
    hermiticity_residual,
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
    """eigh reads a diagonal matrix off its diagonal: (w, None), u None the identity."""

    @pytest.mark.parametrize("m", DIAGONAL_STATES + DIAGONAL_GENERATORS)
    def test_eigh_matches_lapack(self, m, monkeypatch):
        w_ref = np.linalg.eigvalsh(m)
        monkeypatch.setattr(np.linalg, "eigh", None)  # the read-off makes no eigensolve
        w, u = eigh(m)
        assert u is None
        assert w.tobytes() == np.diagonal(m).real.tobytes()  # in the diagonal's own order
        assert np.sort(w, kind="stable").tobytes() == w_ref.tobytes()

    @pytest.mark.parametrize("m", DIAGONAL_STATES)
    def test_psd_factor_matches_lapack(self, m, monkeypatch):
        w_ref, u_ref = np.linalg.eigh(m)
        keep = w_ref > RANK_CUT * w_ref[-1]
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert psd_factor(m).tobytes() == (u_ref[:, keep] * np.sqrt(w_ref[keep])).tobytes()

    def test_read_off_is_the_real_part_with_the_bits_of_the_old_sum(self):
        # (d + conj d).real / 2 equals d.real bit for bit wherever the sum is finite;
        # past half the float range it overflows, while d.real stays finite
        rng = np.random.default_rng(21)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308, 1.7e308]

        def spread(n):  # random signs and magnitudes from the subnormals to 1e308
            return rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-323, 308, n)

        re = np.concatenate([special, spread(400)])
        d = np.empty(len(re), dtype=complex)  # set by part: re + 1j * im would lose -0.0
        d.real, d.imag = re, spread(len(re))
        w, u = eigh(np.diag(d))
        assert u is None
        assert w.tobytes() == re.tobytes()
        with np.errstate(over="ignore"):
            old = (d + d.conj()).real / 2
        finite = np.isfinite(old)
        assert w[finite].tobytes() == old[finite].tobytes()
        assert np.array_equal(~finite, np.abs(re) > np.finfo(float).max / 2)
        assert np.all(~finite[6:9])  # +-1e308 and 1.7e308 overflowed the old sum
        assert np.signbit(w[1]) and w[2] == 5e-324  # -0.0 and the smallest subnormal kept

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
        assert len(solved) == 1
        assert solved[0].tobytes() == hermitian_part(m).tobytes()

    @pytest.mark.parametrize("dense", [False, True])
    def test_anti_hermitian_part_is_dropped(self, dense, monkeypatch):
        # generators Hermitian to about 1e-12, as a schedule file may hold them:
        # either solve gives the eigensystem of the Hermitian part h
        rng = np.random.default_rng(7)
        h = tridiagonal(rng, 16)
        if dense:
            h[9, 2] = h[2, 9] = 0.5
        m = h + 1e-12j * (random_hermitian(rng, 16) if dense else tridiagonal(rng, 16))
        assert 1e-13 < np.linalg.norm(m - dagger(m)) < 1e-10
        solved, solve = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a) or solve(a))
        w, u = eigh(m)
        assert [a.dtype for a in solved] == [complex if dense else np.float64]
        scale = np.linalg.norm(h, 2)
        assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-14 * scale
        assert np.linalg.norm(dagger(u) @ u - np.eye(16)) <= 1e-13
        assert np.abs((u * w) @ dagger(u) - h).max() <= 1e-14 * scale


class TestTridiagonalResidual:
    """hermiticity_residual reads a tridiagonal matrix off its three diagonals."""

    @pytest.mark.parametrize("skew", [0.0, 1e-12, 1e-3])
    def test_residual_is_the_dense_value_with_no_d_by_d_difference(self, skew, monkeypatch):
        rng = np.random.default_rng(8)
        m = tridiagonal(rng, 40) + skew * 1j * tridiagonal(rng, 40)
        dense = np.linalg.norm(m - dagger(m)) / max(1.0, np.linalg.norm(m))
        monkeypatch.setattr(linalg, "dagger", None)  # only the dense path calls it
        got = hermiticity_residual(m)
        assert abs(got - dense) <= 4 * np.finfo(float).eps * dense
        assert (got == 0.0) == (skew == 0.0)

    def test_a_corner_entry_takes_the_dense_path_with_no_band_scan(self, monkeypatch):
        # periodic tridiagonal, anti-Hermitian only in its corner, which the bands miss
        m = tridiagonal(np.random.default_rng(10), 40)
        m[0, -1] = 1e-3
        dense = np.linalg.norm(m - dagger(m)) / max(1.0, np.linalg.norm(m))
        monkeypatch.setattr(linalg.np, "count_nonzero", None)  # the band scan calls it
        assert hermiticity_residual(m) == dense > 0.0

    def test_overflow_keeps_the_dense_semantics(self):
        # a Hermitian 1e200 tridiagonal gives 0/inf = 0; a one-sided one inf/inf = NaN
        hermitian = 1e200 * tridiagonal(np.random.default_rng(9), 6)
        one_sided = np.tril(hermitian)
        with np.errstate(over="ignore"):
            assert hermiticity_residual(hermitian) == 0.0
            assert np.isnan(hermiticity_residual(one_sided))


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

    @pytest.mark.parametrize(
        "m",
        [
            [[0.5, 1e308], [1e308, 0.5]],  # tridiagonal: the real solve gives NaN
            [[0.5, 0, 1e308], [0, 0, 0], [1e308, 0, 0.5]],  # dense: no convergence
        ],
    )
    def test_overflowing_hermitian_part_fails(self, m):
        # (m + m^dag)/2 overflows past half the float range: a package error, with no
        # RuntimeWarning, and never a factor of a spectrum that is not finite
        with pytest.raises((NotPSDError, ConvergenceFailure)):
            psd_factor(np.array(m, dtype=complex))

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

    def test_spectrum_past_the_float_range_is_non_finite_error(self):
        # a Hermitian, finite input whose |eig| sum overflows: numpy's "overflow
        # encountered in reduce", an error in this suite, leaked before the package error
        with pytest.raises(NonFiniteError, match="^trace distance overflows: inf$"):
            trace_distance(np.array([[0.5, 1e308], [1e308, 0.5]]), np.eye(2) / 2)


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
        with pytest.raises(DimensionMismatch):
            negativity(np.ones((4, 3)), 2, 2)

    def test_hermiticity_is_checked_before_the_shape(self):
        # sigma is validated once, by require_hermitian, before its size is compared
        with pytest.raises(NotHermitianError, match="^sigma is not Hermitian"):
            negativity(np.triu(np.ones((6, 6))), 2, 2)

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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim import linalg
from dephasim.errors import CutoffCapExceeded, NonFiniteError, NotHermitianError
from dephasim.fock import (
    EnvDensity,
    FockSpace,
    coherent_amplitudes,
    coherent_state,
    env_from_matrix,
    fock_state,
    suggest_cutoff,
    thermal_state,
)
from dephasim.linalg import dagger, fidelity
from util import annihilation, creation, displacement, displacement_safe_dim, expm, number_op

seeds = st.integers(0, 2**32 - 1)


class TestLadderOperators:
    def test_annihilation_cutoff_2(self):
        assert np.array_equal(annihilation(FockSpace(2)), [[0, 1], [0, 0]])

    def test_number_from_ladder(self):
        space = FockSpace(4)
        assert np.allclose(creation(space) @ annihilation(space), np.diag([0, 1, 2, 3]))
        assert np.array_equal(number_op(space), np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_truncated_commutator(self):
        # [a, a+] = I everywhere except the corner, which reads 1 - M
        m = 8
        space = FockSpace(m)
        a = annihilation(space)
        comm = a @ dagger(a) - dagger(a) @ a
        expected = np.eye(m, dtype=complex)
        expected[m - 1, m - 1] = 1 - m
        assert np.allclose(comm, expected)


class TestThermalState:
    def test_zero_temperature_is_vacuum(self):
        state = thermal_state(0.0, FockSpace(16))
        assert np.array_equal(state.matrix, fock_state(0, FockSpace(16)).matrix)
        assert state.truncated_mass == 0.0

    def test_ground_population(self):
        # geometric normalization over the truncated basis
        q = math.exp(-0.5)
        state = thermal_state(2.0, FockSpace(64))
        expected_p0 = (1 - q) / (1 - q**64)
        assert abs(state.matrix[0, 0].real - expected_p0) <= 1e-14
        assert abs(state.matrix[0, 0].real - 0.393469) <= 1e-6

    @given(theta=st.floats(0.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_unit_trace(self, theta):
        state = thermal_state(theta, FockSpace(32))
        assert abs(np.trace(state.matrix).real - 1.0) <= 1e-12

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0])
    def test_mean_occupation(self, theta):
        q = math.exp(-1.0 / theta)
        state = thermal_state(theta, FockSpace(64))
        mean = np.trace(number_op(FockSpace(64)) @ state.matrix).real
        assert abs(mean - q / (1 - q)) <= 1e-8

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            thermal_state(-0.1, FockSpace(8))


class TestCoherentState:
    def test_zero_is_vacuum(self):
        state = coherent_state(0.0, FockSpace(16))
        assert np.array_equal(state.matrix, fock_state(0, FockSpace(16)).matrix)

    def test_mean_occupation_figure_amplitude(self):
        # <n> = |zeta|^2; amplitude 0.5 e^{i pi/4} gives 0.25
        zeta = 0.5 * np.exp(1j * np.pi / 4)
        space = FockSpace(64)
        state = coherent_state(zeta, space)
        mean = np.trace(number_op(space) @ state.matrix).real
        assert abs(mean - 0.25) <= 1e-12

    def test_purity(self):
        state = coherent_state(0.7 - 0.2j, FockSpace(32))
        assert abs(np.trace(state.matrix @ state.matrix).real - 1.0) <= 1e-10

    def test_matches_displaced_vacuum(self):
        space = FockSpace(32)
        zeta = 0.6 + 0.3j
        displaced = displacement(zeta, space)[:, 0]
        rho = np.outer(displaced, displaced.conj())
        rho /= np.trace(rho).real
        f = fidelity(coherent_state(zeta, space).matrix, rho)
        assert f >= 1.0 - 1e-10

    def test_truncated_mass_recorded(self):
        state = coherent_state(1.0, FockSpace(8))
        # tail of the Poisson weights e^{-1}/n! beyond the basis
        tail = 1.0 - math.exp(-1.0) * sum(1.0 / math.factorial(n) for n in range(8))
        assert abs(state.truncated_mass - tail) <= 1e-12


    @pytest.mark.parametrize(
        "zeta", [0.0, 1e-200, 1.0, 2.5 - 1j, 30.0, -40j, 1e200, 5e153 + 5e153j, 1e308 + 1e308j]
    )
    def test_every_finite_amplitude_is_a_unit_vector(self, zeta):
        space = FockSpace(16)
        state = coherent_state(zeta, space)
        amps = state.factor[:, 0]
        assert np.all(np.isfinite(amps))
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-15
        assert np.array_equal(amps, coherent_amplitudes(zeta, space))
        assert 0.0 <= state.truncated_mass <= 1.0
        if abs(zeta) >= 30:  # the mass inside, below e^{-800}, underflows to 0
            assert state.truncated_mass == 1.0
            assert np.argmax(np.abs(amps)) == 15

    @pytest.mark.parametrize("zeta", [0.5 * np.exp(1j * np.pi / 4), 2.5 - 1j, -3j])
    def test_amplitudes_match_the_closed_form(self, zeta):
        # <n|zeta> = e^{-|zeta|^2/2} zeta^n / sqrt(n!), renormalized; the peak
        # of 2.5 - 1j sits at n = 7 and that of -3j at n = 9
        space = FockSpace(24)
        closed = np.array([zeta**n / math.sqrt(math.factorial(n)) for n in range(24)])
        closed /= np.linalg.norm(closed)
        assert np.abs(coherent_amplitudes(zeta, space) - closed).max() <= 1e-15

    def test_truncated_mass_past_the_peak(self):
        # |zeta|^2 = 6.25: the mass inside cutoff 8 is read from the peak at n = 6
        state = coherent_state(2.5, FockSpace(8))
        inside = math.exp(-6.25) * sum(6.25**n / math.factorial(n) for n in range(8))
        assert abs(state.truncated_mass - (1.0 - inside)) <= 1e-15

    @pytest.mark.parametrize("zeta", [complex("nan"), complex("inf"), complex(1, math.inf)])
    def test_non_finite_amplitude_is_numerical_failure(self, zeta):
        with pytest.raises(NonFiniteError):
            coherent_state(zeta, FockSpace(8))

    def test_pure_states_carry_their_amplitude_column(self):
        space = FockSpace(16)
        level = fock_state(3, space)
        assert np.array_equal(level.factor, np.eye(16, dtype=complex)[:, 3:4])
        assert np.array_equal(level.factor, linalg.psd_factor(level.matrix))
        state = coherent_state(0.7 - 0.2j, space)
        assert np.array_equal(state.factor[:, 0], coherent_amplitudes(0.7 - 0.2j, space))
        assert np.array_equal(state.matrix, np.outer(state.factor, state.factor.conj()))
        assert not state.factor.flags.writeable


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.array_equal(displacement(0.0, FockSpace(8)), np.eye(8))

    def test_vacuum_expectation(self):
        lam = 0.8 - 0.1j
        d = displacement(lam, FockSpace(32))
        assert abs(d[0, 0] - math.exp(-abs(lam) ** 2 / 2)) <= 1e-12

    def test_vacuum_column_is_coherent(self):
        space = FockSpace(24)
        lam = 0.4 + 0.5j
        col = displacement(lam, space)[:, 0]
        amps = coherent_amplitudes(lam, space)
        # the column is unnormalized; compare directions
        overlap = abs(np.vdot(amps, col / np.linalg.norm(col)))
        assert overlap >= 1.0 - 1e-12

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_matches_exponential_on_safe_block(self, seed):
        rng = np.random.default_rng(seed)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        space = FockSpace(64)
        a = annihilation(space)
        direct = expm(lam * dagger(a) - np.conj(lam) * a)
        closed = displacement(lam, space)
        k = displacement_safe_dim(lam, space)
        assert k > 16
        assert np.linalg.norm((closed - direct)[:k, :k]) <= 1e-8

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_round_trip_identity_on_safe_block(self, seed):
        rng = np.random.default_rng(seed)
        lam = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        space = FockSpace(64)
        prod = displacement(lam, space) @ displacement(-lam, space)
        k = displacement_safe_dim(lam, space)
        assert np.linalg.norm((prod - np.eye(space.dim))[:k, :k]) <= 1e-8


class TestEnvDensity:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_constructor_invariants(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 3.0)
        zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for state in (thermal_state(theta, FockSpace(32)), coherent_state(zeta, FockSpace(32))):
            assert abs(np.trace(state.matrix).real - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-10

    def test_matrix_is_frozen(self):
        state = thermal_state(1.0, FockSpace(8))
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            EnvDensity(FockSpace(2), np.eye(2, dtype=complex))

    def test_hermiticity_checked_once(self, monkeypatch):
        calls = []
        check = linalg.hermiticity_residual
        monkeypatch.setattr(linalg, "hermiticity_residual", lambda m: calls.append(m) or check(m))
        env_from_matrix(np.diag([0.5, 0.5]).astype(complex))
        assert len(calls) == 1
        with pytest.raises(NotHermitianError) as err:
            env_from_matrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))
        assert str(err.value) == "environment state is not Hermitian (residual 1.414e-01)"

    def test_from_matrix_infers_space(self):
        state = env_from_matrix(np.diag([0.5, 0.5]).astype(complex))
        assert state.space.cutoff == 2

    def test_fock_level_bounds(self):
        with pytest.raises(ValueError):
            fock_state(8, FockSpace(8))


class TestSuggestCutoff:
    def test_vacuum_with_moderate_displacement(self):
        assert suggest_cutoff(theta=0.0, max_displacement=0.8) == 16

    def test_thermal_tail_requirement(self):
        # smallest M with e^{-M/2} < 1e-12 in the doubling ladder is 64
        m = suggest_cutoff(theta=2.0)
        assert m == 64
        assert math.exp(-m / 2.0) < 1e-12
        assert math.exp(-(m // 2) / 2.0) >= 1e-12

    def test_floor(self):
        assert suggest_cutoff(theta=0.0, max_displacement=0.0) == 16

    def test_cap_exceeded(self):
        with pytest.raises(CutoffCapExceeded):
            suggest_cutoff(theta=512.0)

    def test_displacement_reach(self):
        # a coherent R(0) at |zeta| = 1 driven a further 2 out
        m = suggest_cutoff(theta=0.0, max_displacement=1.0 + 2.0)
        assert (1.0 + 2.0) ** 2 <= m / 4

    def test_reach_boundary_within_roundoff(self):
        # one ulp above 2 squares to 4 + 1.8e-15, on the cutoff-16 rung up to
        # roundoff; a relative excess of 1e-9 is a real one and moves up the ladder
        assert suggest_cutoff(max_displacement=math.nextafter(2.0, 3.0)) == 16
        assert suggest_cutoff(max_displacement=2.0 * math.sqrt(1 + 1e-9)) == 32

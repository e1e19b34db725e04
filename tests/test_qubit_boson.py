import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim.dephasing import blocks_at, equal_superposition, propagators_at
from dephasim.entanglement import qee_measure, type1_residuals
from dephasim.fock import FockSpace, coherent_state, thermal_state
from dephasim.linalg import dagger, frobenius
from dephasim.qubit_boson import (
    AlphaSegment,
    QubitBosonParams,
    branch_generator,
    build_schedule,
)
from util import (
    analytic_propagator_piece,
    displacement_safe_dim,
    expm,
    normalized_coherence,
    phase1_coherence_oracle,
)

EQUAL = equal_superposition(2)
ALPHA_FIG = (1 + 1j) / 2


def stepped_params(cutoff=32, gamma=0.0):
    return QubitBosonParams(
        beta=1.0,
        segments=(
            AlphaSegment(duration=2.0, alpha=0.0, gamma=gamma),
            AlphaSegment(duration=2.0, alpha=ALPHA_FIG, gamma=gamma),
            AlphaSegment(duration=2.0, alpha=0.0, gamma=gamma),
        ),
        cutoff=cutoff,
    )


def phase_stripped_distance(a, b):
    tr = np.trace(dagger(a) @ b)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return frobenius(a * phase - b)


class TestBuildSchedule:
    def test_undriven_generator_is_diagonal(self):
        space = FockSpace(8)
        v0 = branch_generator(0.0, 1.0, 0.0, space, 0)
        assert np.allclose(v0, np.diag(np.arange(8, dtype=float)))

    def test_stepped_schedule_structure(self):
        s = build_schedule(stepped_params())
        assert s.system_dim == 2
        assert [seg.duration for seg in s.segments] == [2.0, 2.0, 2.0]
        assert np.allclose(s.boundaries, [0.0, 2.0, 4.0, 6.0])
        mid = s.segments[1].generators[0]
        space = FockSpace(32)
        assert frobenius(mid - branch_generator(ALPHA_FIG, 1.0, 0.0, space, 0)) == 0.0

    def test_branches_differ_only_by_sign(self):
        s = build_schedule(stepped_params())
        for seg in s.segments:
            assert np.array_equal(seg.generators[1], -seg.generators[0])

    @given(t=st.floats(0.0, 6.0))
    @settings(max_examples=20, deadline=None)
    def test_conjugate_branch_propagators_constant_drive(self, t):
        # for a constant drive the opposite-sign generators make w_0(t) the
        # adjoint of w_1(t) at every time
        params = QubitBosonParams(
            beta=1.0,
            segments=(AlphaSegment(duration=6.0, alpha=ALPHA_FIG),),
            cutoff=16,
        )
        props = propagators_at(build_schedule(params), t)
        assert frobenius(props[0] - dagger(props[1])) <= 1e-10

    def test_conjugate_branch_relation_under_stepped_drive(self):
        # with non-commuting steps the adjoint relation survives only through
        # the first segment; taking the adjoint reverses the chronological
        # order, so it breaks once a second, non-commuting segment has acted
        # (verified against fine-step chronological products)
        s = build_schedule(stepped_params(cutoff=16))
        early = propagators_at(s, 1.5)
        assert frobenius(early[0] - dagger(early[1])) <= 1e-10
        late = propagators_at(s, 5.0)
        assert frobenius(late[0] - dagger(late[1])) > 1e-2

    def test_branch_product_scalar_at_matched_undriven_tails(self):
        # w_0 w_1 collapses to a scalar phase when the undriven intervals
        # before and after the drive have equal length; gamma cancels in the
        # product because the branches carry opposite scalar phases
        s = build_schedule(stepped_params(cutoff=16, gamma=0.4))
        for t in (0.5, 1.9, 6.0):
            props = propagators_at(s, t)
            prod = props[0] @ props[1]
            scale = prod[0, 0]
            assert abs(abs(scale) - 1.0) <= 1e-10
            assert frobenius(prod - scale * np.eye(16)) <= 1e-9
        mid = propagators_at(s, 5.0)
        prod = mid[0] @ mid[1]
        assert frobenius(prod - prod[0, 0] * np.eye(16)) > 1e-2


class TestAnalyticPiece:
    def test_undriven_reduces_to_rotation(self):
        space = FockSpace(16)
        t = 0.83
        for branch, sign in ((0, 1.0), (1, -1.0)):
            piece = analytic_propagator_piece(0.0, 1.0, t, branch, space)
            expected = np.diag(np.exp(-1j * sign * np.arange(16) * t))
            assert frobenius(piece - expected) <= 1e-12

    def test_full_period_is_identity_up_to_phase(self):
        # at t = 2 pi / beta the displacement closes and the rotation unwinds
        space = FockSpace(32)
        t = 2 * math.pi
        piece = analytic_propagator_piece(ALPHA_FIG, 1.0, t, 0, space)
        assert frobenius(piece - np.eye(32)) <= 1e-10
        exact = analytic_propagator_piece(ALPHA_FIG, 1.0, t, 0, space, exact_phase=True)
        phase = np.exp(1j * abs(ALPHA_FIG) ** 2 * t)
        assert frobenius(exact - phase * np.eye(32)) <= 1e-10

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_matches_direct_exponential(self, t, branch):
        space = FockSpace(64)
        sign = 1.0 if branch == 0 else -1.0
        direct = expm(-1j * branch_generator(ALPHA_FIG, 1.0, 0.0, space, branch) * t)
        piece = analytic_propagator_piece(ALPHA_FIG, 1.0, t, branch, space)
        lam = ALPHA_FIG * (np.exp(-1j * sign * t) - 1.0)
        k = displacement_safe_dim(lam, space)
        assert phase_stripped_distance(piece[:k, :k], direct[:k, :k]) <= 1e-8

    @pytest.mark.parametrize("branch", [0, 1])
    def test_exact_phase_restores_global_phase(self, branch):
        # with the scalar prefactor the closed form equals the exponential
        # without any phase stripping
        space = FockSpace(64)
        t = 1.3
        sign = 1.0 if branch == 0 else -1.0
        direct = expm(-1j * branch_generator(ALPHA_FIG, 1.0, 0.0, space, branch) * t)
        exact = analytic_propagator_piece(ALPHA_FIG, 1.0, t, branch, space, exact_phase=True)
        lam = ALPHA_FIG * (np.exp(-1j * sign * t) - 1.0)
        k = displacement_safe_dim(lam, space)
        assert frobenius((exact - direct)[:k, :k]) <= 1e-8

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            analytic_propagator_piece(0.1, 0.0, 1.0, 0, FockSpace(8))

    def test_three_phase_composition_matches_engine(self):
        # chaining the exact-phase closed forms across the stepped drive
        # reproduces the schedule engine's propagator
        space = FockSpace(64)
        s = build_schedule(stepped_params(cutoff=64))
        t = 5.0
        for branch in (0, 1):
            composed = (
                analytic_propagator_piece(0.0, 1.0, 1.0, branch, space, exact_phase=True)
                @ analytic_propagator_piece(ALPHA_FIG, 1.0, 2.0, branch, space, exact_phase=True)
                @ analytic_propagator_piece(0.0, 1.0, 2.0, branch, space, exact_phase=True)
            )
            engine = propagators_at(s, t)[branch]
            lam = ALPHA_FIG * 2.0  # largest displacement reach of the middle phase
            k = displacement_safe_dim(lam, space)
            assert frobenius((composed - engine)[:k, :k]) <= 1e-8


class TestPhase1CoherenceOracle:
    def test_zero_temperature(self):
        for t in (0.0, 0.4, 2.0):
            assert phase1_coherence_oracle(0.0, t) == 1.0

    def test_half_pi_value(self):
        q = math.exp(-0.5)
        expected = (1 - q) / (1 + q)
        assert abs(phase1_coherence_oracle(2.0, math.pi / 2) - expected) <= 1e-15
        assert abs(expected - 0.244919) <= 1e-6

    def test_full_revival(self):
        assert abs(phase1_coherence_oracle(2.0, math.pi) - 1.0) <= 1e-12

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_simulation_matches_oracle(self, theta):
        space = FockSpace(64)
        env = thermal_state(theta, space)
        s = build_schedule(
            QubitBosonParams(
                beta=1.0, segments=(AlphaSegment(duration=2.0, alpha=0.0),), cutoff=64
            )
        )
        for t in np.linspace(0.0, 2.0, 21):
            blocks = blocks_at(s, env, EQUAL, float(t))
            simulated = normalized_coherence(blocks, 0, 1)
            assert abs(simulated - phase1_coherence_oracle(theta, float(t))) <= 1e-8


class TestEntanglementBehavior:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
    def test_thermal_undriven_never_entangles(self, theta):
        env = thermal_state(theta, FockSpace(32))
        s = build_schedule(
            QubitBosonParams(
                beta=1.0, segments=(AlphaSegment(duration=6.0, alpha=0.0),), cutoff=32
            )
        )
        for t in np.linspace(0.0, 6.0, 13):
            blocks = blocks_at(s, env, EQUAL, float(t))
            e = qee_measure(EQUAL, blocks.blocks[0, 0], blocks.blocks[1, 1])
            assert e <= 1e-10

    def test_coherent_undriven_entangles(self):
        # counter-rotating coherent states differ for 0 < t < pi
        env = coherent_state(0.5 * np.exp(1j * np.pi / 4), FockSpace(32))
        s = build_schedule(
            QubitBosonParams(
                beta=1.0, segments=(AlphaSegment(duration=3.0, alpha=0.0),), cutoff=32
            )
        )
        for t in (0.3, 1.0, 2.0, 3.0):
            blocks = blocks_at(s, env, EQUAL, t)
            residuals = type1_residuals(blocks)
            assert max(r.residual for r in residuals) > 1e-6

    def test_gamma_does_not_change_observables(self):
        env = thermal_state(2.0, FockSpace(16))
        base = build_schedule(stepped_params(cutoff=16, gamma=0.0))
        shifted = build_schedule(stepped_params(cutoff=16, gamma=0.7))
        for t in (1.0, 3.0, 5.5):
            b0 = blocks_at(base, env, EQUAL, t)
            b1 = blocks_at(shifted, env, EQUAL, t)
            e0 = qee_measure(EQUAL, b0.blocks[0, 0], b0.blocks[1, 1])
            e1 = qee_measure(EQUAL, b1.blocks[0, 0], b1.blocks[1, 1])
            assert abs(e0 - e1) <= 1e-10
            assert abs(
                normalized_coherence(b0, 0, 1) - normalized_coherence(b1, 0, 1)
            ) <= 1e-10

    def test_entanglement_keeps_evolving_after_drive_stops(self):
        env = thermal_state(2.0, FockSpace(32))
        s = build_schedule(stepped_params(cutoff=32))
        values = []
        for t in np.linspace(4.0, 6.0, 21):
            blocks = blocks_at(s, env, EQUAL, float(t))
            values.append(qee_measure(EQUAL, blocks.blocks[0, 0], blocks.blocks[1, 1]))
        assert max(values) - min(values) > 1e-4


class TestParamsValidation:
    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            QubitBosonParams(beta=0.0, segments=(AlphaSegment(1.0, 0.0),), cutoff=8)

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            QubitBosonParams(beta=1.0, segments=(), cutoff=8)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            AlphaSegment(duration=-1.0, alpha=0.0)

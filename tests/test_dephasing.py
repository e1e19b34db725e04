import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim.dephasing import (
    Segment,
    SegmentSchedule,
    blocks_at,
    blocks_from_propagators,
    equal_superposition,
    joint_state,
    propagators_at,
    segment_chunks,
    validate_schedule,
)
from dephasim import dephasing
from dephasim.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EmptySchedule,
    NonFiniteError,
    NotHermitianGenerator,
    NotNormalizedError,
    TimeOutOfRange,
)
from dephasim.fock import FockSpace, env_from_matrix, thermal_state
from dephasim.linalg import dagger, hermiticity_residual, trace_distance
from dephasim.qubit_boson import AlphaSegment, QubitBosonParams, build_schedule
from util import (
    PAULI_X,
    PAULI_Z,
    chunk_stacks,
    expm,
    normalized_coherence,
    random_complex,
    random_density,
    random_hermitian,
    random_pure_density,
)

seeds = st.integers(0, 2**32 - 1)


def make_schedule(rng, n_sys=2, env_dim=4, n_segments=2, durations=None):
    segments = []
    for k in range(n_segments):
        gens = tuple(random_hermitian(rng, env_dim) for _ in range(n_sys))
        d = durations[k] if durations else float(rng.uniform(0.3, 1.5))
        segments.append(Segment(duration=d, generators=gens))
    return SegmentSchedule(system_dim=n_sys, env_dim=env_dim, segments=tuple(segments))


def qubit_env(rng, env_dim=4):
    return env_from_matrix(random_density(rng, env_dim))


class TestValidateSchedule:
    def test_valid_schedule_reports(self):
        rng = np.random.default_rng(0)
        s = make_schedule(rng, n_segments=3)
        diag = validate_schedule(s)
        assert diag.shape == (3, s.system_dim)
        assert diag.max() <= 1e-12

    def test_flags_anti_hermitian_part(self):
        rng = np.random.default_rng(1)
        bad = random_hermitian(rng, 4)
        bad = bad + 1e-3 * (np.eye(4) * 1j)
        s = SegmentSchedule(
            system_dim=2,
            env_dim=4,
            segments=(Segment(duration=1.0, generators=(random_hermitian(rng, 4), bad)),),
        )
        with pytest.raises(NotHermitianGenerator):
            validate_schedule(s)

    def test_overflowing_residual_rejected(self):
        # residual and norm both overflow to inf, so the relative residual is NaN
        huge = np.array([[0, 1e200], [0, 0]], dtype=complex)
        s = SegmentSchedule(
            system_dim=2, env_dim=2, segments=(Segment(duration=1.0, generators=(huge, huge)),)
        )
        with pytest.raises(NotHermitianGenerator), np.errstate(over="ignore"):
            validate_schedule(s)

    def test_huge_hermitian_generator_passes(self):
        huge = 1e200 * PAULI_X
        s = SegmentSchedule(
            system_dim=2, env_dim=2, segments=(Segment(duration=1.0, generators=(huge, huge)),)
        )
        with np.errstate(over="ignore"):
            assert validate_schedule(s).max() == 0.0  # 0/inf

    def test_negated_generator_reuses_the_residual(self, monkeypatch):
        # the residual of -g0 is that of g0 bit for bit, so it is computed once
        rng = np.random.default_rng(3)
        segments = []
        for _ in range(2):
            g0 = random_hermitian(rng, 4) + 1e-12 * random_complex(rng, (4, 4))
            g2 = random_hermitian(rng, 4) + 1e-11 * random_complex(rng, (4, 4))
            segments.append(Segment(duration=1.0, generators=(g0, -g0, g2)))
        s = SegmentSchedule(system_dim=3, env_dim=4, segments=tuple(segments))
        expected = np.array([[hermiticity_residual(g) for g in seg.generators] for seg in segments])
        calls = []
        monkeypatch.setattr(
            dephasing, "hermiticity_residual", lambda g: calls.append(g) or hermiticity_residual(g)
        )
        got = validate_schedule(s)
        assert got.tobytes() == expected.tobytes() and expected.min() > 0
        assert len(calls) == 4

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_generator_is_named(self, bad):
        g = np.diag([0.0, 1.0, bad, bad]).astype(complex)
        s = SegmentSchedule(
            system_dim=2,
            env_dim=4,
            segments=(
                Segment(duration=1.0, generators=(np.eye(4), -np.eye(4))),
                Segment(duration=1.0, generators=(g, -g)),
            ),
        )
        with pytest.raises(NonFiniteError) as err:
            validate_schedule(s)
        assert str(err.value) == (
            "generator 0 of segment 1 has 2 non-finite entries, the first at (2, 2)"
        )

    def test_empty_schedule(self):
        # a schedule has a segment by construction, so no consumer checks again
        with pytest.raises(EmptySchedule, match="^schedule has no segments$"):
            SegmentSchedule(system_dim=2, env_dim=4, segments=())

    def test_structural_checks_at_construction(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            Segment(duration=0.0, generators=(random_hermitian(rng, 2),))
        with pytest.raises(DimensionMismatch):
            SegmentSchedule(
                system_dim=3,
                env_dim=2,
                segments=(Segment(duration=1.0, generators=(np.eye(2), np.eye(2))),),
            )


class TestPropagators:
    def test_identity_at_time_zero(self):
        s = make_schedule(np.random.default_rng(3))
        props = propagators_at(s, 0.0)
        for w in props:
            assert np.allclose(w, np.eye(s.env_dim))

    def test_semigroup_within_segment(self):
        rng = np.random.default_rng(4)
        s = make_schedule(rng, n_segments=1, durations=[2.0])
        t1, t2 = 0.6, 0.9
        w_sum = propagators_at(s, t1 + t2)
        w1 = propagators_at(s, t1)
        w2 = propagators_at(s, t2)
        for i in range(2):
            assert np.linalg.norm(w2[i] @ w1[i] - w_sum[i]) <= 1e-9

    def test_time_ordering_against_fine_steps(self):
        # two non-commuting segments; chronological product of small steps
        rng = np.random.default_rng(5)
        s = make_schedule(rng, env_dim=4, n_segments=2, durations=[0.25, 0.4])
        dt = 1e-3
        for i in range(2):
            u = np.eye(4, dtype=complex)
            for k, seg in enumerate(s.segments):
                step = expm(-1j * seg.generators[i] * dt)
                for _ in range(round(seg.duration / dt)):
                    u = step @ u
            w = propagators_at(s, 0.65)[i]
            assert np.linalg.norm(w - u) <= 1e-6

    def test_product_order_matters(self):
        rng = np.random.default_rng(6)
        g1, g2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        s = SegmentSchedule(
            system_dim=2,
            env_dim=3,
            segments=(
                Segment(duration=0.7, generators=(g1, g1)),
                Segment(duration=0.5, generators=(g2, g2)),
            ),
        )
        w = propagators_at(s, 1.2)[0]
        correct = expm(-1j * g2 * 0.5) @ expm(-1j * g1 * 0.7)
        swapped = expm(-1j * g1 * 0.7) @ expm(-1j * g2 * 0.5)
        assert np.linalg.norm(w - correct) <= 1e-10
        assert np.linalg.norm(w - swapped) > 1e-3

    def test_out_of_range(self):
        s = make_schedule(np.random.default_rng(7), durations=[1.0, 1.0])
        with pytest.raises(TimeOutOfRange):
            propagators_at(s, -0.5)
        with pytest.raises(TimeOutOfRange):
            propagators_at(s, 2.5)

    @given(seed=seeds, frac=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_unitarity_at_all_times(self, seed, frac):
        rng = np.random.default_rng(seed)
        s = make_schedule(rng, n_sys=3, env_dim=4, n_segments=2)
        props = propagators_at(s, frac * s.total_duration)
        for w in props:
            assert np.linalg.norm(dagger(w) @ w - np.eye(4)) <= 1e-9

    def test_undriven_step_past_half_the_float_range_is_finite(self):
        # beta n reaches 1.27e308 at cutoff 128: (d + conj d)/2 overflowed to inf and gave
        # NaN propagators; the Hermitian part of a diagonal is its real part, with no sum
        params = QubitBosonParams(beta=1e306, segments=(AlphaSegment(1.0, 0),), cutoff=128)
        for w in propagators_at(build_schedule(params), 0.5):
            assert np.all(np.isfinite(w))
            assert np.abs(np.abs(np.diagonal(w)) - 1.0).max() <= 1e-15

    def test_phase_past_the_float_range_is_non_finite_error(self):
        # w tau = 1.27e308 * 3 overflows: the error evaluate raises, with no RuntimeWarning
        params = QubitBosonParams(beta=1e306, segments=(AlphaSegment(4.0, 0),), cutoff=128)
        with pytest.raises(NonFiniteError, match=r"^evolved state is not finite at t = 3\.0$"):
            propagators_at(build_schedule(params), 3.0)


def evolved_factors(sched, a, times):
    """(w_0(t) A, ..., w_{N-1}(t) A) for each t in times, read from the segment_chunks stacks."""
    return [ys for _, stacks in chunk_stacks(sched, a, times) for ys in zip(*stacks)]


class TestEvolveFactor:
    """segment_chunks evolves a factor A to w_i(t) A, as the propagators do."""

    @given(seed=seeds, rank=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matches_propagators(self, seed, rank):
        rng = np.random.default_rng(seed)
        sched = make_schedule(rng, n_sys=3, env_dim=5, n_segments=3)
        a = rng.normal(size=(5, rank)) + 1j * rng.normal(size=(5, rank))
        bounds = sched.boundaries
        times = [0.0, *bounds[1:], *rng.uniform(0.0, bounds[-1], size=4)]
        for t, ys in zip(times, evolved_factors(sched, a, times)):
            props = propagators_at(sched, t)
            assert len(ys) == 3
            for w, y in zip(props, ys):
                assert np.linalg.norm(y - w @ a) <= 1e-12 * max(1.0, np.linalg.norm(a))

    @given(seed=seeds, rank=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matches_segment_exponentials(self, seed, rank):
        # independent oracle: the chronological product of expm per segment
        rng = np.random.default_rng(seed)
        sched = make_schedule(rng, n_sys=3, env_dim=5, n_segments=3)
        a = rng.normal(size=(5, rank)) + 1j * rng.normal(size=(5, rank))
        bounds = sched.boundaries
        times, oracle = [], []
        start = [a] * 3
        for k, seg in enumerate(sched.segments):
            for tau in (0.0, seg.duration / 2):
                times.append(bounds[k] + tau)
                oracle.append([expm(-1j * g * tau) @ y for g, y in zip(seg.generators, start)])
            start = [expm(-1j * g * seg.duration) @ y for g, y in zip(seg.generators, start)]
        times.append(bounds[-1])
        oracle.append(start)
        got = evolved_factors(sched, a, times)
        assert len(got) == len(times)
        for ys, refs in zip(got, oracle):
            for y, ref in zip(ys, refs):
                assert np.linalg.norm(y - ref) <= 1e-12 * max(1.0, np.linalg.norm(a))

    def test_overflowing_hermitian_part_is_convergence_failure(self):
        # alpha 1e308 overflows the Hermitian part (sub + conj(sup))/2: the package
        # error, with no RuntimeWarning before it
        params = QubitBosonParams(beta=1.0, segments=(AlphaSegment(1.0, 1e308),), cutoff=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceFailure, match="did not converge"):
                propagators_at(build_schedule(params), 0.5)

    def test_dimension_mismatch(self):
        sched = make_schedule(np.random.default_rng(0), env_dim=4)
        with pytest.raises(DimensionMismatch):
            next(segment_chunks(sched, np.ones((3, 1), dtype=complex), [0.0]))

    def test_out_of_range(self):
        sched = make_schedule(np.random.default_rng(0), durations=[1.0, 1.0])
        with pytest.raises(TimeOutOfRange):
            list(segment_chunks(sched, np.ones((4, 1), dtype=complex), [1.0, 2.5]))

    def test_nan_time_is_out_of_range(self):
        # a NaN time is rejected, not evolved into NaN factors
        sched = make_schedule(np.random.default_rng(0), durations=[1.0, 1.0])
        with pytest.raises(TimeOutOfRange):
            list(segment_chunks(sched, np.ones((4, 1), dtype=complex), [float("nan")]))

    def test_no_times(self):
        sched = make_schedule(np.random.default_rng(0))
        assert list(segment_chunks(sched, np.ones((4, 1), dtype=complex), [])) == []


class TestBlocks:
    def test_initial_blocks_equal_initial_state(self):
        rng = np.random.default_rng(8)
        s = make_schedule(rng)
        env = qubit_env(rng)
        blocks = blocks_at(s, env, equal_superposition(2), 0.0)
        for i in range(2):
            for j in range(2):
                assert np.allclose(blocks.blocks[i, j], env.matrix)

    def test_diagonal_generators_leave_diagonal_env_fixed(self):
        space = FockSpace(8)
        env = thermal_state(1.5, space)
        diag_gen = np.diag(np.arange(8, dtype=float)).astype(complex)
        s = SegmentSchedule(
            system_dim=2,
            env_dim=8,
            segments=(Segment(duration=2.0, generators=(diag_gen, -diag_gen)),),
        )
        blocks = blocks_at(s, env, equal_superposition(2), 1.3)
        for i in range(2):
            assert trace_distance(blocks.blocks[i, i], env.matrix) <= 1e-12

    def test_pure_env_stays_pure(self):
        rng = np.random.default_rng(9)
        s = make_schedule(rng)
        env = env_from_matrix(random_pure_density(rng, 4))
        blocks = blocks_at(s, env, equal_superposition(2), 0.8)
        for i in range(2):
            r = blocks.blocks[i, i]
            assert abs(np.trace(r @ r).real - 1.0) <= 1e-9

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_block_invariants(self, seed):
        rng = np.random.default_rng(seed)
        s = make_schedule(rng, n_sys=3)
        env = qubit_env(rng)
        blocks = blocks_at(s, env, equal_superposition(3), 0.5 * s.total_duration)
        for i in range(3):
            assert abs(np.trace(blocks.blocks[i, i]).real - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(blocks.blocks[i, i])[0] >= -1e-10
            for j in range(3):
                assert np.linalg.norm(blocks.blocks[j, i] - dagger(blocks.blocks[i, j])) <= 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        s = make_schedule(rng, env_dim=4)
        env = qubit_env(rng, env_dim=6)
        with pytest.raises(DimensionMismatch):
            blocks_at(s, env, equal_superposition(2), 0.1)

    def test_degenerate_amplitudes_allowed(self):
        rng = np.random.default_rng(11)
        s = make_schedule(rng)
        env = qubit_env(rng)
        blocks = blocks_at(s, env, np.array([1.0, 0.0]), 0.4)
        assert abs(np.trace(blocks.blocks[1, 1]).real - 1.0) <= 1e-8

    def test_nan_amplitude_rejected(self):
        # |c|^2 = NaN used to pass the norm check the config already applied
        rng = np.random.default_rng(12)
        with pytest.raises(NotNormalizedError):
            blocks_at(make_schedule(rng), qubit_env(rng), [np.nan, 1.0], 0.4)


class TestJointState:
    def test_product_at_time_zero(self):
        rng = np.random.default_rng(12)
        s = make_schedule(rng)
        env = qubit_env(rng)
        c = equal_superposition(2)
        sigma = joint_state(blocks_at(s, env, c, 0.0))
        system = np.outer(c, c.conj())
        assert np.allclose(sigma, np.kron(system, env.matrix))

    def test_purity_preserved(self):
        rng = np.random.default_rng(13)
        s = make_schedule(rng)
        env = env_from_matrix(random_pure_density(rng, 4))
        sigma = joint_state(blocks_at(s, env, equal_superposition(2), 1.0))
        assert abs(np.trace(sigma @ sigma).real - 1.0) <= 1e-8

    def test_matches_full_matrix_evolution(self):
        # independent oracle: exponentiate the full joint Hamiltonian per segment
        rng = np.random.default_rng(14)
        env_dim = 2
        s = make_schedule(rng, env_dim=env_dim, n_segments=2, durations=[0.8, 0.6])
        env = qubit_env(rng, env_dim=env_dim)
        c = np.array([0.6, 0.8], dtype=complex)
        t = s.total_duration
        u_full = np.eye(2 * env_dim, dtype=complex)
        for seg in s.segments:
            h_joint = np.zeros((2 * env_dim, 2 * env_dim), dtype=complex)
            for i in range(2):
                proj = np.zeros((2, 2))
                proj[i, i] = 1.0
                h_joint += np.kron(proj, seg.generators[i])
            u_full = expm(-1j * h_joint * seg.duration) @ u_full
        sigma0 = np.kron(np.outer(c, c.conj()), env.matrix)
        expected = u_full @ sigma0 @ dagger(u_full)
        sigma = joint_state(blocks_at(s, env, c, t))
        assert np.linalg.norm(sigma - expected) <= 1e-10

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_spectrum_preserved(self, seed):
        rng = np.random.default_rng(seed)
        s = make_schedule(rng)
        env = qubit_env(rng)
        c = equal_superposition(2)
        spec0 = np.linalg.eigvalsh(joint_state(blocks_at(s, env, c, 0.0)))
        spec1 = np.linalg.eigvalsh(joint_state(blocks_at(s, env, c, s.total_duration)))
        assert np.max(np.abs(spec0 - spec1)) <= 1e-8

    def test_trace_one_and_hermitian(self):
        rng = np.random.default_rng(15)
        s = make_schedule(rng, n_sys=3)
        env = qubit_env(rng)
        sigma = joint_state(blocks_at(s, env, equal_superposition(3), 0.3))
        assert abs(np.trace(sigma).real - 1.0) <= 1e-10
        assert np.linalg.norm(sigma - dagger(sigma)) <= 1e-10
        assert np.linalg.eigvalsh(sigma)[0] >= -1e-9


class TestGaugeAndRefinement:
    @given(seed=seeds, shift=st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_scalar_shift_gauge(self, seed, shift):
        # adding eps*I to a generator multiplies w by a phase: conditional
        # states and |Tr R_ij| cannot change
        rng = np.random.default_rng(seed)
        base = random_hermitian(rng, 4)
        other = random_hermitian(rng, 4)
        env = qubit_env(rng)
        c = equal_superposition(2)

        def outputs(g0):
            s = SegmentSchedule(
                system_dim=2,
                env_dim=4,
                segments=(Segment(duration=1.1, generators=(g0, other)),),
            )
            blocks = blocks_at(s, env, c, 0.7)
            return blocks.blocks[0, 0], abs(np.trace(blocks.blocks[0, 1]))

        r_base, coh_base = outputs(base)
        r_shift, coh_shift = outputs(base + shift * np.eye(4))
        assert trace_distance(r_base, r_shift) <= 1e-10
        assert abs(coh_base - coh_shift) <= 1e-10

    @given(seed=seeds, split=st.floats(0.1, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_segment_refinement(self, seed, split):
        rng = np.random.default_rng(seed)
        g = tuple(random_hermitian(rng, 4) for _ in range(2))
        env = qubit_env(rng)
        c = equal_superposition(2)
        whole = SegmentSchedule(
            system_dim=2, env_dim=4, segments=(Segment(duration=1.0, generators=g),)
        )
        halved = SegmentSchedule(
            system_dim=2,
            env_dim=4,
            segments=(
                Segment(duration=split, generators=g),
                Segment(duration=1.0 - split, generators=g),
            ),
        )
        b1 = blocks_at(whole, env, c, 1.0)
        b2 = blocks_at(halved, env, c, 1.0)
        assert np.linalg.norm(b1.blocks - b2.blocks) <= 1e-10


class TestCoherence:
    def test_initial_value(self):
        rng = np.random.default_rng(16)
        s = make_schedule(rng)
        blocks = blocks_at(s, qubit_env(rng), equal_superposition(2), 0.0)
        assert abs(normalized_coherence(blocks, 0, 1) - 1.0) <= 1e-12


def test_equal_superposition_normalized():
    for n in (2, 3, 7):
        c = equal_superposition(n)
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12


def test_blocks_from_propagators_matches_blocks_at():
    rng = np.random.default_rng(19)
    s = make_schedule(rng)
    env = qubit_env(rng)
    c = equal_superposition(2)
    props = propagators_at(s, 0.9)
    direct = blocks_from_propagators(props, env, c)
    via_schedule = blocks_at(s, env, c, 0.9)
    assert np.allclose(direct.blocks, via_schedule.blocks)


def test_pauli_constants_available():
    assert np.linalg.norm(PAULI_X @ PAULI_Z + PAULI_Z @ PAULI_X) == 0.0

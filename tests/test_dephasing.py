import tracemalloc
import warnings
from unittest import mock

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
from dephasim import dephasing, linalg
from dephasim.errors import (
    ConvergenceFailure,
    DephasimError,
    DimensionMismatch,
    EmptySchedule,
    InvalidArgument,
    NonFiniteError,
    NotHermitianGenerator,
    NotNormalizedError,
    TimeOutOfRange,
)
from dephasim.fock import FockSpace, env_from_matrix, thermal_state
from dephasim.linalg import dagger, eigh, hermiticity_residual, trace_distance
from dephasim.qubit_boson import AlphaSegment, QubitBosonParams, build_schedule
from util import (
    PAULI_X,
    PAULI_Z,
    branch_generator,
    chunk_stacks,
    expm,
    generator_matrices,
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
        with pytest.raises(NotHermitianGenerator):
            SegmentSchedule(
                system_dim=2,
                env_dim=4,
                segments=(Segment(duration=1.0, generators=(random_hermitian(rng, 4), bad)),),
            )

    def test_a_non_hermitian_schedule_cannot_be_evaluated(self):
        # the schedule used to build, and evaluate gave E = 0.0491 and type1_max = 0.222
        # from the generator's Hermitian part, with no error
        g = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianGenerator, match=(
            "^generator 0 of segment 0 has relative anti-Hermitian residual 1.414e\\+00$"
        )):
            SegmentSchedule(2, 2, (Segment(1.0, (g, -g)),))

    def test_overflowing_residual_rejected(self):
        # residual and norm both overflow to inf, so the relative residual is NaN
        huge = np.array([[0, 1e200], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianGenerator), np.errstate(over="ignore"):
            SegmentSchedule(
                system_dim=2, env_dim=2, segments=(Segment(duration=1.0, generators=(huge, huge)),)
            )

    def test_huge_hermitian_generator_passes(self):
        huge = 1e200 * PAULI_X
        s = SegmentSchedule(
            system_dim=2, env_dim=2, segments=(Segment(duration=1.0, generators=(huge, huge)),)
        )
        with np.errstate(over="ignore"):
            assert validate_schedule(s).max() == 0.0  # 0/inf

    def test_negated_generator_has_the_residual_bit_for_bit(self, monkeypatch):
        # the residual of -g0 is that of g0 bit for bit; every generator's is computed,
        # from what its Segment read once, when it was built: these dense generators are
        # held as matrices, which linalg reads again only to their nonzero corners
        calls, scans, rereads, bands = [], [], [], dephasing._bands
        monkeypatch.setattr(dephasing, "_bands", lambda g: scans.append(g) or bands(g))
        monkeypatch.setattr(linalg, "_bands", lambda g: rereads.append(g) or bands(g))
        rng = np.random.default_rng(3)
        segments = []
        for _ in range(2):
            g0 = random_hermitian(rng, 4) + 1e-12 * random_complex(rng, (4, 4))
            g2 = random_hermitian(rng, 4) + 1e-11 * random_complex(rng, (4, 4))
            segments.append(Segment(duration=1.0, generators=(g0, -g0, g2)))
        s = SegmentSchedule(system_dim=3, env_dim=4, segments=tuple(segments))
        assert len(scans) == 6
        expected = np.array(
            [[hermiticity_residual(g) for g in generator_matrices(seg)] for seg in segments]
        )
        monkeypatch.setattr(
            dephasing, "hermiticity_residual", lambda g: calls.append(g) or hermiticity_residual(g)
        )
        rereads.clear()
        got = validate_schedule(s)
        assert got.tobytes() == expected.tobytes() and expected.min() > 0
        assert got[:, 0].tobytes() == got[:, 1].tobytes()
        assert len(calls) == 6
        assert len(s._eigensystems) == 2 and len(scans) == 6  # validation and eigh read no more
        assert len(rereads) == 10 and all(g[0, -1] != 0 for g in rereads)  # 6 residuals, 4 eighs

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_generator_is_named(self, bad):
        g = np.diag([0.0, 1.0, bad, bad]).astype(complex)
        with pytest.raises(NonFiniteError) as err:
            SegmentSchedule(
                system_dim=2,
                env_dim=4,
                segments=(
                    Segment(duration=1.0, generators=(np.eye(4), -np.eye(4))),
                    Segment(duration=1.0, generators=(g, -g)),
                ),
            )
        assert str(err.value) == (
            "generator 0 of segment 1 has 2 non-finite entries, the first at (2, 2)"
        )

    @pytest.mark.parametrize("beta, alpha, first", [
        (1e308, 0.0, "2 non-finite entries, the first at (2, 2)"),
        (1.0, 1.5e308, "4 non-finite entries, the first at (1, 2)"),
    ], ids=["diagonal", "off-diagonals"])
    def test_non_finite_band_is_named_as_in_its_matrix(self, beta, alpha, first):
        # a generator held as its bands reports the count and the first (row, col), in
        # row-major order, of a scan of its matrix; so does one held as its matrix.
        # alpha sqrt(n) overflows for n >= 2 (alpha = 1e308 stays below the float max
        # up to n = 3), only off the diagonal
        v0 = branch_generator(alpha, beta, 0.0, FockSpace(4))
        bad = np.argwhere(~np.isfinite(v0))
        message = (f"generator 0 of segment 0 has {len(bad)} non-finite entries, "
                   f"the first at {tuple(bad[0].tolist())}")
        assert message.endswith(first)
        corner = np.zeros((4, 4))
        corner[0, 3] = corner[3, 0] = 1.0  # a finite pair off the bands: held as a matrix
        segments = [Segment(1.0, (g, -g)) for g in (v0, v0 + corner)]
        assert [isinstance(h, tuple) for h in segments[1]._held] == [False, False]
        builds = [lambda: build_schedule(QubitBosonParams(beta, (AlphaSegment(1.0, alpha),), 4))]
        builds += [lambda seg=seg: SegmentSchedule(2, 4, (seg,)) for seg in segments]
        for build in builds:
            with pytest.raises(NonFiniteError) as err:
                build()
            assert str(err.value) == message

    def test_empty_schedule(self):
        # a schedule has a segment by construction, so no consumer checks again
        with pytest.raises(EmptySchedule, match="^schedule has no segments$"):
            SegmentSchedule(system_dim=2, env_dim=4, segments=())

    @pytest.mark.parametrize("durations", [(1e308, 1e308), (np.inf,)])
    def test_durations_summing_past_the_float_range_are_rejected(self, durations):
        # the boundaries overflowed with numpy's warning, and a slack of inf
        # snapped a time of -5 to t = 0 instead of raising TimeOutOfRange
        gens = (np.eye(3), -np.eye(3))
        with pytest.raises(InvalidArgument, match="^segment durations sum to inf, past the"):
            SegmentSchedule(2, 3, tuple(Segment(d, gens) for d in durations))

    def test_zero_size_inputs_are_rejected(self):
        # both divided by zero in segment_chunks' chunk size
        with pytest.raises(InvalidArgument, match=r"^generator has shape \(0, 0\)"):
            Segment(1.0, (np.zeros((0, 0)), np.zeros((0, 0))))
        s = SegmentSchedule(2, 3, (Segment(1.0, (np.eye(3), -np.eye(3))),))
        with pytest.raises(DimensionMismatch, match=r"^factor has shape \(3, 0\)"):
            next(segment_chunks(s, np.zeros((3, 0), dtype=complex), [0.1]))

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


class TestSegmentConstructor:
    """Segment takes matrices or (diagonal, sub, super) triples and holds its own copies."""

    def test_a_dense_generator_is_copied_not_frozen(self):
        g = random_hermitian(np.random.default_rng(29), 4)
        reference = SegmentSchedule(2, 4, (Segment(1.0, (g.copy(), -g)),))
        seg = Segment(1.0, (g, -g))
        assert g.flags.writeable and seg._held[0] is not g
        schedule = SegmentSchedule(2, 4, (seg,))
        g[0, 0] = 5.0  # written before the eigensystems are cached, and again after
        generators = [x.copy() for x in generator_matrices(seg)]
        assert generators[0].tobytes() == generator_matrices(reference.segments[0])[0].tobytes()
        systems = schedule._eigensystems
        g[1, 1] = 7.0
        for got, expected in zip(systems[0], reference._eigensystems[0]):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]
        assert [x.tobytes() for x in generator_matrices(seg)] == [x.tobytes() for x in generators]
        with pytest.raises(ValueError, match="read-only"):
            generator_matrices(seg)[0][0, 0] = 1.0  # the held copy is the Segment's own

    def test_a_triple_is_the_matrix_it_describes(self):
        v0 = branch_generator(0.5 - 0.25j, 1.3, 0.2, FockSpace(6))
        bands = (np.diagonal(v0).copy(), np.diagonal(v0, -1).copy(), np.diagonal(v0, 1).copy())
        before = [x.copy() for x in bands]
        from_bands = Segment(1.0, (bands, tuple(-x for x in bands)))
        from_matrix = Segment(1.0, (v0, -v0))
        for x, y in zip(from_bands._held, from_matrix._held):
            assert [a.tobytes() for a in x] == [b.tobytes() for b in y]
            assert all(a.dtype == complex and not a.flags.writeable for a in x)
        assert not any(a is b for a in from_bands._held[0] for b in bands)
        assert all(x.flags.writeable and np.array_equal(x, y) for x, y in zip(bands, before))
        one = Segment(2.0, ((np.array([3.0]), np.zeros(0), np.zeros(0)),))
        assert one.dim == 1 and generator_matrices(one)[0].tolist() == [[3.0]]

    @pytest.mark.parametrize("triple", [
        (),
        (np.ones(3), np.ones(2)),
        (np.ones(3), np.ones(2), np.ones(2), np.ones(2)),
        (np.ones(3), np.ones(3), np.ones(3)),
        (np.ones(3), np.ones(2), np.ones(1)),
        (np.ones((3, 3)), np.ones(2), np.ones(2)),
        (np.ones((2, 1)), np.ones(1), np.ones(1)),
        (np.zeros(0), np.zeros(0), np.zeros(0)),
        (1.0, np.zeros(0), np.zeros(0)),
    ], ids=lambda t: "x".join(str(np.shape(x)) for x in t) or "empty")
    def test_a_malformed_triple_is_rejected(self, triple):
        with pytest.raises(InvalidArgument, match=r"^generator bands have shapes "):
            Segment(1.0, (triple,))

    def test_a_repeated_drive_value_shares_its_segment(self, monkeypatch):
        # equal (duration, alpha, gamma) share one Segment; the same drive for another
        # duration holds its own bands, and _solve still solves it once
        steps = [AlphaSegment(1.0, 0.5j), AlphaSegment(1.0, 0.0), AlphaSegment(1.0, 0.5j),
                 AlphaSegment(2.0, 0.5j), AlphaSegment(1.0, 0.5j, 0.1)]
        schedule = build_schedule(QubitBosonParams(1.0, steps, 8))
        seg = schedule.segments
        assert seg[2] is seg[0] and len({id(s) for s in seg}) == 4
        solved = []
        monkeypatch.setattr(dephasing, "eigh", lambda g: solved.append(g) or eigh(g))
        systems = schedule._eigensystems
        assert len(solved) == 3 and systems[3][0] is systems[0][0]


class TestGaugedSchedule:
    """Each generator's bands are read once per schedule; a driven step holds its gauged pair."""

    def test_build_validate_and_solves_stay_below_one_matrix(self, monkeypatch):
        # fig2d's drive at cutoff 256: build_schedule hands each Segment its bands, so
        # building, validating and caching the solves peak below one d x d complex
        # matrix (the dense build held six). The LAPACK solve itself, a real T and
        # its Q of 8 d^2 bytes each, is stubbed out of the trace.
        params = QubitBosonParams(1.0, (
            AlphaSegment(2.0, 0.0), AlphaSegment(2.0, 0.5 + 0.5j), AlphaSegment(2.0, 0.0),
        ), 256)

        def key(bands):
            return b"".join(x.tobytes() for x in bands)

        held = [h for seg in build_schedule(params).segments for h in seg._held]
        solves = {key(b): eigh(b) for b in held}
        monkeypatch.setattr(dephasing, "eigh", lambda b: solves[key(b)])
        tracemalloc.start()
        try:
            schedule = build_schedule(params)
            validate_schedule(schedule)
            schedule._eigensystems
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 256 * 256

    def test_driven_cutoff_256_schedule_forms_no_complex_u(self, monkeypatch):
        # fig2d's drive at cutoff 256: the undriven steps hold no u, the driven one
        # the pair (phi, Q) with Q real, and -V_0 reuses (-w, u) through its bands
        scans, bands = [], linalg._bands
        for module in (dephasing, linalg):  # every read, by a Segment or inside linalg
            monkeypatch.setattr(module, "_bands", lambda g: scans.append(g) or bands(g))
        schedule = build_schedule(QubitBosonParams(1.0, (
            AlphaSegment(2.0, 0.0), AlphaSegment(2.0, 0.5 + 0.5j), AlphaSegment(2.0, 0.0),
        ), 256))
        validate_schedule(schedule)
        assert scans == []  # built from bands: no matrix is formed, so none is read
        held = [h for seg in schedule.segments for h in seg._held]
        assert all(isinstance(h, tuple) and len(h) == 3 for h in held)
        # the solves are keyed on bands, never on a d x d matrix: with eigh stubbed, the
        # cache allocates less than a real d x d matrix (a dense +/-g pair takes 4 MiB)
        solves = {id(b): eigh(b) for b in held}
        solved = []
        monkeypatch.setattr(dephasing, "eigh", lambda b: solved.append(b) or solves[id(b)])
        tracemalloc.start()
        try:
            systems = schedule._eigensystems
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 256 * 256
        # one solve per distinct generator: the last undriven step reuses the first
        assert [id(b) for b in solved] == [id(held[0]), id(held[2])]
        assert all(x is y for x, y in zip(systems[2], systems[0]))
        assert [u for _, u in systems[0] + systems[2]] == [None] * 4
        (w0, u0), (w1, u1) = systems[1]
        phi, q = u0
        assert u1 is u0 and w1.tobytes() == (-w0).tobytes()
        assert phi.shape == (256,) and q.shape == (256, 256) and q.dtype == np.float64
        # stepping a one-column factor through all three segments allocates less
        # than a real d x d matrix at its peak: no U, U^dag or d x d product is formed
        a = np.eye(256, dtype=complex)[:, :1]
        tracemalloc.start()
        try:
            for frame in (False, True):
                for _ in segment_chunks(schedule, a, np.linspace(0.0, 6.0, 13), frame=frame):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 256 * 256
        assert scans == []

    def test_near_negation_and_dense_generators_get_their_own_eigh(self, monkeypatch):
        # -V_0 with one super-diagonal entry changed differs on the last band
        # compared; a dense generator is compared as a matrix
        v0 = branch_generator(0.5 + 0.5j, 1.0, 0.0, FockSpace(256))
        near = -v0
        near[6, 7] += 1e-12
        dense = random_hermitian(np.random.default_rng(11), 256)
        schedule = SegmentSchedule(4, 256, (Segment(1.0, (v0, -v0, near, dense)),))
        solved = []
        monkeypatch.setattr(dephasing, "eigh", lambda g: solved.append(g) or eigh(g))
        systems = schedule._eigensystems[0]
        held = schedule.segments[0]._held
        assert [id(g) for g in solved] == [id(held[0]), id(held[2]), id(held[3])]
        assert [isinstance(g, tuple) for g in solved] == [True, True, False]
        (w0, u0), (w1, u1), (_, u2), (_, u3) = systems
        assert u1 is u0 and w1.tobytes() == (-w0).tobytes()
        assert isinstance(u2, tuple) and u2 is not u0
        assert u3.shape == (256, 256) and u3.dtype == complex


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
                step = expm(-1j * generator_matrices(seg)[i] * dt)
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

    def test_no_slack_below_time_zero(self):
        # t = 0 is exact, so a negative time is out of range however long the schedule:
        # a slack of 1e-12 of the duration let -500 read as t = 0 at a duration of 1e15
        g = np.diag([0.0, 1.0, 2.0]).astype(complex)
        s = SegmentSchedule(2, 3, (Segment(1e15, (g, -g)),))
        for t in (-500.0, -1e-300):
            with pytest.raises(TimeOutOfRange, match=f"^t = {t} outside the schedule range"):
                propagators_at(s, t)
        for t in (0.0, -0.0):
            assert all(np.array_equal(w, np.eye(3)) for w in propagators_at(s, t))
        # the slack at an inner boundary and at the end is unchanged
        two = SegmentSchedule(2, 3, (Segment(3.0, (g, -g)), Segment(3.0, (-g, g))))
        assert two.boundary_slack == 6e-12
        for got, expected in zip(propagators_at(two, 6.0 + 5e-12), propagators_at(two, 6.0)):
            assert np.array_equal(got, expected)
        for got, expected in zip(propagators_at(two, 3.0 + 5e-12), propagators_at(two, 3.0)):
            assert np.array_equal(got, expected)
        with pytest.raises(TimeOutOfRange):
            propagators_at(two, 6.0 + 7e-12)

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
            gens = generator_matrices(seg)
            for tau in (0.0, seg.duration / 2):
                times.append(bounds[k] + tau)
                oracle.append([expm(-1j * g * tau) @ y for g, y in zip(gens, start)])
            start = [expm(-1j * g * seg.duration) @ y for g, y in zip(gens, start)]
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

    def test_convergence_failure_names_its_segment(self):
        # segment 0 solves; segment 1's overflowing drive is the one named
        params = QubitBosonParams(
            beta=1.0, segments=(AlphaSegment(1.0, 0.0), AlphaSegment(1.0, 1e308)), cutoff=4
        )
        with pytest.raises(
            ConvergenceFailure, match=r"^eigh of a generator of segment 1 did not converge: "
        ):
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


class TestCutRule:
    """A segment's run of times splits into even chunks of at most the CHUNK_BYTES count."""

    @given(run=st.integers(1, 300), count=st.integers(1, 400), points=st.integers(0, 400))
    @settings(max_examples=150, deadline=None)
    def test_even_chunks_within_the_count_or_at_least_points(self, run, count, points):
        # one pointer on one level and a 1 x 1 factor: count points hold 16 count bytes
        schedule = SegmentSchedule(1, 1, (Segment(1.0, (np.zeros((1, 1)),)),))
        a, times = np.ones((1, 1), dtype=complex), np.linspace(0.0, 1.0, run)
        with mock.patch.object(dephasing, "CHUNK_BYTES", 16 * count):
            chunks = [(first, len(tau)) for first, _, tau, _ in
                      segment_chunks(schedule, a, times, points=points)]
        firsts, lengths = zip(*chunks)
        assert list(firsts) == np.cumsum([0, *lengths[:-1]]).tolist()
        assert sum(lengths) == run and max(lengths) - min(lengths) <= 1
        if points:
            assert min(lengths) >= min(points, run)
        else:
            assert max(lengths) <= count and len(lengths) == -(-run // count)


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
                h_joint += np.kron(proj, generator_matrices(seg)[i])
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


MAGNITUDES = [0.0, 1e-300, 1.0, 1e150, 1e300, 1e308]


@st.composite
def caller_generator(draw, d):
    """(generator, the caller's arrays in it): a matrix or a triple of bands, often malformed.

    Diagonal, tridiagonal and dense matrices and triples, Hermitian or not, with
    entries up to 1e308 (the largest magnitude drawn) and sometimes a NaN or inf;
    float or complex, C- or Fortran-ordered; or a triple or matrix of the wrong shape.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(MAGNITUDES))
    if draw(st.integers(0, 15)) == 7:  # about one in 16, as one fails the whole schedule
        kind = draw(st.sampled_from(["bad shape", "bad triple", "bad triple"]))
    else:
        kind = draw(st.sampled_from(["diagonal", "tridiagonal", "dense", "triple"]))
    unit = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    if draw(st.booleans()):  # Hermitian, its entries still within scale
        unit = (unit + unit.conj().T) / 2
    m = scale * unit
    if draw(st.integers(0, 7)) == 0:
        m[rng.integers(d), rng.integers(d)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    bands = [np.diagonal(m).copy(), np.diagonal(m, -1).copy(), np.diagonal(m, 1).copy()]
    if draw(st.booleans()):
        bands = [x.real.copy() for x in bands]
    if kind == "diagonal":
        g = np.diag(bands[0])
    elif kind == "tridiagonal":
        g = np.diag(bands[0]) + np.diag(bands[1], -1) + np.diag(bands[2], 1)
    elif kind == "dense":
        g = m.real.copy() if draw(st.booleans()) else m
    elif kind == "bad shape":
        g = draw(st.sampled_from([m[:, :-1], m[0], m[None], np.zeros((0, 0))]))
    else:
        if kind == "bad triple":
            bands = draw(st.sampled_from([
                bands[:2], bands + [bands[1]], [bands[0], bands[0], bands[0]], [m, *bands[1:]],
                [bands[0], bands[1], bands[2][:-1]], [np.zeros(0)] * 3,
            ]))
        return tuple(bands), list(bands)
    if draw(st.booleans()):
        g = np.asfortranarray(g)
    return g, [g]


@st.composite
def schedules(draw):
    """(system_dim, env_dim, [(duration, generators)], the caller's arrays, t)."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    segments, arrays = [], []
    for _ in range(draw(st.integers(1, 3))):
        gens = []
        for _ in range(n):
            g, owned = draw(caller_generator(d))
            gens.append(g)
            arrays.extend(owned)
        duration = draw(st.sampled_from([1e-3, 0.5, 2.0, 1e300, 1e308]))
        segments.append((duration, tuple(gens)))
    total = sum(min(s[0], 1e300) for s in segments)
    t = draw(st.sampled_from([0.0, -0.0, -1e-12, 0.3, total / 2, total, total * (1 + 1e-13)]))
    return n, d, segments, arrays, t


class TestScheduleFuzz:
    @given(case=schedules())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_finite_arrays_or_a_package_error(self, case):
        # building, validating and stepping: finite results or a DephasimError, no
        # RuntimeWarning, and every caller array unchanged and writable afterwards;
        # a schedule that builds is valid: its residuals are all within HERM_TOL
        n, d, segments, arrays, t = case
        before = [x.copy() for x in arrays]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                schedule = SegmentSchedule(n, d, tuple(Segment(*s) for s in segments))
            except DephasimError:
                schedule = None
            if schedule is not None:
                assert validate_schedule(schedule).max() <= linalg.HERM_TOL
                try:
                    props = propagators_at(schedule, t)
                    assert len(props) == n and all(np.isfinite(w).all() for w in props)
                except DephasimError:
                    pass
        for x, y in zip(arrays, before):
            assert x.flags.writeable and np.array_equal(x, y, equal_nan=True)

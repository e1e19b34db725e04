import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim.config import config_from_dict
from dephasim.dephasing import (
    Segment,
    SegmentSchedule,
    blocks_at,
    equal_superposition,
    propagators_at,
    validate_schedule,
)
from dephasim.entanglement import measure_from_fidelity
from dephasim.fock import FockSpace, coherent_state, thermal_state
from dephasim.linalg import dagger, fidelity, trace_distance
from dephasim.presets import preset_config
from dephasim.qubit_boson import (
    AlphaSegment,
    QubitBosonParams,
    build_schedule,
)
from dephasim.sweep import evaluate, run_sweep
from util import (
    analytic_propagator_piece,
    branch_generator,
    coherent_oracle,
    displacement_safe_dim,
    expm,
    fock_oracle,
    generator_matrices,
    normalized_coherence,
    phase1_coherence_oracle,
    thermal_oracle,
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
    return np.linalg.norm(a * phase - b)


class TestBuildSchedule:
    def test_undriven_generator_is_diagonal(self):
        space = FockSpace(8)
        v0 = branch_generator(0.0, 1.0, 0.0, space)
        assert np.allclose(v0, np.diag(np.arange(8, dtype=float)))

    def test_stepped_schedule_structure(self):
        s = build_schedule(stepped_params())
        assert s.system_dim == 2
        assert [seg.duration for seg in s.segments] == [2.0, 2.0, 2.0]
        assert np.allclose(s.boundaries, [0.0, 2.0, 4.0, 6.0])
        mid = generator_matrices(s.segments[1])[0]
        space = FockSpace(32)
        assert np.linalg.norm(mid - branch_generator(ALPHA_FIG, 1.0, 0.0, space)) == 0.0

    def test_branches_differ_only_by_sign(self):
        s = build_schedule(stepped_params())
        for seg in s.segments:
            assert np.array_equal(generator_matrices(seg)[1], -generator_matrices(seg)[0])

    @pytest.mark.parametrize("cutoff", [16, 256])
    @pytest.mark.parametrize("drive", ["fig2d", "random-phase"])
    def test_bands_and_matrices_give_the_same_schedule(self, drive, cutoff):
        # build_schedule hands each Segment the bands of V_0 and -V_0; the same drive
        # as Segments of branch_generator matrices gives bit-identical results
        if drive == "fig2d":
            model = config_from_dict(preset_config("fig2d")).model
            beta, steps = model.beta, model.segments
        else:
            rng = np.random.default_rng(27)
            beta, steps = 1.3, tuple(
                AlphaSegment(rng.uniform(0.3, 1.5), 0.7 * np.exp(2j * np.pi * rng.uniform()),
                             rng.uniform(-0.5, 0.5))
                for _ in range(4)
            )
        space = FockSpace(cutoff)
        banded = build_schedule(QubitBosonParams(beta, steps, cutoff))
        v = [branch_generator(s.alpha, beta, s.gamma, space) for s in steps]
        dense = SegmentSchedule(2, cutoff, tuple(
            Segment(s.duration, (v0, -v0)) for s, v0 in zip(steps, v)
        ))
        for seg, v0 in zip(banded.segments, v):
            g0, g1 = generator_matrices(seg)
            assert np.array_equal(g0, v0) and np.array_equal(g1, -v0)
        for seg in dense.segments:  # read off the matrices once, held as copies of the bands
            assert all(isinstance(h, tuple) and all(x.base is None for x in h) for h in seg._held)
        assert validate_schedule(banded).tobytes() == validate_schedule(dense).tobytes()
        for x, y in zip(banded._eigensystems, dense._eigensystems):
            for (w, u), (w_dense, u_dense) in zip(x, y):
                assert w.tobytes() == w_dense.tobytes()
                parts, dense_parts = (() if z is None else z for z in (u, u_dense))
                assert [p.tobytes() for p in parts] == [p.tobytes() for p in dense_parts]
        env, times = thermal_state(2.0, space), np.linspace(0.0, banded.total_duration, 41)
        rows = evaluate(banded, env, EQUAL, times)
        assert repr(rows) == repr(evaluate(dense, env, EQUAL, times))

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
        assert np.linalg.norm(props[0] - dagger(props[1])) <= 1e-10

    def test_conjugate_branch_relation_under_stepped_drive(self):
        # with non-commuting steps the adjoint relation survives only through
        # the first segment; taking the adjoint reverses the chronological
        # order, so it breaks once a second, non-commuting segment has acted
        # (verified against fine-step chronological products)
        s = build_schedule(stepped_params(cutoff=16))
        early = propagators_at(s, 1.5)
        assert np.linalg.norm(early[0] - dagger(early[1])) <= 1e-10
        late = propagators_at(s, 5.0)
        assert np.linalg.norm(late[0] - dagger(late[1])) > 1e-2

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
            assert np.linalg.norm(prod - scale * np.eye(16)) <= 1e-9
        mid = propagators_at(s, 5.0)
        prod = mid[0] @ mid[1]
        assert np.linalg.norm(prod - prod[0, 0] * np.eye(16)) > 1e-2


class TestAnalyticPiece:
    def test_undriven_reduces_to_rotation(self):
        space = FockSpace(16)
        t = 0.83
        for branch, sign in ((0, 1.0), (1, -1.0)):
            piece = analytic_propagator_piece(0.0, 1.0, t, branch, space)
            expected = np.diag(np.exp(-1j * sign * np.arange(16) * t))
            assert np.linalg.norm(piece - expected) <= 1e-12

    def test_full_period_is_identity_up_to_phase(self):
        # at t = 2 pi / beta the displacement closes and the rotation unwinds
        space = FockSpace(32)
        t = 2 * math.pi
        piece = analytic_propagator_piece(ALPHA_FIG, 1.0, t, 0, space)
        assert np.linalg.norm(piece - np.eye(32)) <= 1e-10
        exact = analytic_propagator_piece(ALPHA_FIG, 1.0, t, 0, space, exact_phase=True)
        phase = np.exp(1j * abs(ALPHA_FIG) ** 2 * t)
        assert np.linalg.norm(exact - phase * np.eye(32)) <= 1e-10

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_matches_direct_exponential(self, t, branch):
        space = FockSpace(64)
        sign = 1.0 if branch == 0 else -1.0
        direct = expm(-1j * (sign * branch_generator(ALPHA_FIG, 1.0, 0.0, space)) * t)
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
        direct = expm(-1j * (sign * branch_generator(ALPHA_FIG, 1.0, 0.0, space)) * t)
        exact = analytic_propagator_piece(ALPHA_FIG, 1.0, t, branch, space, exact_phase=True)
        lam = ALPHA_FIG * (np.exp(-1j * sign * t) - 1.0)
        k = displacement_safe_dim(lam, space)
        assert np.linalg.norm((exact - direct)[:k, :k]) <= 1e-8

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
            assert np.linalg.norm((composed - engine)[:k, :k]) <= 1e-8


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


def random_phase_drive(seed):
    """A fig3-shaped config with a random drive phase and zeta, at an explicit cutoff of 256."""
    rng = np.random.default_rng(seed)
    alpha = np.exp(1j * rng.uniform(0, 2 * np.pi)) / math.sqrt(2)
    zeta = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    cfg = preset_config("fig3a")
    cfg["model"]["qubit_boson"]["segments"][1]["alpha"] = [alpha.real, alpha.imag]
    cfg["initial_env"] = {"coherent": {"re": zeta.real, "im": zeta.imag}}
    cfg.update(cutoff=256, time={"t_max": 6.0, "steps": 121})
    return cfg


class TestCoherentOracle:
    """E and the coherence of coherent-R(0) sweeps against the untruncated closed form.

    Over 8 seeded pure-c64-style draws (cutoff 64, random drive phase and
    zeta) the sweep's error was at most 2.4e-15 for E and 1.6e-15 for the
    coherence, so 1e-14 leaves a few units of roundoff; a sign flip in the
    phases of the driven eigensystem moves both by O(1).
    """

    @pytest.mark.parametrize(
        "cfg",
        [
            *(preset_config(name) for name in ("fig3a", "fig3b", "fig3c")),
            random_phase_drive(7),
        ],
        ids=["fig3a", "fig3b", "fig3c", "random-drive-c256"],
    )
    def test_sweep_matches_closed_form(self, cfg):
        cfg = config_from_dict(cfg)
        rows = run_sweep(cfg)
        model = cfg.model
        segments = [(s.duration, s.alpha) for s in model.segments]
        times = [row.t for row in rows]
        e, coh = coherent_oracle(cfg.initial_env.zeta, model.beta, segments, EQUAL, times)
        assert max(e) > 0.1  # the drive entangles: the check is not vacuous
        assert np.abs(np.array([row.entanglement for row in rows]) - e).max() <= 1e-14
        assert np.abs(np.array([row.coherence_norm for row in rows]) - coh).max() <= 1e-14

    @given(
        beta=st.floats(0.5, 2.0),
        zeta=st.floats(0.0, 1.5),
        zeta_phase=st.floats(0.0, 2 * math.pi),
        drive=st.lists(
            st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)),
            min_size=1,
            max_size=6,
        ),
        weight=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_drives_match_closed_form(self, beta, zeta, zeta_phase, drive, weight):
        # 1-6 (duration, |alpha|, phase) steps, a coherent R(0) and unequal c at an
        # explicit cutoff of 128, inside the drive's reach. Under Hypothesis 6.155 the 60
        # examples are within 7.8e-15 (E) and 4.4e-15 (coherence), and include a
        # subnormal |alpha|, which needs linalg.eigh's phase 1 for a subnormal |s|
        z = zeta * np.exp(1j * zeta_phase)
        cfg = config_from_dict({
            "model": {"qubit_boson": {"beta": beta, "segments": [
                {"duration": d, "alpha": [a * math.cos(p), a * math.sin(p)]} for d, a, p in drive
            ]}},
            "initial_env": {"coherent": {"re": z.real, "im": z.imag}},
            "time": {"t_max": sum(d for d, _, _ in drive), "steps": 101},
            "cutoff": 128,
            "amplitudes": [[math.sqrt(weight), 0.0], [0.0, math.sqrt(1 - weight)]],
        })
        rows = run_sweep(cfg)
        segments = [(s.duration, s.alpha) for s in cfg.model.segments]
        times = [row.t for row in rows]
        e, coh = coherent_oracle(cfg.initial_env.zeta, beta, segments, cfg.amplitudes, times)
        assert np.abs(np.array([row.entanglement for row in rows]) - e).max() <= 5e-14
        assert np.abs(np.array([row.coherence_norm for row in rows]) - coh).max() <= 5e-14


class TestThermalOracle:
    """E and the coherence of the thermal presets against the displaced-thermal closed form.

    Measured max errors (E, coherence): fig2b 5.2e-13, 6.1e-16; fig2c 1.75e-12,
    7.8e-16; fig2d 9.5e-11, 2.1e-13 at cutoff 64 (its truncation error) and
    5.6e-13, 8.9e-16 at 128; fig2e 0, 2.4e-14; fig2f 1.25e-10, 1.28e-10 at 64
    (truncation) and 5.6e-14, 3.2e-15 at 128. Each bound is at most 10x its
    error. With ROW_TAIL = 1e-6 the coherence errors but fig2f's at 64 move to
    about 7e-13, and fig2f's E error at 128 to 1.75e-12: 6 of the 7 cases fail.
    """

    @pytest.mark.parametrize("name, cutoff, e_bound, coherence_bound", [
        ("fig2b", 64, 2e-12, 3e-15),
        ("fig2c", 64, 5e-12, 3e-15),
        ("fig2d", 64, 3e-10, 5e-13),
        ("fig2d", 128, 2e-12, 3e-15),
        ("fig2e", 64, 0.0, 1e-13),
        ("fig2f", 64, 4e-10, 4e-10),
        ("fig2f", 128, 2e-13, 1e-14),
    ])
    def test_presets_match_closed_form(self, name, cutoff, e_bound, coherence_bound):
        cfg = preset_config(name)
        cfg["cutoff"] = cutoff
        cfg["outputs"] = {"type1": False, "type2": False}  # E and the coherence do not need them
        cfg = config_from_dict(cfg)
        rows = run_sweep(cfg)
        model = cfg.model
        segments = [(s.duration, s.alpha) for s in model.segments]
        times = [row.t - cfg.time.t_start for row in rows]
        e, coh = thermal_oracle(cfg.initial_env.theta, model.beta, segments, EQUAL, times)
        assert np.abs(np.array([row.entanglement for row in rows]) - e).max() <= e_bound
        assert np.abs(np.array([row.coherence_norm for row in rows]) - coh).max() <= coherence_bound


class TestFockOracle:
    """E, the coherence and type-1 of Fock-R(0) sweeps against the closed form of fock_oracle.

    A Fock R(0) is rank one, so the sweep takes the one Gram-Schmidt step of
    linalg._rank_one_pair for E and type-1. On fig3a's drive at cutoff 64 the
    largest errors (E, coherence, type-1) were 4.4e-16, 7.8e-16, 6.7e-16 for
    n = 0; 9.4e-16, 1.2e-15, 1.4e-15 for n = 1; 2.1e-15, 1.8e-15, 2.1e-15 for
    n = 3. Each bound is at most 10x the smallest of its three errors.
    """

    @pytest.mark.parametrize("n, bound", [(0, 4e-15), (1, 9e-15), (3, 1.5e-14)])
    def test_sweep_matches_closed_form(self, n, bound):
        cfg = preset_config("fig3a")
        cfg["initial_env"] = {"fock": {"n": n}}
        cfg["cutoff"] = 64
        cfg = config_from_dict(cfg)
        rows = run_sweep(cfg)
        segments = [(s.duration, s.alpha) for s in cfg.model.segments]
        times = [row.t - cfg.time.t_start for row in rows]
        expected = fock_oracle(n, cfg.model.beta, segments, EQUAL, times)
        assert max(expected[0]) > 0.9  # the drive entangles: the check is not vacuous
        for column, exact in zip(("entanglement", "coherence_norm", "type1_max"), expected):
            got = np.array([getattr(row, column) for row in rows])
            assert np.abs(got - exact).max() <= bound, column


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
            e = measure_from_fidelity(EQUAL, fidelity(blocks.blocks[0, 0], blocks.blocks[1, 1]))
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
            assert trace_distance(blocks.blocks[0, 0], blocks.blocks[1, 1]) > 1e-6

    def test_gamma_does_not_change_observables(self):
        env = thermal_state(2.0, FockSpace(16))
        base = build_schedule(stepped_params(cutoff=16, gamma=0.0))
        shifted = build_schedule(stepped_params(cutoff=16, gamma=0.7))
        for t in (1.0, 3.0, 5.5):
            b0 = blocks_at(base, env, EQUAL, t)
            b1 = blocks_at(shifted, env, EQUAL, t)
            e0 = measure_from_fidelity(EQUAL, fidelity(b0.blocks[0, 0], b0.blocks[1, 1]))
            e1 = measure_from_fidelity(EQUAL, fidelity(b1.blocks[0, 0], b1.blocks[1, 1]))
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
            values.append(
                measure_from_fidelity(EQUAL, fidelity(blocks.blocks[0, 0], blocks.blocks[1, 1]))
            )
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

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
    joint_state,
    propagators_at,
)
from dephasim.entanglement import measure_from_fidelity, type2_residuals
from dephasim.errors import DimensionMismatch, NotQubit
from dephasim.fock import env_from_matrix, thermal_state, FockSpace
from dephasim.linalg import fidelity, negativity, trace_distance
from dephasim.presets import preset_config
from dephasim.sweep import evaluate, run_sweep
from util import (
    PAULI_X,
    PAULI_Z,
    generator_matrices,
    random_density,
    random_hermitian,
    random_unitary,
)

seeds = st.integers(0, 2**32 - 1)
EQUAL = equal_superposition(2)


def mixed_env_unitary_schedule():
    """Qutrit system, 2-dim environment, conditional unitaries {I, X, Z} at t=1."""
    v0 = np.zeros((2, 2), dtype=complex)
    v1 = (np.pi / 2) * (PAULI_X - np.eye(2))
    v2 = (np.pi / 2) * (PAULI_Z - np.eye(2))
    return SegmentSchedule(
        system_dim=3,
        env_dim=2,
        segments=(Segment(duration=1.0, generators=(v0, v1, v2)),),
    )


class TestQeeMeasure:
    # E = measure_from_fidelity(c, F(R_00, R_11)), the qubit measure on formed states
    def test_equal_states_give_zero(self):
        rho = random_density(np.random.default_rng(0), 4)
        assert measure_from_fidelity(EQUAL, fidelity(rho, rho)) == 0.0

    def test_orthogonal_states_equal_superposition(self):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        assert abs(measure_from_fidelity(EQUAL, fidelity(r0, r1)) - 1.0) <= 1e-12

    def test_orthogonal_states_prefactor(self):
        c = np.array([1 / np.sqrt(3), np.sqrt(2 / 3)])
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        assert abs(measure_from_fidelity(c, fidelity(r0, r1)) - 8.0 / 9.0) <= 1e-12

    def test_tolerance_equivalence_with_criterion(self):
        # zero measure at threshold iff the conditional states coincide
        rng = np.random.default_rng(1)
        rho = random_density(rng, 6)
        other = random_density(rng, 6)
        assert measure_from_fidelity(EQUAL, fidelity(rho, rho)) <= 1e-12
        assert trace_distance(rho, rho) <= 1e-8
        assert measure_from_fidelity(EQUAL, fidelity(rho, other)) > 1e-6
        assert trace_distance(rho, other) > 1e-8

    def test_rejects_non_qubit(self):
        rho = random_density(np.random.default_rng(2), 3)
        with pytest.raises(NotQubit):
            measure_from_fidelity(equal_superposition(3), fidelity(rho, rho))

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionMismatch):
            measure_from_fidelity(EQUAL, fidelity(random_density(rng, 3), random_density(rng, 4)))

    @given(seed=seeds, phase=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=20, deadline=None)
    def test_invariance_under_global_phase_and_conjugation(self, seed, phase):
        rng = np.random.default_rng(seed)
        r0, r1 = random_density(rng, 4), random_density(rng, 4)
        u = random_unitary(rng, 4)
        base = measure_from_fidelity(EQUAL, fidelity(r0, r1))
        shifted = measure_from_fidelity(EQUAL * np.exp(1j * phase), fidelity(r0, r1))
        assert abs(shifted - base) <= 1e-10
        conj = measure_from_fidelity(EQUAL, fidelity(u @ r0 @ u.conj().T, u @ r1 @ u.conj().T))
        assert abs(conj - base) <= 1e-10

    def test_prefactor_law(self):
        # scaling the initial coherence rescales the measure by 4|c0 c1|^2
        rng = np.random.default_rng(4)
        r0, r1 = random_density(rng, 4), random_density(rng, 4)
        splits = [
            np.array([1 / np.sqrt(2), 1 / np.sqrt(2)]),
            np.array([1 / np.sqrt(3), np.sqrt(2 / 3)]),
            np.array([0.9, np.sqrt(1 - 0.81)]),
        ]
        ratios = [
            measure_from_fidelity(c, fidelity(r0, r1)) / (4 * abs(c[0]) ** 2 * abs(c[1]) ** 2)
            for c in splits
        ]
        assert np.ptp(ratios) <= 1e-12

    def test_measure_from_fidelity_clamps(self):
        assert measure_from_fidelity(EQUAL, 1.0 + 5e-13) == 0.0
        assert abs(measure_from_fidelity(EQUAL, 0.0) - 1.0) <= 1e-12


class TestType1Residuals:
    # type1_max of an evaluate row: the largest trace distance between R_ii and R_jj
    def test_equal_blocks_give_zero(self):
        rng = np.random.default_rng(5)
        env = env_from_matrix(random_density(rng, 4))
        gen = np.diag(np.arange(4, dtype=float)).astype(complex)
        s = SegmentSchedule(
            system_dim=2,
            env_dim=4,
            segments=(Segment(duration=1.0, generators=(gen, gen)),),
        )
        (row,) = evaluate(s, env, EQUAL, [0.7])
        assert row.type1_max <= 1e-12

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_maximally_mixed_env_cannot_violate(self, seed):
        rng = np.random.default_rng(seed)
        dim = 4
        env = env_from_matrix(np.eye(dim, dtype=complex) / dim)
        s = SegmentSchedule(
            system_dim=3,
            env_dim=dim,
            segments=(
                Segment(
                    duration=1.0,
                    generators=tuple(
                        (lambda a: (a + a.conj().T) / 2)(
                            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                        )
                        for _ in range(3)
                    ),
                ),
            ),
        )
        (row,) = evaluate(s, env, equal_superposition(3), [0.9])
        assert row.type1_max <= 1e-12

    def test_orthogonal_conditional_states(self):
        # w_0 = I and w_1 = X at t = 1 map |0><0| to orthogonal states
        s = mixed_env_unitary_schedule()
        two = SegmentSchedule(system_dim=2, env_dim=2, segments=(
            Segment(duration=1.0, generators=generator_matrices(s.segments[0])[:2]),
        ))
        env = env_from_matrix(np.diag([1.0, 0.0]).astype(complex))
        (row,) = evaluate(two, env, EQUAL, [1.0])
        assert abs(row.type1_max - 1.0) <= 1e-12

    def test_independent_flagging(self):
        # the derived pair (1, 2) counts too: type1_max is the maximum over every pair
        rng = np.random.default_rng(6)
        s = mixed_env_unitary_schedule()
        env = env_from_matrix(random_density(rng, 2))
        r = blocks_at(s, env, equal_superposition(3), 1.0).blocks
        distances = [trace_distance(r[i, i], r[j, j]) for i, j in [(0, 1), (0, 2), (1, 2)]]
        (row,) = evaluate(s, env, equal_superposition(3), [1.0])
        assert abs(row.type1_max - max(distances)) <= 1e-12


class TestType2Residuals:
    def test_qubit_has_none(self):
        props = (np.eye(2, dtype=complex), PAULI_X)
        assert type2_residuals(props) == []

    def test_pauli_pair_commutator(self):
        props = (np.eye(2, dtype=complex), PAULI_X, PAULI_Z)
        (res,) = type2_residuals(props)
        # ||[X, Z]||_F = ||2 i Y||_F = 2 sqrt(2)
        assert abs(res.residual - 2.0 * np.sqrt(2.0)) <= 1e-12
        assert (res.i, res.j, res.k, res.l) == (1, 0, 2, 0)

    def test_commuting_unitaries_give_zero(self):
        diag = [np.diag(np.exp(1j * np.random.default_rng(7).normal(size=3))) for _ in range(4)]
        props = tuple(diag)
        assert all(r.residual <= 1e-12 for r in type2_residuals(props))

    def test_independent_count(self):
        rng = np.random.default_rng(8)
        n = 5
        props = tuple(random_unitary(rng, 3) for _ in range(n))
        assert len(type2_residuals(props)) == (n - 1) * (n - 2) // 2


class TestVerdict:
    # the verdict at t: entangled iff row.type1_max or row.type2_max exceeds the tolerance
    def test_product_state_is_separable(self):
        rng = np.random.default_rng(9)
        s = mixed_env_unitary_schedule()
        env = env_from_matrix(random_density(rng, 2))
        (row,) = evaluate(s, env, equal_superposition(3), [0.0])
        assert not (row.type1_max > 1e-8 or row.type2_max > 1e-8)

    def test_stepped_thermal_drive_entangles_via_type1(self):
        # inside the driven phase of the stepped sweep the thermal case is entangled
        cfg = config_from_dict(preset_config("fig2d"))
        from dephasim.qubit_boson import QubitBosonParams, build_schedule

        params = QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=32)
        s = build_schedule(params)
        env = thermal_state(2.0, FockSpace(32))
        (row,) = evaluate(s, env, EQUAL, [3.0])
        assert row.type1_max > 1e-8 or row.type2_max > 1e-8
        assert row.type1_max > 1e-8 and row.type2_max == 0.0  # the witness is type-1

    def test_qutrit_mixed_env_type2_only(self):
        s = mixed_env_unitary_schedule()
        env = env_from_matrix(np.eye(2, dtype=complex) / 2)
        c = equal_superposition(3)
        (row,) = evaluate(s, env, c, [1.0])
        assert row.type1_max <= 1e-12
        assert row.type1_max > 1e-8 or row.type2_max > 1e-8
        assert row.type2_max > 1e-8  # the witness is type-2
        # cross-check with the independent entanglement witness
        assert negativity(joint_state(blocks_at(s, env, c, 1.0)), 3, 2) > 1e-3

    def test_zero_amplitude_pointer_is_skipped(self):
        # c_0 = 0: the pairs and the type-2 reference start at pointer 1
        rng = np.random.default_rng(12)
        s = SegmentSchedule(system_dim=4, env_dim=3, segments=(
            Segment(duration=1.0, generators=tuple(random_hermitian(rng, 3) for _ in range(4))),
        ))
        env = env_from_matrix(random_density(rng, 3))
        c = np.array([0, 1, 1, 1]) / np.sqrt(3)
        (row,) = evaluate(s, env, c, [1.0])
        r = blocks_at(s, env, c, 1.0).blocks
        distances = [trace_distance(r[i, i], r[j, j]) for i, j in [(1, 2), (1, 3), (2, 3)]]
        assert abs(row.type1_max - max(distances)) <= 1e-12
        w = propagators_at(s, 1.0)
        p2, p3 = w[2] @ w[1].conj().T, w[3] @ w[1].conj().T
        assert row.type1_max > 1e-8 or row.type2_max > 1e-8
        assert abs(row.type2_max - np.linalg.norm(p2 @ p3 - p3 @ p2)) <= 1e-12

    def test_negativity_implies_entangled_verdict(self):
        cfg = config_from_dict(preset_config("fig2d"))
        from dephasim.qubit_boson import QubitBosonParams, build_schedule

        params = QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=16)
        s = build_schedule(params)
        env = thermal_state(2.0, FockSpace(16))
        times = np.linspace(0.0, 6.0, 25)
        for t, row in zip(times, evaluate(s, env, EQUAL, times), strict=True):
            blocks = blocks_at(s, env, EQUAL, float(t))
            neg = negativity(joint_state(blocks), 2, 16)
            if neg > 1e-8:
                assert row.type1_max > 1e-8 or row.type2_max > 1e-8


class TestReport:
    def test_measure_criterion_faithfulness_on_sweep(self):
        # qubit case: measure above threshold exactly when a first-type
        # residual is above its threshold, checked pointwise on a coarse sweep
        cfg_dict = preset_config("fig2d")
        cfg_dict["cutoff"] = 16
        cfg_dict["time"]["steps"] = 61
        rows = run_sweep(config_from_dict(cfg_dict))
        for row in rows:
            assert (row.entanglement > 1e-6) == (row.type1_max > 1e-8), row.t

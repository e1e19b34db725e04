"""Acceptance suite.

One test per criterion; each prints a [PASS]/[FAIL] line (run pytest with -s
to see them live). Expected values come from closed forms evaluated inline or
from independent oracles defined next to the assertion.
"""

import io
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dephasim.config import config_from_dict
from dephasim.dephasing import (
    Segment,
    SegmentSchedule,
    blocks_at,
    equal_superposition,
    joint_state,
    propagators_at,
)
from dephasim.entanglement import type2_residuals
from dephasim.fock import (
    FockSpace,
    coherent_state,
    env_from_matrix,
    fock_state,
    thermal_state,
)
from dephasim.linalg import dagger, fidelity, negativity, trace_distance
from dephasim.presets import PRESET_NAMES, preset_config
from dephasim.qubit_boson import build_schedule, QubitBosonParams
from dephasim.sweep import emit_csv, convergence_report, evaluate, run_sweep
from util import (
    PAULI_X,
    PAULI_Z,
    analytic_propagator_piece,
    branch_generator,
    displacement_safe_dim,
    expm,
    normalized_coherence,
    random_density,
)

EQUAL = equal_superposition(2)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:02d}: {description}", flush=True)
        raise
    print(f"[PASS] criterion {num:02d}: {description}", flush=True)


@pytest.fixture(scope="module")
def sweeps():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_sweep(config_from_dict(preset_config(name)))
        return cache[name]

    return get


def test_criterion_01_thermal_undriven_never_entangles():
    with criterion(1, "undriven thermal evolution stays separable at all temperatures"):
        start = time.perf_counter()
        for theta in (0.0, 0.5, 1.0, 2.0):
            cfg = preset_config("fig2e")
            cfg["initial_env"] = {"thermal": {"theta": theta}}
            rows = run_sweep(config_from_dict(cfg))
            assert max(r.entanglement for r in rows) <= 1e-10, theta
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_zero_temperature_flat_first_phase(sweeps):
    with criterion(2, "zero-temperature first phase shows no decoherence and no entanglement"):
        start = time.perf_counter()
        rows = sweeps("fig2a")
        elapsed = time.perf_counter() - start
        early = [r for r in rows if r.t < 2.0]
        assert early
        for row in early:
            assert abs(row.coherence_norm - 1.0) <= 1e-10, row.t
            assert row.entanglement <= 1e-10, row.t
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_03_first_phase_coherence_oracle(sweeps):
    with criterion(3, "first-phase coherence matches the geometric-series closed form"):
        q = math.exp(-0.5)

        def oracle(t):
            return abs((1.0 - q) / (1.0 - q * np.exp(-2j * t)))

        rows = [r for r in sweeps("fig2d") if r.t < 2.0]
        assert rows
        for row in rows:
            assert abs(row.coherence_norm - oracle(row.t)) <= 1e-8, row.t
        # spot value at t = pi/2 (off-grid): (1-q)/(1+q)
        cfg = config_from_dict(preset_config("fig2d"))
        schedule = build_schedule(
            QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=64)
        )
        env = thermal_state(2.0, FockSpace(64))
        blocks = blocks_at(schedule, env, EQUAL, math.pi / 2)
        spot = normalized_coherence(blocks, 0, 1)
        expected = (1.0 - q) / (1.0 + q)
        assert abs(expected - 0.244919) <= 1e-6
        assert abs(spot - expected) <= 1e-8


def test_criterion_04_analytic_propagator_matches_exponential():
    with criterion(4, "closed-form driven propagator matches the direct exponential"):
        space = FockSpace(64)
        alpha = (1 + 1j) / 2
        for t in (0.5, 1.0, 2.0):
            for branch in (0, 1):
                sign = 1.0 if branch == 0 else -1.0
                direct = expm(-1j * (sign * branch_generator(alpha, 1.0, 0.0, space)) * t)
                piece = analytic_propagator_piece(alpha, 1.0, t, branch, space)
                lam = alpha * (np.exp(-1j * sign * t) - 1.0)
                k = displacement_safe_dim(lam, space)
                a, b = piece[:k, :k], direct[:k, :k]
                tr = np.trace(dagger(a) @ b)
                phase = tr / abs(tr)
                assert np.linalg.norm(a * phase - b) <= 1e-8, (t, branch)


def test_criterion_05_entanglement_onset_and_third_phase_evolution(sweeps):
    with criterion(5, "entanglement appears only with the drive and keeps evolving after it"):
        rows = sweeps("fig2d")
        for row in rows:
            if row.t < 2.0:
                assert row.entanglement <= 1e-10, row.t
        at_25 = [r.entanglement for r in rows if abs(r.t - 2.5) < 1e-9]
        assert at_25 and at_25[0] > 1e-4
        third = [r.entanglement for r in rows if 4.0 < r.t < 6.0]
        assert max(third) - min(third) > 1e-4


def test_criterion_06_coherent_state_entangles_without_drive(sweeps):
    with criterion(6, "coherent initial state entangles even in the undriven phase"):
        rows = sweeps("fig3a")
        assert max(r.entanglement for r in rows if r.t < 2.0) > 1e-4


def test_criterion_07_fidelity_unit_suite():
    with criterion(7, "fidelity reference values"):
        rho = random_density(np.random.default_rng(42), 16)
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-10
        th = thermal_state(2.0, FockSpace(64)).matrix
        assert abs(fidelity(th, th) - 1.0) <= 1e-10
        space = FockSpace(32)
        f_coh = fidelity(fock_state(0, space).matrix, coherent_state(1.0, space).matrix)
        assert abs(f_coh - math.exp(-1.0)) <= 1e-8
        f_mix = fidelity(np.eye(2) / 2, np.diag([1.0, 0.0]))
        assert abs(f_mix - 0.5) <= 1e-10


def test_criterion_08_qutrit_second_type_witness():
    with criterion(8, "qutrit with fully mixed environment entangles via the second-type condition"):
        v0 = np.zeros((2, 2), dtype=complex)
        v1 = (np.pi / 2) * (PAULI_X - np.eye(2))
        v2 = (np.pi / 2) * (PAULI_Z - np.eye(2))
        schedule = SegmentSchedule(
            system_dim=3,
            env_dim=2,
            segments=(Segment(duration=1.0, generators=(v0, v1, v2)),),
        )
        env = env_from_matrix(np.eye(2, dtype=complex) / 2)
        c = equal_superposition(3)
        blocks = blocks_at(schedule, env, c, 1.0)
        props = propagators_at(schedule, 1.0)
        r = blocks.blocks
        assert all(trace_distance(r[i, i], r[j, j]) <= 1e-12 for i, j in [(0, 1), (0, 2), (1, 2)])
        (t2,) = type2_residuals(props)
        assert abs(t2.residual - 2.0 * math.sqrt(2.0)) <= 1e-10
        assert negativity(joint_state(blocks), 3, 2) > 1e-3
        (row,) = evaluate(schedule, env, c, [1.0])
        assert row.type1_max > 1e-8 or row.type2_max > 1e-8  # the verdict: entangled


def test_criterion_09_gamma_gauge_invariance(sweeps):
    with criterion(9, "the scalar drive offset changes nothing observable"):
        base = sweeps("fig2d")
        cfg = preset_config("fig2d")
        for segment in cfg["model"]["qubit_boson"]["segments"]:
            segment["gamma"] = 0.7
        shifted = run_sweep(config_from_dict(cfg))
        assert len(base) == len(shifted)
        for a, b in zip(base, shifted):
            assert a.t == b.t
            assert abs(a.entanglement - b.entanglement) <= 1e-10, a.t
            assert abs(a.coherence_norm - b.coherence_norm) <= 1e-10, a.t


def test_criterion_10_truncation_stability():
    # KNOWN RED (externally fixed target; measured physics violates it).
    # The entanglement curve of this preset is fully converged at cutoff 64
    # (max |E_64 - E_128| = 9.5e-11 over the grid), but the exact cutoff-32
    # model sits 4.46e-5 away from it (worst at t = 6), confirmed digit-for-
    # digit by an independent scipy-expm/sqrtm implementation. The coherence
    # half of the requirement passes (max delta 6.1e-7). The 1e-6 target for
    # |dE| between 32 and 64 would require the truncation error to scale like
    # the thermal tail mass (~1e-7 at 32); the measured scaling is far closer
    # to its square root, because the driven-phase displacement carries
    # amplitude, not probability, into the truncation corner.
    with criterion(10, "halving the preset cutoff leaves the curves unchanged at 1e-6"):
        cfg = preset_config("fig2d")
        cfg["cutoff"] = 32
        report = convergence_report(config_from_dict(cfg))
        assert report.doubled_cutoff == 64
        assert report.max_abs_d_coherence < 1e-6
        assert report.max_abs_d_entanglement < 1e-6


def test_criterion_11_measure_criterion_faithfulness(sweeps):
    # KNOWN RED at exactly one of the 5409 preset grid points (fig2d,
    # t = 4.57): the third phase drives the conditional states through a
    # near-revival, and close to such a crossing the measure scales
    # quadratically in the residual (measured E = 1.54 d^2 locally, the
    # textbook fidelity-vs-trace-distance quadratic regime; values are
    # cutoff-converged: identical at 64 and 128). A fixed threshold pair
    # (1e-6, 1e-8) therefore cannot hold on both sides of the implication at
    # grid points where d passes through (1e-8, 8.1e-4); at t = 4.57 the
    # sweep has E = 8.80e-7 with d = 7.56e-4. The exact statement (E = 0 if
    # and only if the residual vanishes) is verified elsewhere, and the
    # forward direction E > 1e-6 => d > 1e-8 holds at every grid point.
    with criterion(11, "measure and first-type criterion agree pointwise on every preset"):
        for name in PRESET_NAMES:
            for row in sweeps(name):
                assert (row.entanglement > 1e-6) == (row.type1_max > 1e-8), (name, row.t)


def test_criterion_12_determinism():
    with criterion(12, "identical configuration produces byte-identical CSV"):
        cfg = config_from_dict(preset_config("fig2f"))
        first, second = io.BytesIO(), io.BytesIO()
        emit_csv(run_sweep(cfg), first)
        emit_csv(run_sweep(cfg), second)
        assert first.getvalue() == second.getvalue()
        assert len(first.getvalue()) > 0

import ast
import concurrent.futures
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dephasim.cli
import dephasim.sweep
from dephasim import dephasing, linalg
from dephasim.config import (
    OutputFlags,
    QubitBosonModel,
    RunConfig,
    ThermalEnv,
    TimeGrid,
    config_from_dict,
    load_schedule_file,
)
from dephasim.dephasing import (
    Segment,
    SegmentSchedule,
    blocks_at,
    equal_superposition,
    joint_state,
    propagators_at,
    segment_chunks,
)
from dephasim.entanglement import measure_from_fidelity, type2_residuals
from dephasim.errors import (
    CutoffCapExceeded,
    DephasimError,
    DimensionMismatch,
    InvalidArgument,
    NonFiniteError,
    NotNormalizedError,
    TimeOutOfRange,
    ValidationError,
)
from dephasim.fock import FockSpace, coherent_state, env_from_matrix, fock_state, thermal_state
from dephasim.linalg import (
    fidelity,
    negativity,
    negativity_of_factors,
    psd_factor,
    trace_distance,
)
from dephasim.presets import PRESET_NAMES, preset_config
from dephasim.qubit_boson import AlphaSegment, QubitBosonParams, build_schedule
from dephasim.sweep import (
    CSV_HEADER,
    Route,
    SweepRow,
    convergence_report,
    emit_csv,
    evaluate,
    run_sweep,
)
from test_precision import NEG_FLOOR_UNITS, TD_FLOOR_UNITS
from util import (
    branch_generator,
    chunk_stacks,
    expm,
    generator_matrices,
    normalized_coherence,
    random_density,
    random_hermitian,
    recorded_routes,
)

EQUAL = equal_superposition(2)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py, loaded from its file once and registered as perfbench_<name>."""
    if f"perfbench_{name}" not in sys.modules:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[f"perfbench_{name}"]


def small_fig2d(steps=31, cutoff=16):
    cfg = preset_config("fig2d")
    cfg["time"]["steps"] = steps
    cfg["cutoff"] = cutoff
    return config_from_dict(cfg)


class TestRunSweep:
    def test_grid_and_monotonicity(self):
        rows = run_sweep(small_fig2d())
        times = [r.t for r in rows]
        assert times[0] == 0.0
        assert times[-1] == 6.0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_boundaries_inserted_when_off_grid(self):
        # 7 points on [0, 6] step 1.0 ... but shifted: use steps that miss 2 and 4
        cfg = preset_config("fig2d")
        cfg["time"]["steps"] = 8  # spacing 6/7, grid misses the switch times
        cfg["cutoff"] = 8
        rows = run_sweep(config_from_dict(cfg))
        times = [r.t for r in rows]
        assert any(abs(t - 2.0) < 1e-12 for t in times)
        assert any(abs(t - 4.0) < 1e-12 for t in times)
        assert len(times) == 10

    def test_matches_naive_module_composition(self):
        # the conjugated fast path must agree with the direct block pipeline
        cfg = small_fig2d(steps=13)
        rows = run_sweep(cfg)
        params = QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=16)
        schedule = build_schedule(params)
        env = thermal_state(2.0, FockSpace(16))
        for row in rows[::3]:
            blocks = blocks_at(schedule, env, EQUAL, row.t)
            e = measure_from_fidelity(EQUAL, fidelity(blocks.blocks[0, 0], blocks.blocks[1, 1]))
            coh = normalized_coherence(blocks, 0, 1)
            t1 = trace_distance(blocks.blocks[0, 0], blocks.blocks[1, 1])
            assert abs(row.entanglement - e) <= 1e-12
            assert abs(row.coherence_norm - coh) <= 1e-12
            assert abs(row.type1_max - t1) <= 1e-12

    def test_row_ranges(self):
        for row in run_sweep(small_fig2d()):
            assert 0.0 <= row.entanglement <= 1.0
            assert row.coherence_norm >= 0.0
            assert row.type1_max >= 0.0
            assert row.type2_max == 0.0  # no second-type conditions for a qubit
            assert row.negativity is None
            assert row.cutoff == 16

    def test_output_flags_disable_columns(self):
        cfg_dict = preset_config("fig2e")
        cfg_dict["time"]["steps"] = 5
        cfg_dict["cutoff"] = 8
        cfg_dict["outputs"] = {"entanglement": False, "coherence": False, "type2": False}
        rows = run_sweep(config_from_dict(cfg_dict))
        assert all(r.entanglement is None for r in rows)
        assert all(r.coherence_norm is None for r in rows)
        assert all(r.type2_max is None for r in rows)
        assert all(r.type1_max is not None for r in rows)

    def test_negativity_flag(self):
        cfg_dict = preset_config("fig2d")
        cfg_dict["time"]["steps"] = 5
        cfg_dict["cutoff"] = 8
        cfg_dict["outputs"] = {"negativity": True}
        rows = run_sweep(config_from_dict(cfg_dict))
        assert rows[0].negativity <= 1e-10  # product state at t = 0
        assert max(r.negativity for r in rows) > 1e-4

    def test_t_start_offsets_reported_times(self):
        cfg_dict = preset_config("fig2f")
        cfg_dict["time"]["steps"] = 5
        cfg_dict["cutoff"] = 8
        rows = run_sweep(config_from_dict(cfg_dict))
        assert rows[0].t == 2.0
        assert rows[-1].t == 6.0

    def test_t_max_beyond_schedule_rejected(self):
        cfg_dict = preset_config("fig2d")
        cfg_dict["time"]["t_max"] = 7.5
        cfg_dict["cutoff"] = 8
        with pytest.raises(ValidationError) as err:
            run_sweep(config_from_dict(cfg_dict))
        assert err.value.field == "time.t_max"

    @pytest.mark.parametrize(
        "key, value, field, reason",
        [
            (
                "amplitudes",
                [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]],
                "amplitudes",
                "3 amplitudes for a system of dimension 2",
            ),
            (
                "initial_env",
                {"fock": {"n": 8}},
                "initial_env.fock.n",
                "level 8 outside the truncated basis 0..7",
            ),
        ],
    )
    def test_rules_across_inputs_are_checked_by_the_run(self, key, value, field, reason):
        # the config accepts each input alone; the run checks it against the
        # schedule's pointer count or the cutoff
        cfg_dict = preset_config("fig2e")
        cfg_dict["cutoff"] = 8
        cfg_dict[key] = value
        cfg = config_from_dict(cfg_dict)
        with pytest.raises(ValidationError) as err:
            run_sweep(cfg)
        assert (err.value.field, err.value.reason) == (field, reason)

    def test_t_max_held_to_the_time_lookup_slack(self):
        # the grid allowed 1e-9 past the end, the time lookup only 1e-12 of the
        # duration: 5e-10 past it was a TimeOutOfRange, a numerical failure
        cfg_dict = preset_config("fig2e")
        cfg_dict["time"] = {"t_max": 6.0 + 5e-13, "steps": 5}
        cfg_dict["cutoff"] = 8
        assert len(run_sweep(config_from_dict(cfg_dict))) == 5
        cfg_dict["time"]["t_max"] = 6.0000000005
        with pytest.raises(ValidationError) as err:
            run_sweep(config_from_dict(cfg_dict))
        assert err.value.field == "time.t_max"

    def test_pure_initial_state_is_never_eigensolved(self, monkeypatch):
        # a coherent R(0) carries its amplitude column as its factor: the dense
        # matrix is checked (Hermitian, unit trace) but never eigensolved
        cfg = preset_config("fig3a")
        cfg["time"]["steps"] = 5
        cfg["cutoff"] = 32
        zeta = cfg["initial_env"]["coherent"]
        env0 = coherent_state(complex(zeta["re"], zeta["im"]), FockSpace(32))
        assert env0.factor.shape == (32, 1)
        assert np.abs(env0.factor @ env0.factor.conj().T - env0.matrix).max() <= 1e-15
        on_rho0 = []
        for name in ("eigh", "eigvalsh"):

            def counted(m, *args, _solve=getattr(np.linalg, name), **kwargs):
                on_rho0.append(np.array_equal(m, env0.matrix))
                return _solve(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        run_sweep(config_from_dict(cfg))
        assert on_rho0 and not any(on_rho0)

    @pytest.mark.parametrize("name", ["fig3a", "fig2a"])
    def test_rank_one_sweep_makes_no_lapack_call_per_point(self, monkeypatch, name):
        # R(0) of rank 1 (coherent, vacuum): the fidelity and the trace distance
        # are closed forms, so the one LAPACK call is the driven step's eigh
        cfg = preset_config(name)
        cfg["time"]["steps"] = 7
        cfg["cutoff"] = 32
        calls = []
        for solver in ("eigh", "eigvalsh", "qr", "svd"):

            def counted(*args, _solve=getattr(np.linalg, solver), _name=solver, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, solver, counted)
        run_sweep(config_from_dict(cfg))
        assert calls == ["eigh"]

    def test_undriven_thermal_points_make_no_eigvalsh_svd_or_qr(self, monkeypatch):
        # fig2c before its step (t < 2): R(0) and both generators are diagonal, so
        # the overlap Y_0^dag Y_1 and the Gram difference of the type-1 route have
        # no nonzero off their diagonals and are read off them
        cfg = preset_config("fig2c")
        cfg["time"] = {"t_max": 1.99, "steps": 200}
        calls = []
        for solver in ("eigvalsh", "qr", "svd"):

            def counted(*args, _solve=getattr(np.linalg, solver), _name=solver, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, solver, counted)
        rows = run_sweep(config_from_dict(cfg))
        assert calls == [] and len(rows) == 200
        assert max(abs(row.entanglement) + row.type1_max for row in rows) <= 1e-14

    @pytest.mark.parametrize("name, solves", [("fig2d", 1), ("fig2e", 0)])
    def test_only_the_driven_generator_is_eigensolved(self, monkeypatch, name, solves):
        # the thermal R(0) and the undriven generators are diagonal: read off,
        # not solved; the driven one is solved once, as its real gauged tridiagonal
        cfg = preset_config(name)
        cfg["time"]["steps"] = 5
        cfg["cutoff"] = 32
        solved, solve = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(m) or solve(m))
        run_sweep(config_from_dict(cfg))
        assert len(solved) == solves
        driven = branch_generator(0.5 + 0.5j, 1.0, 0.0, FockSpace(32))  # alpha = (1+i)/2
        # beta n >= 0, so |V| is T: the diagonal and the moduli of the off-diagonals
        gauged = np.abs((driven + driven.conj().T) / 2)
        assert all(m.dtype == np.float64 and np.array_equal(m, gauged) for m in solved)

    def test_auto_cutoff_resolution(self):
        cfg_dict = preset_config("fig2d")
        cfg_dict["time"]["steps"] = 3
        cfg_dict["cutoff"] = "auto"
        rows = run_sweep(config_from_dict(cfg_dict))
        # theta = 2 with tail tolerance 1e-12 needs 64; displacement reach fits
        assert rows[0].cutoff == 64

    def test_equal_superposition_zero_temperature_phase1(self):
        cfg_dict = preset_config("fig2a")
        cfg_dict["time"]["steps"] = 25
        cfg_dict["cutoff"] = 16
        rows = run_sweep(config_from_dict(cfg_dict))
        for row in rows:
            if row.t < 2.0:
                assert row.entanglement <= 1e-10
                assert abs(row.coherence_norm - 1.0) <= 1e-10


def as_pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def assert_rows_match_blocks(rows, schedule, env, c, e_tol=1e-12):
    # every column against the direct d x d block pipeline
    for row in rows:
        blocks = blocks_at(schedule, env, c, row.t)
        r = blocks.blocks
        n = len(c)
        t1 = max(trace_distance(r[i, i], r[j, j]) for i in range(n) for j in range(i + 1, n))
        assert abs(row.type1_max - t1) <= 1e-12, row.t
        assert abs(row.coherence_norm - normalized_coherence(blocks, 0, 1)) <= 1e-12, row.t
        if n == 2:
            f = fidelity(r[0, 0], r[1, 1])
            assert abs(row.entanglement - 4 * abs(c[0] * c[1]) ** 2 * (1 - f)) <= e_tol, row.t
        else:
            assert row.entanglement is None
            t2 = max(x.residual for x in type2_residuals(propagators_at(schedule, row.t)))
            assert abs(row.type2_max - t2) <= 1e-12, row.t


class TestFactorKernel:
    def test_pure_state_identity_on_fig3a(self):
        # pure R(0): E = 4|c0 c1|^2 (1 - coh^2) exactly; the eigvalsh route missed by 3.2e-8
        rows = run_sweep(config_from_dict(preset_config("fig3a")))
        assert len(rows) == 601
        for row in rows:
            assert abs(row.entanglement - (1.0 - row.coherence_norm**2)) <= 1e-12, row.t

    def test_rank_deficient_thermal_matches_blocks(self):
        # rank 18 of 64: the trace distance runs on the QR-reduced 36 x 36 problem.
        # E gets 5e-12: at t = 6 fidelity() on the formed 64 x 64 blocks is
        # 1.3e-12 off a 40-digit evaluation (its eigh noise reaches F through
        # square roots), the factor kernel 5.2e-13 (the rank cut).
        cfg = preset_config("fig2b")
        cfg["time"]["steps"] = 13
        cfg["amplitudes"] = [[0.6, 0.0], [0.0, 0.8]]
        cfg = config_from_dict(cfg)
        env = thermal_state(0.5, FockSpace(64))
        assert psd_factor(env.matrix).shape[1] == 18
        schedule = build_schedule(
            QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=64)
        )
        rows = run_sweep(cfg)
        assert_rows_match_blocks(rows, schedule, env, np.array([0.6, 0.8j]), e_tol=5e-12)

    def test_propagator_path_matches_factor_path(self, tmp_path):
        # type-2 on (N >= 3) steps the identity and takes Y_i = w_i A; off steps A itself
        cfg, _, _, _ = kernel_case("negativity", tmp_path)
        on = run_sweep(cfg)
        off = run_sweep(dataclasses.replace(cfg, outputs=dataclasses.replace(cfg.outputs, type2=False)))
        assert [r.t for r in on] == [r.t for r in off]
        assert max(r.type2_max for r in on) > 1e-3
        assert all(r.type2_max is None for r in off)
        for a, b in zip(off, on):
            assert abs(a.coherence_norm - b.coherence_norm) <= 1e-13, a.t
            assert abs(a.type1_max - b.type1_max) <= 1e-13, a.t
            assert abs(a.negativity - b.negativity) <= 1e-13, a.t

    def test_full_rank_qutrit_matches_blocks(self, tmp_path):
        # full-rank R(0): 2r >= d, the trace distance uses the d x d difference
        rng = np.random.default_rng(21)
        d = 5
        doc = {
            "system_dim": 3,
            "env_dim": d,
            "segments": [
                {"duration": dur, "generators": [as_pairs(random_hermitian(rng, d)) for _ in range(3)]}
                for dur in (0.7, 1.1)
            ],
        }
        (tmp_path / "s.json").write_text(json.dumps(doc))
        rho = random_density(rng, d)
        (tmp_path / "env.json").write_text(json.dumps({"matrix": as_pairs(rho)}))
        cfg = config_from_dict(
            {
                "model": {"schedule_file": str(tmp_path / "s.json")},
                "initial_env": {"matrix_file": str(tmp_path / "env.json")},
                "time": {"t_max": 1.8, "steps": 10},
                "cutoff": d,
            }
        )
        env = env_from_matrix(rho)
        assert psd_factor(env.matrix).shape[1] == d
        schedule = load_schedule_file(tmp_path / "s.json")
        assert_rows_match_blocks(run_sweep(cfg), schedule, env, equal_superposition(3))


def kernel_case(name, tmp_path):
    """(config, schedule, R(0), amplitudes) of one path through segment_chunks.

    qubit_boson: pointer 1 reuses the eigenvectors of pointer 0 (the phase
    frame), thermal R(0) of rank 9 < d/2, so type-1 is QR-reduced. unrelated:
    a 2-pointer schedule file with independent random generators (unframed
    stacks) and a rank-2 R(0).
    negativity: 3 pointers and the negativity, so the kernel forms w_i itself.
    Every grid has segment boundaries that fall off the uniform grid.
    """
    c = np.array([0.6, 0.8j])
    if name == "qubit_boson":
        cfg = preset_config("fig2b")
        cfg["model"]["qubit_boson"]["segments"] = [
            {"duration": 0.7, "alpha": [0.0, 0.0]},
            {"duration": 1.1, "alpha": [0.5, 0.5]},
            {"duration": 0.5, "alpha": [0.0, -0.3]},
        ]
        cfg.update(cutoff=16, time={"t_max": 2.3, "steps": 7}, amplitudes=[[0.6, 0], [0, 0.8]])
        cfg = config_from_dict(cfg)
        schedule = build_schedule(
            QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=16)
        )
        return cfg, schedule, thermal_state(0.5, FockSpace(16)).matrix, c
    rng = np.random.default_rng(8)
    n, d = (2, 6) if name == "unrelated" else (3, 5)
    doc = {
        "system_dim": n,
        "env_dim": d,
        "segments": [
            {"duration": dur, "generators": [as_pairs(random_hermitian(rng, d)) for _ in range(n)]}
            for dur in (0.7, 1.1)
        ],
    }
    (tmp_path / "s.json").write_text(json.dumps(doc))
    g = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    (tmp_path / "env.json").write_text(json.dumps({"matrix": as_pairs(rho)}))
    cfg = {
        "model": {"schedule_file": str(tmp_path / "s.json")},
        "initial_env": {"matrix_file": str(tmp_path / "env.json")},
        "time": {"t_max": 1.8, "steps": 7},
        "cutoff": d,
    }
    if name == "unrelated":
        cfg["amplitudes"] = [[0.6, 0], [0, 0.8]]
    else:
        c = equal_superposition(3)
        cfg["outputs"] = {"negativity": True}
    return config_from_dict(cfg), load_schedule_file(tmp_path / "s.json"), rho, c


def oracle_propagators(schedule, t):
    """w_i(t) as the chronological product of expm over the segments."""
    ws = []
    for i in range(schedule.system_dim):
        w = np.eye(schedule.env_dim, dtype=complex)
        for start, seg in zip(schedule.boundaries, schedule.segments):
            w = expm(-1j * generator_matrices(seg)[i] * min(max(t - start, 0.0), seg.duration)) @ w
        ws.append(w)
    return ws


def oracle_blocks(schedule, rho, t):
    """R_ij(t) from the chronological product of expm over the segments."""
    ws = oracle_propagators(schedule, t)
    return np.array([[wi @ rho @ wj.conj().T for wj in ws] for wi in ws])


class TestSegmentKernel:
    @pytest.mark.parametrize("name", ["qubit_boson", "unrelated", "negativity"])
    def test_chunk_budget_leaves_rows_unchanged(self, name, tmp_path, monkeypatch):
        cfg, schedule, _, _ = kernel_case(name, tmp_path)
        runs, chunks = [], []
        for budget in (1, 1 << 40):  # one point per chunk and run, then one per segment
            monkeypatch.setattr(dephasing, "CHUNK_BYTES", budget)  # the segment_chunks chunks
            monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)  # the partial-transpose runs
            runs.append(run_sweep(cfg))
            times = [row.t for row in runs[-1]]
            eye = np.eye(schedule.env_dim, dtype=complex)
            chunks.append(len(list(segment_chunks(schedule, eye, times))))
        assert chunks == [len(runs[0]), len(schedule.segments)]
        for a, b in zip(*runs):
            assert a.t == b.t
            for field in ("entanglement", "coherence_norm", "type1_max", "type2_max", "negativity"):
                x, y = getattr(a, field), getattr(b, field)
                assert (x is None) == (y is None), (field, a.t)
                assert x is None or abs(x - y) <= 1e-14, (field, a.t, x - y)

    @pytest.mark.parametrize("name", ["qubit_boson", "unrelated", "negativity"])
    def test_boundaries_and_origin_match_expm_oracle(self, name, tmp_path):
        cfg, schedule, rho, c = kernel_case(name, tmp_path)
        shared = [u is s[0][1] for s in schedule._eigensystems for _, u in s[1:]]
        assert all(shared) if name == "qubit_boson" else not any(shared)
        rows = {row.t: row for row in run_sweep(cfg)}
        n = len(c)
        assert set(schedule.boundaries) <= set(rows)  # t = 0, every switch and the end
        for t in schedule.boundaries:
            row, r = rows[t], oracle_blocks(schedule, rho, t)
            blocks = blocks_at(schedule, env_from_matrix(rho), c, t)
            assert np.abs(blocks.blocks - r).max() <= 1e-13, t
            t1 = max(trace_distance(r[i, i], r[j, j]) for i in range(n) for j in range(i + 1, n))
            assert abs(row.type1_max - t1) <= 1e-13, t
            assert abs(row.coherence_norm - abs(np.trace(r[0, 1]))) <= 1e-13, t
            if n == 2:
                e = 4 * abs(c[0] * c[1]) ** 2 * (1 - fidelity(r[0, 0], r[1, 1]))
                assert abs(row.entanglement - e) <= 1e-12, t
            else:
                weighted = [[c[i] * c[j].conjugate() * r[i, j] for j in range(n)] for i in range(n)]
                sigma = np.block(weighted)
                assert abs(row.negativity - negativity(sigma, n, schedule.env_dim)) <= 1e-12, t

    @pytest.mark.parametrize("name", ["unrelated", "negativity", "mixed"])
    def test_unshared_segments_take_the_unframed_stacks(self, name, tmp_path):
        # with no eigenvectors shared, frame=True is frame=False bit for bit (V = I);
        # mixed: a diagonal and a tridiagonal generator, then a diagonal and a dense one
        if name == "mixed":
            schedule, a = mixed_schedule(), np.eye(4, dtype=complex)[:, :1]
        else:
            _, schedule, rho, _ = kernel_case(name, tmp_path)
            a = psd_factor(rho)
        systems = schedule._eigensystems
        unshared = [k for k, s in enumerate(systems) if any(u is not s[0][1] for _, u in s[1:])]
        assert unshared == [0, 1]
        for k in unshared:
            start, end = schedule.boundaries[k : k + 2]
            times = start + (end - start) * np.arange(4) / 4
            framed, plain = (chunk_stacks(schedule, a, times, frame=f) for f in (True, False))
            assert [first for first, _ in framed] == [first for first, _ in plain]
            for (_, x), (_, y) in zip(framed, plain, strict=True):
                assert all(np.array_equal(p, q) for p, q in zip(x, y, strict=True)), k


MIXED_DURATIONS = (0.7, 0.9, 0.6)


def mixed_generators():
    """Per segment, the generators of mixed_schedule.

    Segment 0: pointer 0 diagonal, pointer 1 the opposite diagonal order
    with rows 0 and 1 coupled (tridiagonal), so their eigenvectors differ.
    Segment 1 mixes pointer 1 only. Segment 2 is (D, -D).
    """
    rng = np.random.default_rng(3)
    diag = [np.diag(v).astype(complex) for v in ([0, 1, 2, 3], [3, 2, 1, 0], [0, 0.5, -1, 2])]
    coupled = diag[1].copy()
    coupled[0, 1], coupled[1, 0] = 0.4 - 0.3j, 0.4 + 0.3j
    shift = np.diag([1.0, -0.5, 0.25, 2.0]).astype(complex)
    return [[diag[0], coupled], [diag[2], random_hermitian(rng, 4)], [shift, -shift]]


def mixed_schedule():
    """The schedule of test_rows_are_the_union_over_pointers_and_all_under_a_frame."""
    segments = (Segment(dur, tuple(g)) for dur, g in zip(MIXED_DURATIONS, mixed_generators()))
    return SegmentSchedule(2, 4, tuple(segments))


def carried_rows(schedule, a, times):
    """{t: number of rows of the frame stacks} over the times, per segment_chunks chunk."""
    carried = {}
    for first, stacks in chunk_stacks(schedule, a, times, frame=True):
        assert len({s.shape[1:] for s in stacks}) == 1
        carried.update(dict.fromkeys(times[first : first + len(stacks[0])], stacks[0].shape[1]))
    return carried


def assert_rows_match_oracle(rows, schedule, rho, c, tol=1e-13):
    """Every column of a 2-pointer sweep against Y_i = w_i A over all d rows.

    w_i comes from oracle_propagators and A is the sweep's factor of R(0).
    F is the SVD formula on the d-row factors: the fidelity of the formed
    blocks carries 1e-12 of eigh noise at d = 128.
    """
    a = psd_factor(rho)
    for row in rows:
        ys = [w @ a for w in oracle_propagators(schedule, row.t)]
        r = np.array([[yi @ yj.conj().T for yj in ys] for yi in ys])
        f = np.sum(np.linalg.svd(ys[0].conj().T @ ys[1], compute_uv=False)) ** 2
        assert abs(row.entanglement - 4 * abs(c[0] * c[1]) ** 2 * (1 - f)) <= tol, row.t
        assert abs(row.coherence_norm - abs(np.trace(r[0, 1]))) <= tol, row.t
        assert abs(row.type1_max - trace_distance(r[0, 0], r[1, 1])) <= tol, row.t
        if row.negativity is not None:
            sigma = np.block([[c[i] * c[j].conjugate() * r[i, j] for j in (0, 1)] for i in (0, 1)])
            assert abs(row.negativity - negativity(sigma, 2, schedule.env_dim)) <= tol, row.t


class TestRowSupport:
    """Frame stacks carry only the rows some B_i reaches, in segments whose pointers share u."""

    def test_stepped_thermal_drops_rows_and_matches_oracle(self):
        cfg = preset_config("fig2b")
        cfg.update(cutoff=128, time={"t_max": 6.0, "steps": 7}, outputs={"negativity": True})
        cfg = config_from_dict(cfg)
        rho = thermal_state(0.5, FockSpace(128)).matrix
        schedule = build_schedule(
            QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=128)
        )
        rows = run_sweep(cfg)
        carried = carried_rows(schedule, psd_factor(rho), [row.t for row in rows])
        assert carried[1.0] == psd_factor(rho).shape[1] and carried[3.0] < 128
        assert_rows_match_oracle(rows, schedule, rho, EQUAL)
        assert max(row.negativity for row in rows) > 1e-3

    def test_undriven_step_carries_the_rank_of_r0(self):
        cfg = config_from_dict(preset_config("fig2b"))
        a = thermal_state(0.5, FockSpace(64)).factor
        schedule = build_schedule(
            QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=64)
        )
        times = [row.t for row in run_sweep(cfg)]
        carried = carried_rows(schedule, a, times)
        assert {carried[t] for t in times if t < 2.0} == {a.shape[1]} == {18}

    def test_rows_are_the_union_over_pointers_and_all_under_a_frame(self, tmp_path):
        # R(0) = |0><0|. Segment 0: pointer 0 diagonal, pointer 1 tridiagonal
        # (mixing rows 0 and 1), so u_1 != u_0: unframed, all 4 rows. Segment 1
        # mixes pointer 1 only. Segment 2 is (D, -D): B_0 reaches one row, B_1
        # every row, so a stack cut to the rows of B_0 alone would be wrong.
        d = 4
        doc = {
            "system_dim": 2,
            "env_dim": d,
            "segments": [
                {"duration": dur, "generators": [as_pairs(g) for g in gens]}
                for dur, gens in zip(MIXED_DURATIONS, mixed_generators())
            ],
        }
        (tmp_path / "s.json").write_text(json.dumps(doc))
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        (tmp_path / "env.json").write_text(json.dumps({"matrix": as_pairs(rho)}))
        cfg = config_from_dict(
            {
                "model": {"schedule_file": str(tmp_path / "s.json")},
                "initial_env": {"matrix_file": str(tmp_path / "env.json")},
                "time": {"t_max": 2.2, "steps": 12},
                "cutoff": d,
                "amplitudes": [[0.6, 0], [0, 0.8]],
            }
        )
        schedule = load_schedule_file(tmp_path / "s.json")
        rows = run_sweep(cfg)
        carried = carried_rows(schedule, psd_factor(rho), [row.t for row in rows])
        assert set(carried.values()) == {d}
        assert_rows_match_oracle(rows, schedule, rho, np.array([0.6, 0.8j]))
        assert max(row.type1_max for row in rows if row.t > 1.6) > 1e-2

    def test_only_driven_steps_hold_an_eigenvector_matrix(self):
        # fig2d: undriven, driven, undriven. Only the driven step holds a u, one
        # gauged pair (phi, Q) for both branches with Q real, so the only d x d x r
        # products are its two real rotations in and its two real factors out
        schedule, _ = thermal_case(config_from_dict(preset_config("fig2d")), 32)
        held = [[u for _, u in system] for system in schedule._eigensystems]
        assert held[0] == held[2] == [None, None]
        phi, q = held[1][0]
        assert phi.shape == (32,) and q.shape == (32, 32) and q.dtype == np.float64
        assert held[1][1] is held[1][0]

    def test_diagonal_generators_in_any_order_share_the_identity_frame(self):
        # diag(0, 1, 2, 3) and diag(3, 2, 1, 0) sort in opposite orders, but both
        # eigenbases are the identity: neither holds a u, and the stacks are
        # framed and cut to rows 0 and 2, the rows R(0) reaches
        diag = [np.diag(v).astype(complex) for v in ([0, 1, 2, 3], [3, 2, 1, 0])]
        schedule = SegmentSchedule(2, 4, (Segment(0.7, tuple(diag)),))
        (w0, u0), (w1, u1) = schedule._eigensystems[0]
        assert u0 is None and u1 is None
        assert w0.tolist() == [0, 1, 2, 3] and w1.tolist() == [3, 2, 1, 0]
        a = np.eye(4, dtype=complex)[:, [0, 2]] / np.sqrt(2)
        times = [0.0, 0.35, 0.7]
        assert set(carried_rows(schedule, a, times).values()) == {2}
        (_, stacks), = chunk_stacks(schedule, a, times, frame=True)
        for t, ys in zip(times, zip(*stacks)):
            exact = [w @ a for w in oracle_propagators(schedule, t)]
            for i, j in ((0, 0), (0, 1), (1, 1)):
                gram = ys[i].conj().T @ ys[j]
                assert np.abs(gram - exact[i].conj().T @ exact[j]).max() <= 1e-15, (t, i, j)

    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_tail_cut_moves_type1_and_the_negativity_within_two_floors_the_rest_within_1e_15(
        self, k, monkeypatch
    ):
        # fig2d at cutoff 256, its drive turned by 2 pi k / 12: the displaced populations
        # fall far below ROW_TAIL before row 256 but are not exactly zero there. The cut
        # run takes type-1 from the direct eigensolve over the kept rows, the uncut run
        # from a QR over all 256, and the negativity likewise. Both step the kept rows bit
        # for bit, so only the kernel term of each floor enters: each run is within
        # TD_FLOOR_UNITS (NEG_FLOOR_UNITS) eps |A|^2 of the exact value, and the two within
        # twice that (3.6e-15 and 3.55e-15), where the cut itself moves them by O(1e-18).
        # The negativity moved by 7.8e-16, 1.11e-15 and 1.05e-15 for k = 0, 1 and 6
        cfg = preset_config("fig2d")
        for segment in cfg["model"]["qubit_boson"]["segments"]:
            alpha = complex(*segment["alpha"]) * np.exp(2j * np.pi * k / 12)
            segment["alpha"] = [alpha.real, alpha.imag]
        cfg.update(cutoff=256, time={"t_max": 6.0, "steps": 13}, outputs={"negativity": True})
        cfg = config_from_dict(cfg)
        schedule, a = thermal_case(cfg, 256)
        tail = carried_rows(schedule, a, SEGMENT_MIDPOINTS)
        tail_rows = run_sweep(cfg)
        monkeypatch.setattr(dephasing, "ROW_TAIL", 0.0)  # drop exactly-zero rows only
        exact = carried_rows(schedule, a, SEGMENT_MIDPOINTS)
        exact_rows = run_sweep(cfg)
        assert tail[1.0] == exact[1.0] and tail[3.0] < exact[3.0] and tail[5.0] < exact[5.0]
        # Y_0 and Y_1 have the norm of A, and Z that of A times |c| = 1
        eps, norm = np.finfo(float).eps, np.linalg.norm(a) ** 2
        bounds = {"type1_max": 2 * TD_FLOOR_UNITS * eps * max(1.0, norm),
                  "negativity": 2 * NEG_FLOOR_UNITS * eps * norm}
        for x, y in zip(tail_rows, exact_rows, strict=True):
            assert x.t == y.t
            for field in ("entanglement", "coherence_norm", "type1_max", "negativity"):
                diff = abs(getattr(x, field) - getattr(y, field))
                assert diff <= bounds.get(field, 1e-15), (field, x.t, diff)

    @pytest.mark.parametrize(
        "name, cutoffs, carried",
        [("fig2b", (64, 128, 256), [18, 43, 51]), ("fig2d", (128, 256), [70, 102, 115])],
    )
    def test_rows_carried_do_not_grow_past_the_reach(self, name, cutoffs, carried):
        cfg = config_from_dict(preset_config(name))
        for cutoff in cutoffs:
            rows = carried_rows(*thermal_case(cfg, cutoff), SEGMENT_MIDPOINTS)
            assert list(rows.values()) == carried, cutoff

    @pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
    def test_non_finite_weight_carries_every_row(self, bad):
        # 1e200 gives finite B_i whose weight overflows to inf, which would let
        # every row pass the cumulative tail test; inf and nan give NaN in B_i,
        # which segment_chunks reports at the first time only because every row
        # is carried: dropping the rows would yield empty, finite stacks
        schedule, a = thermal_case(config_from_dict(preset_config("fig2b")), 64)
        assert list(carried_rows(schedule, a, SEGMENT_MIDPOINTS).values()) == [18, 43, 51]
        a = a.copy()
        a[0, 0] = bad
        with np.errstate(all="ignore"):
            if np.isfinite(bad):
                carried = carried_rows(schedule, a, SEGMENT_MIDPOINTS)
                assert list(carried.values()) == [64, 64, 64]
            else:
                message = r"^evolved state is not finite at t = 1\.0$"
                with pytest.raises(NonFiniteError, match=message):
                    carried_rows(schedule, a, SEGMENT_MIDPOINTS)


SEGMENT_MIDPOINTS = [1.0, 3.0, 5.0]  # one time in each segment of the fig2 presets


def thermal_case(cfg, cutoff):
    """The schedule and the factor of R(0) of a thermal fig2 preset at a cutoff."""
    a = thermal_state(cfg.initial_env.theta, FockSpace(cutoff)).factor
    params = QubitBosonParams(beta=cfg.model.beta, segments=cfg.model.segments, cutoff=cutoff)
    return build_schedule(params), a


def factor_and_oracle(schedule, rho, c, t):
    """Z = [c_0 w_0 A; ...; c_{N-1} w_{N-1} A] at t, and negativity of the formed joint state."""
    a = psd_factor(rho)
    z = np.concatenate([ci * w @ a for ci, w in zip(c, propagators_at(schedule, t))])
    sigma = joint_state(blocks_at(schedule, env_from_matrix(rho), c, t))
    return z, negativity(sigma, len(c), schedule.env_dim)


class TestNegativityOfFactors:
    def test_full_span_matches_formed_state(self, tmp_path):
        # N r = 6 >= d = 5: no QR reduction, the 15 x 15 partial transpose itself
        _, schedule, rho, c = kernel_case("negativity", tmp_path)
        assert len(c) * psd_factor(rho).shape[1] >= schedule.env_dim
        zs, refs = zip(*(factor_and_oracle(schedule, rho, c, t) for t in np.linspace(0, 1.8, 7)))
        single = np.array([negativity_of_factors(z, 3) for z in zs])
        assert np.abs(single - refs).max() <= 1e-12
        assert max(refs) > 1e-3
        stacked = negativity_of_factors(np.array(zs), 3)
        assert stacked.shape == (7,)
        assert np.abs(stacked - single).max() <= 1e-14

    def test_partial_transposes_split_within_a_chunk(self, tmp_path, monkeypatch):
        # 15 x 15 partial transposes: a budget of two of them leaves the chunks
        # whole and has negativity_of_factors evaluate each in runs of 2
        cfg, _, _, _ = kernel_case("negativity", tmp_path)
        whole = run_sweep(cfg)
        monkeypatch.setattr(linalg, "CHUNK_BYTES", 2 * 16 * 15**2)
        split = run_sweep(cfg)
        assert [r.t for r in split] == [r.t for r in whole]
        for a, b in zip(whole, split):
            assert abs(a.negativity - b.negativity) <= 1e-14, a.t

    def test_runs_keep_the_bits(self, tmp_path, monkeypatch):
        # a (7, 15, r) stack in runs of 2, 2, 2 and 1 gives the bits of one run
        # of 7 and of 7 single calls
        _, schedule, rho, c = kernel_case("negativity", tmp_path)
        zs = np.array([factor_and_oracle(schedule, rho, c, t)[0] for t in np.linspace(0, 1.8, 7)])
        assert zs.shape[:2] == (7, 15) and len(c) * zs.shape[2] >= schedule.env_dim
        one_run = negativity_of_factors(zs, 3)
        single = np.array([negativity_of_factors(z, 3) for z in zs])
        monkeypatch.setattr(linalg, "CHUNK_BYTES", 2 * 16 * 15**2)
        runs, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: runs.append(len(m)) or eigvalsh(m))
        split = negativity_of_factors(zs, 3)
        assert runs == [2, 2, 2, 1]
        assert split.tobytes() == one_run.tobytes() == single.tobytes()

    def test_rank_one_qubit_is_qr_reduced(self, monkeypatch):
        # coherent R(0) at cutoff 16: rank 1, so a 4 x 4 eigensolve replaces the 32 x 32 one
        cfg = preset_config("fig3a")
        cfg.update(cutoff=16, outputs={"negativity": True})
        cfg["time"]["steps"] = 13
        cfg = config_from_dict(cfg)
        env = cfg.initial_env
        rho = coherent_state(complex(env.zeta), FockSpace(16)).matrix
        assert psd_factor(rho).shape[1] == 1
        schedule = build_schedule(
            QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=16)
        )
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(m):
            sizes.append(m.shape[-1])
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        rows = run_sweep(cfg)
        assert 4 in sizes and 2 * 16 not in sizes  # the partial transpose eigensolves
        monkeypatch.undo()
        for row in rows:
            z, ref = factor_and_oracle(schedule, rho, EQUAL, row.t)
            assert abs(negativity_of_factors(z, 2) - ref) <= 1e-12, row.t
            assert abs(row.negativity - ref) <= 1e-12, row.t
        assert max(row.negativity for row in rows) > 1e-3


class TestZeroAmplitudePointers:
    def test_product_state_reads_separable(self):
        # |0> (x) R(t) is a product state: no criterion may count pointer 1
        cfg = preset_config("fig2d")
        cfg.update(cutoff=16, amplitudes=[[1, 0], [0, 0]], outputs={"negativity": True})
        cfg["time"]["steps"] = 7
        cfg = config_from_dict(cfg)
        rows = run_sweep(cfg)
        for row in rows:
            assert (row.entanglement, row.type1_max, row.type2_max) == (0.0, 0.0, 0.0), row.t
            assert row.negativity == 0.0, row.t
        # the full fig2e grid reads F a little above 1, so E is 0 times a negative number
        fig2e = preset_config("fig2e")
        fig2e.update(cutoff=16, amplitudes=[[1, 0], [0, 0]])
        for sweep in (rows, run_sweep(config_from_dict(fig2e))):
            buf = io.BytesIO()
            emit_csv(sweep, buf)
            lines = buf.getvalue().decode().splitlines()[1:]
            assert "-0" not in [field for line in lines for field in line.split(",")]
        schedule = build_schedule(
            QubitBosonParams(beta=1.0, segments=cfg.model.segments, cutoff=16)
        )
        (row,) = evaluate(schedule, thermal_state(2.0, FockSpace(16)), [1, 0], [6.0])
        assert (row.type1_max, row.type2_max) == (0.0, 0.0)  # no condition left: separable


def evaluate_case(name):
    """(schedule, R(0), amplitudes, times) of one evaluate case; times are off-grid and unsorted.

    stepped: fig2d at cutoff 16 with thermal R(0). pointers3 and pointers4: random
    Hermitian generators on segments of 0.7 and 1.1, a rank-2 R(0) and c_0 = 0.
    """
    if name == "stepped":
        segments = config_from_dict(preset_config("fig2d")).model.segments
        schedule = build_schedule(QubitBosonParams(beta=1.0, segments=segments, cutoff=16))
        c = np.array([0.6, 0.8j])
        return schedule, thermal_state(2.0, FockSpace(16)), c, [5.91, 0.37, 2.0, 3.123456789, 4.2]
    rng = np.random.default_rng(31)
    n, d = (3, 5) if name == "pointers3" else (4, 4)
    segments = tuple(
        Segment(duration=dur, generators=tuple(random_hermitian(rng, d) for _ in range(n)))
        for dur in (0.7, 1.1)
    )
    g = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    env = env_from_matrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    c = np.array([0, 0.6, 0.8j]) if n == 3 else np.array([0, 0.6, 0.48j, 0.64])
    return SegmentSchedule(n, d, segments), env, c, [1.75, 0.11, 0.7, 1.234567, 0.5]


def reference_row(schedule, env, c, t):
    """The SweepRow at t from the formed d x d blocks and the propagators at t alone."""
    n, d = schedule.system_dim, schedule.env_dim
    state = blocks_at(schedule, env, c, t)
    r = state.blocks
    on = [i for i in range(n) if c[i] != 0]
    w = propagators_at(schedule, t)
    return SweepRow(
        t=t,
        entanglement=measure_from_fidelity(c, fidelity(r[0, 0], r[1, 1])) if n == 2 else None,
        coherence_norm=abs(np.trace(r[0, 1])) if c[0] * c[1] != 0 else None,
        type1_max=max(trace_distance(r[i, i], r[j, j]) for i, j in combinations(on, 2)),
        # the first pointer with c_i != 0 is the type-2 reference
        type2_max=max((x.residual for x in type2_residuals([w[i] for i in on])), default=0.0),
        negativity=negativity(joint_state(state), n, d),
        cutoff=d,
    )


class TestEvaluate:
    @pytest.mark.parametrize("name", ["stepped", "pointers3", "pointers4"])
    def test_every_column_matches_the_formed_state(self, name):
        schedule, env, c, times = evaluate_case(name)
        rows = evaluate(schedule, env, c, times, OutputFlags(negativity=True))
        assert [row.t for row in rows] == times
        for row in rows:
            ref = reference_row(schedule, env, c, row.t)
            assert row.cutoff == ref.cutoff
            for column in SweepRow._fields[1:-1]:
                value, expected = getattr(row, column), getattr(ref, column)
                if expected is None:
                    assert value is None, (row.t, column)
                else:
                    assert abs(value - expected) <= 1e-12, (row.t, column)
        if name == "pointers4":
            assert min(row.type2_max for row in rows) > 1e-3  # a nontrivial type-2 check

    @pytest.mark.parametrize("workload", ["pure-c64", "thermal-c256", "qutrit-neg"])
    def test_permuted_times_give_the_same_rows_bit_for_bit(self, workload):
        # one draw of each benchmark workload, the negativity on: the chunks of a
        # permuted grid come by segment, and each row lands at the index of its time
        draw = perfbench_module("workloads").WORKLOADS[workload](np.random.default_rng(1))
        schedule, env = draw.reference()
        times = np.linspace(0.0, draw.t_max, 61)
        order = np.random.default_rng(2).permutation(len(times))
        outputs = OutputFlags(negativity=True)
        rows = evaluate(schedule, env, draw.amplitudes, times, outputs)
        permuted = evaluate(schedule, env, draw.amplitudes, times[order], outputs)
        assert repr(permuted) == repr([rows[i] for i in order])

    def test_a_pure_pair_takes_one_gram_schmidt_step_per_chunk(self, monkeypatch):
        # a pure-c64 draw: E and type-1 of the one pair read the numbers of one
        # linalg._rank_one_pair call per segment_chunks chunk (the kernels call it too),
        # which in a shared frame reads pointer 0 once, and with both off there is no call
        draw = perfbench_module("workloads").WORKLOADS["pure-c64"](np.random.default_rng(1))
        schedule, env = draw.reference()
        assert env.factor.shape[1] == 1
        chunks, framed, steps, heads = [], [], [], []
        chunked, step = dephasim.sweep.segment_chunks, linalg._rank_one_pair

        def counted_chunks(*args, **kwargs):
            for chunk in chunked(*args, **kwargs):
                chunks.append(len(chunk[2]))  # the chunk's points
                framed.append(chunk[1] is not None)
                yield chunk

        def counted_step(a, b):
            steps.append(len(b))  # the stack's points
            heads.append(len(a))  # pointer 0's
            return step(a, b)

        monkeypatch.setattr(dephasim.sweep, "segment_chunks", counted_chunks)
        monkeypatch.setattr(linalg, "_rank_one_pair", counted_step)
        times = np.linspace(0.0, draw.t_max, draw.points)
        for coherence_only in (False, True):
            for calls in (chunks, framed, steps, heads):
                calls.clear()
            flags = OutputFlags(entanglement=not coherence_only, type1=not coherence_only)
            rows = evaluate(schedule, env, draw.amplitudes, times, flags)
            assert len(chunks) >= 3 and sum(chunks) == len(rows) == 601 and any(framed)
            assert steps == ([] if coherence_only else chunks)
            assert heads == [1 if f else n for f, n in zip(framed, steps)]
            assert all((row.entanglement is None) == (row.type1_max is None) == coherence_only
                       for row in rows)

    def test_memory_and_eigensolves_do_not_grow_with_the_segments(self, monkeypatch):
        # thermal R(0) at cutoff 256 under n alternating off/on steps over a total of 6,
        # built and evaluated: one step is held at a time, the generators are held as
        # bands, and the repeated driven generator is solved once (held together, the
        # steps peak at 3.3 and 40.2 MiB at n = 3 and 48, the dense generators take
        # 2 MiB per segment, and a solve per segment makes 24 driven ones at n = 48)
        env, times = thermal_state(2.0, FockSpace(256)), np.linspace(0.0, 6.0, 31)
        solves, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: solves.append(m.shape) or eigh(m))
        peaks = []
        for n in (3, 48):
            segments = [AlphaSegment(6.0 / n, 0.5 + 0.5j if k % 2 else 0.0) for k in range(n)]
            solves.clear()
            tracemalloc.start()
            try:
                schedule = build_schedule(QubitBosonParams(1.0, segments, 256))
                evaluate(schedule, env, EQUAL, times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert solves == [(256, 256)], n
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_t_start_offsets_only_the_time_column(self):
        schedule, env, c, times = evaluate_case("stepped")
        rows = evaluate(schedule, env, c, times)
        shifted = evaluate(schedule, env, c, times, t_start=2.0)
        assert [row.t for row in shifted] == [2.0 + t for t in times]
        assert [row[1:] for row in shifted] == [row[1:] for row in rows]

    @pytest.mark.parametrize(
        "error, change",
        [
            (DimensionMismatch, {"c": equal_superposition(3)}),
            (NotNormalizedError, {"c": np.array([0.6, 0.6])}),
            (DimensionMismatch, {"env": thermal_state(2.0, FockSpace(8))}),
            (TimeOutOfRange, {"times": [6.5]}),
            (TimeOutOfRange, {"times": [1.0, -0.1]}),
            (TimeOutOfRange, {"times": [float("nan")]}),
        ],
        ids=["amplitude-count", "not-normalized", "env-dim", "past-end", "negative", "nan"],
    )
    def test_input_errors(self, error, change):
        schedule, env, c, times = evaluate_case("stepped")
        args = {"env": env, "c": c, "times": times, **change}
        with pytest.raises(error) as err:
            evaluate(schedule, args["env"], args["c"], args["times"])
        assert isinstance(err.value, DephasimError)

    def test_overflowing_frame_phase_is_only_a_non_finite_error(self):
        # w_i = +/- beta n is finite at beta = 1e306, cutoff 128, but the shared frame's
        # w_1 - w_0 overflows; it raised numpy's RuntimeWarning, an error in this suite
        params = QubitBosonParams(beta=1e306, segments=(AlphaSegment(1.0, 0),), cutoff=128)
        env = thermal_state(0.5, FockSpace(128))
        with pytest.raises(NonFiniteError, match="^evolved state is not finite at t = 0.0$"):
            evaluate(build_schedule(params), env, equal_superposition(2), [0.0, 0.5])


class TestCutoffReach:
    def test_explicit_cutoff_below_drive_reach_warns(self):
        # reach (2 * 30)^2 = 3600 against cutoff/4 = 4: E would read a truncation artefact
        cfg = preset_config("fig2d")
        cfg["model"]["qubit_boson"]["segments"][1]["alpha"] = [30.0, 0.0]
        cfg["time"]["steps"] = 3
        cfg["cutoff"] = 16
        with pytest.warns(UserWarning, match="drive displacement reach") as record:
            run_sweep(config_from_dict(cfg))
        # the warning points at the caller of run_sweep, not inside the package
        assert [w.filename for w in record] == [__file__]

    def test_convergence_report_warning_points_at_caller(self):
        cfg = preset_config("fig2d")
        cfg["model"]["qubit_boson"]["segments"][1]["alpha"] = [30.0, 0.0]
        cfg["time"]["steps"] = 3
        cfg["cutoff"] = 16
        with pytest.warns(UserWarning, match="drive displacement reach") as record:
            convergence_report(config_from_dict(cfg))
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("run", [run_sweep, convergence_report])
    def test_coherent_run_warns_once(self, run):
        # |zeta| + 2|alpha|/beta = 6 is past the reach of cutoff 16; the run warns
        # once, and coherent_state records the loss in truncated_mass instead
        cfg = {
            "model": {
                "qubit_boson": {"beta": 1.0, "segments": [{"duration": 1.0, "alpha": [0.5, 0.0]}]}
            },
            "initial_env": {"coherent": {"re": 5.0, "im": 0.0}},
            "time": {"t_max": 1.0, "steps": 3},
            "cutoff": 16,
        }
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run(config_from_dict(cfg))
        assert [(w.category, w.filename) for w in record] == [(UserWarning, __file__)]
        assert str(record[0].message).startswith("drive displacement reach |z|^2 = 36 ")

    @pytest.mark.parametrize("run", [run_sweep, convergence_report])
    @pytest.mark.parametrize(
        "beta, segments, message",
        [
            (0.0, (AlphaSegment(1.0, 0.5),), "beta must be nonzero"),
            (1.0, (), "at least one drive segment is required"),
        ],
    )
    def test_code_built_model_raises_the_params_error(self, run, beta, segments, message):
        # the reach divides by beta and takes the largest alpha: a RunConfig built
        # in code, unchecked by the parser, raised ZeroDivisionError or ValueError
        cfg = RunConfig(
            model=QubitBosonModel(beta=beta, segments=segments),
            initial_env=ThermalEnv(1.0),
            time=TimeGrid(t_max=1.0, steps=3),
            cutoff=16,
        )
        with pytest.raises(InvalidArgument, match=f"^{message}"):
            run(cfg)

    def test_reach_at_cutoff_boundary_is_silent(self):
        # the preset drive reaches (2|alpha|/beta)^2 = 2.0000000000000004 = cutoff/4
        # up to roundoff at cutoff 8
        cfg = preset_config("fig2d")
        cfg["time"]["steps"] = 3
        cfg["cutoff"] = 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep(config_from_dict(cfg))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_silent(self, name):
        cfg = preset_config(name)
        cfg["time"]["steps"] = 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep(config_from_dict(cfg))


def test_perfbench_span_targets_exist():
    # perfbench/spans.py wraps these names where dephasim imported them;
    # one that is gone crashes `perfbench/run.py --trace 1`
    spans = perfbench_module("spans")
    assert spans.WRAPPED
    for module, attr in spans.WRAPPED:
        assert hasattr(module, attr), (module.__name__, attr)
    # a name that bench.py or checks.py imports from dephasim and that is gone
    # crashes the benchmark before any metric prints
    imported = [
        (node.module, alias.name)
        for name in ("bench.py", "checks.py")
        for node in ast.walk(ast.parse((PERFBENCH / name).read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dephasim")
        for alias in node.names
    ]
    assert len(imported) >= 10
    for module, attr in imported:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_sweep_imports_only_for_spans_what_spans_wraps():
    # the names sweep.py imports and never reads are kept for perfbench/spans.py alone:
    # exactly its dephasim.sweep targets that sweep.py does not call, so a stale import fails
    tree = ast.parse(Path(dephasim.sweep.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {attr for module, attr in perfbench_module("spans").WRAPPED
               if module is dephasim.sweep}
    assert imported - read == wrapped - read
    assert imported - read  # the check is not vacuous


class TestGenericSchedule:
    def make_files(self, tmp_path):
        x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        schedule = {
            "system_dim": 3,
            "env_dim": 2,
            "segments": [{"duration": 2.0, "generators": [zero, x, z]}],
        }
        schedule_path = tmp_path / "schedule.json"
        schedule_path.write_text(json.dumps(schedule))
        env = {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(env))
        return schedule_path, env_path

    def test_qutrit_schedule_file_run(self, tmp_path):
        schedule_path, env_path = self.make_files(tmp_path)
        cfg = config_from_dict(
            {
                "model": {"schedule_file": str(schedule_path)},
                "initial_env": {"matrix_file": str(env_path)},
                "time": {"t_max": 2.0, "steps": 9},
                "cutoff": 2,
            }
        )
        rows = run_sweep(cfg)
        assert all(r.entanglement is None for r in rows)  # measure is qubit-only
        assert all(r.type1_max <= 1e-12 for r in rows)  # fully mixed environment
        assert max(r.type2_max for r in rows) > 1.0  # but second-type conditions break
        assert all(r.cutoff == 2 for r in rows)

    def test_zero_amplitude_pointer_drops_its_conditions(self, tmp_path):
        # without pointer 0 only one pair is left: type-2 is vacuous, the mixed
        # environment keeps type-1 at 0, and the state is separable
        schedule_path, env_path = self.make_files(tmp_path)
        h = 0.5**0.5
        cfg = config_from_dict(
            {
                "model": {"schedule_file": str(schedule_path)},
                "initial_env": {"matrix_file": str(env_path)},
                "time": {"t_max": 2.0, "steps": 9},
                "cutoff": 2,
                "amplitudes": [[0, 0], [h, 0], [h, 0]],
                "outputs": {"negativity": True},
            }
        )
        for row in run_sweep(cfg):
            assert row.type2_max == 0.0 and row.coherence_norm is None, row.t
            assert row.type1_max <= 1e-12 and row.negativity <= 1e-12, row.t

    def test_cutoff_must_match_schedule(self, tmp_path):
        schedule_path, env_path = self.make_files(tmp_path)
        cfg = config_from_dict(
            {
                "model": {"schedule_file": str(schedule_path)},
                "initial_env": {"matrix_file": str(env_path)},
                "time": {"t_max": 1.0, "steps": 3},
                "cutoff": 64,
            }
        )
        with pytest.raises(ValidationError):
            run_sweep(cfg)

    def test_amplitude_count_must_match_schedule(self, tmp_path):
        # the config alone cannot know the schedule file's system_dim
        schedule_path, env_path = self.make_files(tmp_path)
        h = 0.5**0.5
        cfg = config_from_dict(
            {
                "model": {"schedule_file": str(schedule_path)},
                "initial_env": {"matrix_file": str(env_path)},
                "time": {"t_max": 1.0, "steps": 3},
                "cutoff": 2,
                "amplitudes": [[h, 0], [h, 0]],
            }
        )
        with pytest.raises(ValidationError) as err:
            run_sweep(cfg)
        assert err.value.field == "amplitudes"
        assert err.value.reason == "2 amplitudes for a system of dimension 3"

    def test_missing_schedule_file(self, tmp_path):
        cfg = config_from_dict(
            {
                "model": {"schedule_file": str(tmp_path / "nope.json")},
                "initial_env": {"thermal": {"theta": 0.0}},
                "time": {"t_max": 1.0, "steps": 3},
                "cutoff": 4,
            }
        )
        with pytest.raises(ValidationError):
            run_sweep(cfg)


_CELL = st.none() | st.floats(allow_subnormal=True) | st.sampled_from([-0.0, 1e308, 5e-324])
CSV_ROWS = st.tuples(*[_CELL] * 6, st.integers(2, 512))

# sha256 of each preset's CSV; a deliberate roundoff change updates these
PRESET_SHA256 = {
    "fig2a": "8d07782f133cfbbefef188016fd418d8f9d1f32c42071e6118cf6915b6169a0c",
    "fig2b": "a6bd27caf70325f7f1efcd4c94c814e39c841ef4a8d1466be5ab39edb0f809c3",
    "fig2c": "d7aedbe08536fc35c84c949746d18012af5fe7af9852a052cf6fe0fe2f27878f",
    "fig2d": "d8d8c41c922bb890b57472812a2ed7418997e9bdb861a45bf67e93580cce1408",
    "fig2e": "7980031a0e08992474a6efd14be7e9d4c9a50a96abbc981f3f8c3f4f7448c410",
    "fig2f": "a59c0e14365feb7dd946218c4a2ab887c9330a49ca4d84e498514f644f5d057f",
    "fig3a": "0c4abba648b511092a4150ada7bac1e814d06bee33256a6997c888881ea43584",
    "fig3b": "db555208f94f274d0082432e9551bd6182d2914f61ac00dc83ec97cf3a6b0682",
    "fig3c": "2ab876a7582a1e75667616bb74e19c4c51c1555a52a1ba96b2c95c7154f533fe",
}


# sha256 of three presets' CSVs with outputs.negativity = true, which every preset leaves off
NEGATIVITY_SHA256 = {
    "fig2a": "8d0194e56cd430be99f5d19ebbb3cf66d9f3f5ffb4f8898a7a7c6cada887dab6",
    "fig2b": "ba1b99e1137a9fbf44d7889f1421902fc59578b4cca25e0429d8571f56acbb46",
    "fig3a": "5187c7556a14c03b6b9b52cf17e5a6cdde101b5c7c51e6343e52c09f119333b2",
}


class TestEmitCsv:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_bytes_are_pinned(self, name):
        buf = io.BytesIO()
        emit_csv(run_sweep(config_from_dict(preset_config(name))), buf)
        assert hashlib.sha256(buf.getvalue()).hexdigest() == PRESET_SHA256[name]

    @pytest.mark.parametrize("name", sorted(NEGATIVITY_SHA256))
    def test_negativity_on_bytes_are_pinned(self, name):
        cfg = preset_config(name)
        cfg["outputs"] = {"negativity": True}
        buf = io.BytesIO()
        emit_csv(run_sweep(config_from_dict(cfg)), buf)
        assert hashlib.sha256(buf.getvalue()).hexdigest() == NEGATIVITY_SHA256[name]

    def test_preset_bytes_do_not_depend_on_the_blas_thread_count(self):
        # fig2d (thermal, SVD fidelity) and fig3a (coherent, rank 1) at cutoff 64,
        # each run in fresh interpreters with OpenBLAS on 1 and on 2 threads
        script = (
            "import hashlib, io\n"
            "from dephasim.config import config_from_dict\n"
            "from dephasim.presets import preset_config\n"
            "from dephasim.sweep import emit_csv, run_sweep\n"
            "for name in ('fig2d', 'fig3a'):\n"
            "    buf = io.BytesIO()\n"
            "    emit_csv(run_sweep(config_from_dict(preset_config(name))), buf)\n"
            "    print(hashlib.sha256(buf.getvalue()).hexdigest())\n"
        )
        src = str(Path(dephasing.__file__).resolve().parents[1])
        runs = {
            threads: subprocess.Popen(
                [sys.executable, "-c", script],
                env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src},
                stdout=subprocess.PIPE,
            )
            for threads in (1, 2)
        }
        digests = {threads: run.communicate(timeout=60)[0].split() for threads, run in runs.items()}
        assert [run.returncode for run in runs.values()] == [0, 0]
        assert digests[1] == digests[2] == [PRESET_SHA256[n].encode() for n in ("fig2d", "fig3a")]

    def test_header_and_line_count(self):
        rows = run_sweep(small_fig2d(steps=3, cutoff=8))[:3]
        buf = io.BytesIO()
        written = emit_csv(rows, buf)
        data = buf.getvalue()
        assert written == len(data)
        lines = data.decode().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 + 1  # header + rows + trailing newline
        assert lines[-1] == ""

    def test_disabled_negativity_keeps_column(self):
        rows = run_sweep(small_fig2d(steps=3, cutoff=8))
        buf = io.BytesIO()
        emit_csv(rows, buf)
        first_row = buf.getvalue().decode().split("\n")[1]
        fields = first_row.split(",")
        assert len(fields) == 7
        assert fields[5] == ""  # negativity column empty but present

    def test_round_trip_precision(self):
        # 12 significant digits quantize at half an ulp of the last digit,
        # i.e. at most 5e-12 relative (reached for leading digits near 1)
        rows = run_sweep(small_fig2d(steps=7, cutoff=8))
        buf = io.BytesIO()
        emit_csv(rows, buf)
        lines = buf.getvalue().decode().strip().split("\n")[1:]
        for line, row in zip(lines, rows):
            fields = line.split(",")
            for got, expected in zip(fields, (row.t, row.entanglement, row.coherence_norm)):
                value = float(got)
                if expected == 0.0:
                    assert value == 0.0
                else:
                    assert abs(value - expected) <= 5e-12 * abs(expected)

    def test_writes_to_path(self, tmp_path):
        rows = run_sweep(small_fig2d(steps=3, cutoff=8))
        out = tmp_path / "sweep.csv"
        written = emit_csv(rows, out)
        assert out.stat().st_size == written

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            emit_csv([], io.BytesIO())

    def test_determinism(self):
        cfg = small_fig2d(steps=11)
        a, b = io.BytesIO(), io.BytesIO()
        emit_csv(run_sweep(cfg), a)
        emit_csv(run_sweep(cfg), b)
        assert a.getvalue() == b.getvalue()

    @given(rows=st.lists(CSV_ROWS, min_size=1, max_size=8))
    @example(rows=[(0.0, None, 1.0, 0.0, 0.0, None, 64)])
    @example(rows=[
        (-0.0, 1e308, -1e308, 5e-324, 2.2250738585072014e-308, math.inf, 2),
        (1.0, -math.inf, math.nan, None, -0.0, 1.23456789012345e-310, 512),
        (6.0, 0.1, 1 / 3, 2.5e-16, 123456789012.5, 1e16, 64),
    ])
    @settings(max_examples=200, deadline=None)
    def test_matches_per_value_format(self, rows):
        # the column-wise "%.12g" % v against the per-row format(v, ".12g") join
        lines = [CSV_HEADER]
        for row in rows:
            cells = ["" if v is None else format(v, ".12g") for v in row[:6]]
            lines.append(",".join([*cells, str(row[6])]))
        buf = io.BytesIO()
        written = emit_csv([SweepRow(*row) for row in rows], buf)
        assert buf.getvalue() == ("\n".join(lines) + "\n").encode("ascii")
        assert written == len(buf.getvalue())


# worst violation over the 9 presets (rows of E, D = type1_max, coherence and N), in
# eps (eps^2 for the squared lower bound): 4.5 (fig3b), 20 (fig2c), 3 (fig3a), 14.5 (fig3a)
IDENTITY_UNITS = {"upper": 16, "lower": 64, "coherence": 16, "negativity": 64}
RANK_ONE_PRESETS = ("fig2a", "fig3a", "fig3b", "fig3c")  # vacuum and coherent R(0)


class TestColumnIdentities:
    """Relations between columns from different kernels, in forms squared against roundoff.

    With F = 1 - E/(4|c_0 c_1|^2) and D = type1_max: D^2 <= 1 - F and
    (1 - sqrt F)^2 <= D^2 (Fuchs and van de Graaf), coherence^2 <= F, since
    |Tr(Y_1^dag Y_0)| <= ||Y_1^dag Y_0||_1, and 4 N^2 = E for a rank-one R(0)
    (the negativity of a pure 2 x d state).
    """

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_columns_obey_the_identities_on_every_preset(self, name):
        cfg = preset_config(name)
        if name in RANK_ONE_PRESETS:
            cfg["outputs"] = {"negativity": True}
        cfg = config_from_dict(cfg)
        c = np.asarray(cfg.amplitudes or equal_superposition(2))
        rows = run_sweep(cfg)
        e, d, coherence = (np.array([getattr(r, k) for r in rows]) for k in (
            "entanglement", "type1_max", "coherence_norm"))
        f = 1 - e / (4 * abs(c[0] * c[1]) ** 2)
        eps = np.finfo(float).eps
        assert np.max(d**2 - (1 - f)) <= IDENTITY_UNITS["upper"] * eps
        assert np.max((1 - np.sqrt(f)) ** 2 - d**2) <= IDENTITY_UNITS["lower"] * eps**2
        assert np.max(coherence**2 - f) <= IDENTITY_UNITS["coherence"] * eps
        if name in RANK_ONE_PRESETS:
            n = np.array([r.negativity for r in rows])
            assert np.max(np.abs(4 * n**2 - e)) <= IDENTITY_UNITS["negativity"] * eps

    @pytest.mark.parametrize("name", RANK_ONE_PRESETS)
    def test_a_product_state_reads_e_zero(self, name):
        # t = 0 is a product state, and type1_max reads exactly 0 there; E read 2.2e-16
        # (fig3a) and 6.7e-16 (fig3c) while 1 - F was formed from |Y_0^dag Y_1|^2
        row = run_sweep(config_from_dict(preset_config(name)))[0]
        assert row.t == row.type1_max == 0.0
        assert row.entanglement == 0.0 and not np.signbit(row.entanglement)


class TestSweepRow:
    def test_csv_header_is_the_documented_one(self):
        # README, CSV output
        assert CSV_HEADER == "t,entanglement,coherence_norm,type1_max,type2_max,negativity,cutoff"

    def test_immutable_and_replaceable(self):
        row = run_sweep(small_fig2d(steps=3, cutoff=8))[1]
        with pytest.raises(AttributeError):
            row.entanglement = 0.0
        changed = row._replace(negativity=0.5)
        assert changed.negativity == 0.5 and row.negativity is None
        assert changed[:5] == row[:5] and changed.cutoff == row.cutoff == 8


CONVERGE_OUTPUTS = [
    {"negativity": True},
    {"entanglement": False, "coherence": False},
    {"type1": False, "type2": False},
]


def short_fig2d(outputs=None):
    """fig2d at cutoff 16 on 61 points, with outputs if given."""
    cfg = preset_config("fig2d")
    cfg.update(cutoff=16, time={"t_max": 6.0, "steps": 61})
    if outputs is not None:
        cfg["outputs"] = outputs
    return cfg


class TestConvergence:
    @pytest.mark.parametrize("outputs", CONVERGE_OUTPUTS, ids=lambda o: ",".join(o))
    def test_outputs_change_no_field(self, outputs):
        # both sweeps evaluate E and the coherence only, whatever outputs holds
        reports = [convergence_report(config_from_dict(short_fig2d(o))) for o in (None, outputs)]
        fields = [[v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]
                  for report in reports]
        assert fields[1] == fields[0]

    def test_evaluates_no_other_column(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a column the report does not read was evaluated")

        for name in ("trace_distance_of_factors", "_half_trace_norm", "type2_norms",
                     "negativity_of_factors"):
            monkeypatch.setattr(dephasim.sweep, name, refuse)
        report = convergence_report(config_from_dict(short_fig2d({"negativity": True})))
        assert report.points == 61 and report.max_abs_d_entanglement > 0

    def test_converge_prints_the_same_text_whatever_the_outputs(self, tmp_path, capsys):
        texts = []
        for k, outputs in enumerate([None, *CONVERGE_OUTPUTS]):
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps(short_fig2d(outputs)))
            assert dephasim.cli.main(["converge", "--config", str(path)]) == 0
            texts.append(capsys.readouterr().out)
        assert "16 vs 32" in texts[0] and texts == texts[:1] * len(texts)

    def test_vacuum_undriven_is_cutoff_exact(self):
        cfg_dict = preset_config("fig2e")
        cfg_dict["initial_env"] = {"thermal": {"theta": 0.0}}
        cfg_dict["time"]["steps"] = 11
        cfg_dict["cutoff"] = 16
        report = convergence_report(config_from_dict(cfg_dict))
        assert report.max_abs_d_entanglement == 0.0
        assert report.max_abs_d_coherence == 0.0
        assert report.cutoff == 16
        assert report.doubled_cutoff == 32

    def test_coherent_tail_shrinks_with_cutoff(self):
        cfg_dict = preset_config("fig3c")
        cfg_dict["time"]["steps"] = 21
        deltas = []
        for cutoff in (16, 32):
            cfg_dict["cutoff"] = cutoff
            report = convergence_report(config_from_dict(cfg_dict))
            deltas.append(max(report.max_abs_d_entanglement, report.max_abs_d_coherence))
        assert deltas[1] <= deltas[0]

    def test_cap_exceeded(self):
        cfg_dict = preset_config("fig2d")
        cfg_dict["cutoff"] = 512
        cfg_dict["time"]["steps"] = 2
        with pytest.raises(CutoffCapExceeded):
            convergence_report(config_from_dict(cfg_dict))

    def test_requires_qubit_boson_model(self, tmp_path):
        schedule = {
            "system_dim": 2,
            "env_dim": 2,
            "segments": [
                {
                    "duration": 1.0,
                    "generators": [
                        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                    ],
                }
            ],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(schedule))
        cfg = config_from_dict(
            {
                "model": {"schedule_file": str(path)},
                "initial_env": {"fock": {"n": 0}},
                "time": {"t_max": 1.0, "steps": 3},
                "cutoff": 2,
            }
        )
        with pytest.raises(ValidationError):
            convergence_report(cfg)

    def test_reports_where_the_worst_changes_are(self):
        # the criterion-10 run: fig2d at cutoff 32 against 64
        cfg_dict = preset_config("fig2d")
        cfg_dict["cutoff"] = 32
        report = convergence_report(config_from_dict(cfg_dict))
        assert report.t_max_d_entanglement == 6.0
        assert report.t_max_d_coherence == pytest.approx(5.69, abs=1e-12)
        text = report.render()
        assert f"max |dE|      : {report.max_abs_d_entanglement:.3e} at t = 6\n" in text
        assert text.endswith(f"max |dcoh|    : {report.max_abs_d_coherence:.3e} at t = 5.69")

    def test_render(self):
        cfg_dict = preset_config("fig2e")
        cfg_dict["time"]["steps"] = 5
        cfg_dict["cutoff"] = 8
        text = convergence_report(config_from_dict(cfg_dict)).render()
        assert "8 vs 16" in text
        assert "max |dE|" in text


class InlineExecutor:
    """ThreadPoolExecutor's stand-in: submit calls at once on the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def worker_case(name):
    """(schedule, R(0), amplitudes, times, outputs, t_start) of a run that takes the worker thread.

    fig2b-f as run_sweep resolves them, fig2b with the negativity on, and one
    thermal-c256 draw of the benchmark (cutoff 256, 31 points).
    """
    if name == "thermal-c256":
        draw = perfbench_module("workloads").WORKLOADS[name](np.random.default_rng(1))
        schedule, env = draw.reference()
        times = np.linspace(0.0, draw.t_max, draw.points)
        return schedule, env, draw.amplitudes, times, OutputFlags(), 0.0
    cfg = preset_config(name.removesuffix("-negativity"))
    if name.endswith("-negativity"):
        cfg["outputs"] = {"negativity": True}
    cfg = config_from_dict(cfg)
    schedule, env, c = dephasim.sweep._resolve(cfg, dephasim.sweep._resolve_cutoff(cfg))
    times = dephasim.sweep._time_grid(cfg, schedule)
    return schedule, env, c, times, cfg.outputs, cfg.time.t_start


def fidelity_threads(monkeypatch):
    """The list that receives, per fidelity_of_factors call of evaluate, whether it ran off main."""
    threads, fidelity = [], dephasim.sweep.fidelity_of_factors

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread() is not threading.main_thread())
        return fidelity(*args, **kwargs)

    monkeypatch.setattr(dephasim.sweep, "fidelity_of_factors", recorded)
    return threads


def blas_env(monkeypatch, **values):
    """Set the BLAS thread variables of the environment to values only."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in values.items():
        monkeypatch.setenv(var, value)


WORKER_CASES = ["fig2b", "fig2c", "fig2d", "fig2e", "fig2f", "fig2b-negativity", "thermal-c256"]


class TestWorkerThread:
    """A qubit with a mixed R(0), E and type-1 on, one BLAS thread: the fidelity SVD on a worker."""

    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS="1")  # as perfbench/run.py sets it

    @pytest.mark.parametrize("env, worker", [
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({}, False),  # BLAS's default, a thread per core
        ({"OPENBLAS_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),  # OpenBLAS reads its own
        ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, False),
    ])
    def test_only_one_blas_thread_takes_the_worker(self, env, worker, monkeypatch):
        # with more BLAS threads each LAPACK call keeps the cores busy: no worker, and the
        # CHUNK_BYTES chunks; the rows are the same. With it, each chunk has at least
        # ceil(501 / r) points, so that an r x r SVD batch returns over 500 values
        cfg, chunks, chunked = small_fig2d(), [], dephasim.sweep.segment_chunks
        r = dephasim.sweep._resolve(cfg, 16)[1].factor.shape[1]
        expected = repr(run_sweep(cfg))
        blas_env(monkeypatch, **env)
        routes = recorded_routes(monkeypatch)

        def recorded(*args, points, **kwargs):
            chunks.append(points)
            return chunked(*args, points=points, **kwargs)

        monkeypatch.setattr(dephasim.sweep, "segment_chunks", recorded)
        assert repr(run_sweep(cfg)) == expected
        assert routes and {route.fidelity for route in routes} == {"worker" if worker else "svd"}
        assert r > 1 and chunks == [math.ceil(501 / r) if worker else 0]

    @pytest.mark.parametrize("name", WORKER_CASES)
    def test_rows_are_those_of_an_inline_call(self, name, monkeypatch):
        schedule, env, c, times, outputs, t_start = worker_case(name)
        threads, interval = fidelity_threads(monkeypatch), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads trade the GIL often, so a race would show
        try:
            rows = evaluate(schedule, env, c, times, outputs, t_start=t_start)
        finally:
            sys.setswitchinterval(interval)
        assert threads and all(threads)  # every chunk's fidelity ran on the worker
        with monkeypatch.context() as inline:
            inline.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
            threads.clear()
            assert repr(evaluate(schedule, env, c, times, outputs, t_start=t_start)) == repr(rows)
            assert threads and not any(threads)
        # and those of runs that take no worker: the pinned bytes of the presets; for
        # the draw, E alone and type-1 alone
        if name != "thermal-c256":
            buf = io.BytesIO()
            emit_csv(rows, buf)
            pinned = NEGATIVITY_SHA256 if name.endswith("-negativity") else PRESET_SHA256
            assert hashlib.sha256(buf.getvalue()).hexdigest() == pinned[name.split("-")[0]]
            return
        alone = [dataclasses.replace(outputs, type1=False),
                 dataclasses.replace(outputs, entanglement=False)]
        e_rows, t1_rows = (evaluate(schedule, env, c, times, flags) for flags in alone)
        assert [row.entanglement for row in rows] == [row.entanglement for row in e_rows]
        assert [row.type1_max for row in rows] == [row.type1_max for row in t1_rows]

    @pytest.mark.parametrize("name", ["fig2d", "thermal-c256"])
    def test_each_batch_returns_over_500_values(self, name, monkeypatch):
        # per chunk, the SVD and type-1 eigvalsh batches return more than 500 values,
        # past which numpy releases the GIL, unless the segment has fewer points than that
        schedule, env, c, times, outputs, _ = worker_case(name)
        chunks, calls = [], []
        chunked = dephasim.sweep.segment_chunks

        def recorded_chunks(*args, **kwargs):
            for chunk in chunked(*args, **kwargs):
                chunks.append((chunk[1], *chunk[3][0].shape))  # (step, T, d_k, r), steps kept
                yield chunk

        def recorded(solver, solve):
            def call(*args, **kwargs):
                out = solve(*args, **kwargs)
                calls.append((len(chunks) - 1, solver, out.size))
                return out
            return call

        monkeypatch.setattr(dephasim.sweep, "segment_chunks", recorded_chunks)
        for solver in ("svd", "eigvalsh"):
            monkeypatch.setattr(np.linalg, solver, recorded(solver, getattr(np.linalg, solver)))
        evaluate(schedule, env, c, times, outputs)
        run_points = {}
        for step, points, *_ in chunks:  # a segment's chunks share its step
            run_points[id(step)] = run_points.get(id(step), 0) + points
        solved = [{k for k, solver, _ in calls if solver == s} for s in ("svd", "eigvalsh")]
        assert len(set.intersection(*solved)) >= 2  # chunks with both calls
        for k, _, size in calls:
            step, points, d_k, r = chunks[k]
            run = run_points[id(step)]
            assert size > 500 or (run < math.ceil(501 / min(d_k, r)) and points == run), (k, size)

    def test_no_thread_outlives_the_sweep(self, monkeypatch):
        threads = fidelity_threads(monkeypatch)
        before = threading.active_count()
        run_sweep(small_fig2d())
        assert threads and all(threads)
        assert threading.active_count() == before

    def test_import_starts_no_thread_and_loads_no_executor(self):
        code = (
            "import sys, threading\n"
            "count = threading.active_count()\n"
            "import dephasim, dephasim.cli\n"
            "print(threading.active_count() - count, 'concurrent.futures' in sys.modules)\n"
        )
        src = str(Path(dephasing.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60, check=True).stdout
        assert out.split() == ["0", "False"]

    def test_a_forked_child_sweeps_after_its_parent(self):
        cfg = small_fig2d()
        rows = run_sweep(cfg)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(repr(run_sweep(cfg))))
        child.start()
        try:
            assert receive.poll(60), "the forked child's sweep did not finish"
            assert receive.recv() == repr(rows)
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0

    @pytest.mark.parametrize("inline", [False, True], ids=["worker", "inline"])
    def test_a_worker_svd_error_reaches_the_caller(self, inline, monkeypatch, tmp_path):
        if inline:
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
        error, raised_off_main = np.linalg.LinAlgError("SVD did not converge"), []

        def failing(*args, **kwargs):
            raised_off_main.append(threading.current_thread() is not threading.main_thread())
            raise error

        monkeypatch.setattr(np.linalg, "svd", failing)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError) as info:
            run_sweep(small_fig2d())
        assert info.value is error and raised_off_main[0] is not inline
        assert threading.active_count() == before
        # through the CLI: main does not catch it, and the interpreter exits with 1
        with pytest.raises(np.linalg.LinAlgError) as info:
            cli_run(tmp_path)
        assert info.value is error

    @pytest.mark.parametrize("inline", [False, True], ids=["worker", "inline"])
    def test_a_main_thread_error_reaches_the_caller(self, inline, monkeypatch, tmp_path, capsys):
        # NonFiniteError from type-1's eigensolve while the worker is inside its SVD
        if inline:
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
        error, svd, running = NonFiniteError("not finite"), np.linalg.svd, []
        started, seen, finished = threading.Event(), threading.Event(), threading.Event()

        def held(*args, **kwargs):  # off the main thread, until the eigensolve has looked
            started.set()
            if threading.current_thread() is not threading.main_thread():
                assert seen.wait(60)
            finished.set()
            return svd(*args, **kwargs)

        def failing(*args, **kwargs):
            assert started.wait(60)
            running.append(not finished.is_set())
            seen.set()
            raise error

        monkeypatch.setattr(np.linalg, "svd", held)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        before = threading.active_count()
        with pytest.raises(NonFiniteError) as info:
            run_sweep(small_fig2d())
        assert info.value is error and running == [not inline]
        assert threading.active_count() == before
        assert cli_run(tmp_path) == 2
        assert "numerical failure: not finite" in capsys.readouterr().err


def cli_run(tmp_path) -> int:
    """dephasim run on small_fig2d's configuration."""
    cfg = preset_config("fig2d")
    cfg["time"]["steps"], cfg["cutoff"] = 31, 16
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return dephasim.cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")])


# The Route of each segment of a run, as "fidelity type1 type2 negativity" with "-" for None
ROUTE_PINS = {
    "fig2a": ["rank_one rank_one - -"] * 3,
    "fig2b": ["worker gram - -", "worker qr - -", "worker qr - -"],
    "fig2c": ["worker gram - -"] * 3,
    "fig2d": ["worker gram - -"] * 3,
    "fig2e": ["worker gram - -"],
    "fig2f": ["worker gram - -"],
    "fig3a": ["rank_one rank_one - -"] * 3,
    "fig3b": ["rank_one rank_one - -"] * 3,
    "fig3c": ["rank_one rank_one - -"] * 3,
    "fig2a-negativity": ["rank_one rank_one - direct"] + ["rank_one rank_one - qr"] * 2,
    "fig2b-negativity": ["worker gram - direct", "worker qr - qr", "worker qr - qr"],
    "fig3a-negativity": ["rank_one rank_one - qr"] * 3,
    "fig2d-c256": ["worker gram - -"] * 3,
    "schedule-file": ["- direct identity direct"],  # unframed segments share one route
    "pure-c64": ["rank_one rank_one - -"] * 3,
    "thermal-c256": ["worker gram - -"] * 3,
    "qutrit-neg": ["- direct identity direct"],
    "fig2d-2-threads": ["svd gram - -"] * 3,
    "fig2d-e-only": ["svd - - -"] * 3,
    "qutrit-vacuum": ["- rank_one identity qr"],
}


def route_run(label, tmp_path):
    """A call that sweeps the run of ROUTE_PINS named label on 13 points of its span.

    The runs are the 14 of scripts/compare_presets.py, one draw of each benchmark
    workload, fig2d at 2 BLAS threads and two that none of those takes: fig2d with E
    alone, and the qutrit-neg draw from the vacuum (r = 1 for 3 pointers). A route
    depends on the segment, not on its points: 13 points, some in every segment, meet
    the routes of the full grid.
    """
    workloads = perfbench_module("workloads").WORKLOADS
    if label.startswith(("pure", "thermal", "qutrit")):
        draw = workloads[label.replace("vacuum", "neg")](np.random.default_rng(1))
        schedule, env = draw.reference()
        env = fock_state(0, FockSpace(draw.env_dim)) if label == "qutrit-vacuum" else env
        times, outputs = np.linspace(0.0, draw.t_max, 13), OutputFlags(**draw.config["outputs"])
        return lambda: evaluate(schedule, env, draw.amplitudes, times, outputs)
    from test_scripts import load_script  # test_scripts imports this module

    cfg = dict(load_script("compare_presets").runs(tmp_path)).get(label, preset_config("fig2d"))
    if label == "fig2d-e-only":
        cfg["outputs"] = {"coherence": False, "type1": False, "type2": False}
    cfg["time"] = {**cfg["time"], "steps": 13}
    return lambda: run_sweep(config_from_dict(cfg))


class TestRoute:
    @pytest.mark.parametrize("label", ROUTE_PINS)
    def test_each_run_takes_its_pinned_routes(self, label, tmp_path, monkeypatch):
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS="2" if label == "fig2d-2-threads" else "1")
        sweep = route_run(label, tmp_path)
        routes = recorded_routes(monkeypatch)
        sweep()
        run, *segments = routes
        pins = [pin.split() for pin in ROUTE_PINS[label]]
        assert segments == [Route(*(None if name == "-" else name for name in pin)) for pin in pins]
        # the run's route fixes the stepped factor and the worker, as each segment's does
        assert {(s.fidelity, s.type2) for s in segments} == {(run.fidelity, run.type2)}

    def test_every_route_is_taken(self):
        pins = [pin.split() for pins in ROUTE_PINS.values() for pin in pins]
        taken = [set(names) for names in zip(*pins)]
        assert taken == [
            {"rank_one", "worker", "svd", "-"},
            {"rank_one", "qr", "gram", "direct", "-"},
            {"identity", "-"},
            {"qr", "direct", "-"},
        ]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_route_reads_no_environment(self, threads, monkeypatch):
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS=threads)
        route = dephasim.sweep.route
        assert not {"os", "environ", "getenv"} & set(route.__code__.co_names)
        args = (2, 18, [0, 1], 43, True, OutputFlags())
        assert route(*args, True).fidelity == "worker" and route(*args, False).fidelity == "svd"

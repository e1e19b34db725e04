import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from dephasim import dephasing
from dephasim.config import config_from_dict, load_schedule_file
from dephasim.dephasing import (
    blocks_at,
    equal_superposition,
    joint_state,
    propagators_at,
    segment_chunks,
)
from dephasim.entanglement import (
    qee_measure,
    separability_verdict,
    type1_residuals,
    type2_residuals,
)
from dephasim.errors import CutoffCapExceeded, ValidationError
from dephasim.fock import FockSpace, coherent_state, env_from_matrix, thermal_state
from dephasim.linalg import (
    fidelity,
    negativity,
    negativity_of_factors,
    psd_factor,
    trace_distance,
)
from dephasim.presets import PRESET_NAMES, preset_config
from dephasim.qubit_boson import QubitBosonParams, build_schedule
from dephasim.sweep import CSV_HEADER, convergence_report, emit_csv, run_sweep
from util import expm, normalized_coherence, random_density, random_hermitian

EQUAL = equal_superposition(2)


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
            e = qee_measure(EQUAL, blocks.blocks[0, 0], blocks.blocks[1, 1])
            coh = normalized_coherence(blocks, 0, 1)
            t1 = max(r.residual for r in type1_residuals(blocks))
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

    def test_initial_state_is_eigensolved_once(self, monkeypatch):
        # EnvDensity's factor is its PSD check and the sweep's factor
        cfg = preset_config("fig2d")
        cfg["time"]["steps"] = 5
        cfg["cutoff"] = 32
        rho0 = thermal_state(2.0, FockSpace(32)).matrix
        on_rho0 = []
        for name in ("eigh", "eigvalsh"):

            def counted(m, *args, _solve=getattr(np.linalg, name), **kwargs):
                on_rho0.append(np.array_equal(m, rho0))
                return _solve(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        run_sweep(config_from_dict(cfg))
        assert sum(on_rho0) == 1

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

    qubit_boson: pointer 1 reuses the eigenvectors of pointer 0 (M = I), thermal
    R(0) of rank 9 < d/2, so type-1 is QR-reduced. unrelated: a 2-pointer
    schedule file with independent random generators (M != I) and a rank-2 R(0).
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


def oracle_blocks(schedule, rho, t):
    """R_ij(t) from the chronological product of expm over the segments."""
    ws = []
    for i in range(schedule.system_dim):
        w = np.eye(schedule.env_dim, dtype=complex)
        for start, seg in zip(schedule.boundaries, schedule.segments):
            w = expm(-1j * seg.generators[i] * min(max(t - start, 0.0), seg.duration)) @ w
        ws.append(w)
    return np.array([[wi @ rho @ wj.conj().T for wj in ws] for wi in ws])


class TestSegmentKernel:
    @pytest.mark.parametrize("name", ["qubit_boson", "unrelated", "negativity"])
    def test_chunk_budget_leaves_rows_unchanged(self, name, tmp_path, monkeypatch):
        cfg, schedule, _, _ = kernel_case(name, tmp_path)
        runs, chunks = [], []
        for budget in (1, 1 << 40):  # one point per chunk, then one chunk per segment
            monkeypatch.setattr(dephasing, "CHUNK_BYTES", budget)
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
        # 15 x 15 partial transposes: a budget of two of them gives chunks of
        # 6 points (3 pointers' 5 x 5 stacks) evaluated in runs of 2
        cfg, _, _, _ = kernel_case("negativity", tmp_path)
        whole = run_sweep(cfg)
        monkeypatch.setattr(dephasing, "CHUNK_BYTES", 2 * 16 * 15**2)
        split = run_sweep(cfg)
        assert [r.t for r in split] == [r.t for r in whole]
        for a, b in zip(whole, split):
            assert abs(a.negativity - b.negativity) <= 1e-14, a.t

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
        blocks = blocks_at(schedule, thermal_state(2.0, FockSpace(16)), [1, 0], 6.0)
        assert type1_residuals(blocks) == []
        verdict = separability_verdict(blocks, propagators_at(schedule, 6.0))
        assert verdict.describe() == "separable"


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
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    path = perfbench / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, attr in spans.WRAPPED:
        assert hasattr(module, attr), (module.__name__, attr)
    # a name that bench.py or checks.py imports from dephasim and that is gone
    # crashes the benchmark before any metric prints
    imported = [
        (node.module, alias.name)
        for name in ("bench.py", "checks.py")
        for node in ast.walk(ast.parse((perfbench / name).read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dephasim")
        for alias in node.names
    ]
    assert len(imported) >= 10
    for module, attr in imported:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


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


# sha256 of each preset's CSV; a deliberate roundoff change updates these
PRESET_SHA256 = {
    "fig2a": "f2d987133172069fab237f90d78aaf2da4faac7aa030957a50386bb9807d8add",
    "fig2b": "4ea7e167b31c341658110a254b60b7d3e9dba974464eddf80e004e6e3baeeb0b",
    "fig2c": "eedd48b4b88b881d7c8cfaa33059f5d0eb947b1e52a3962fce46b2920c781dd4",
    "fig2d": "7967c25fb5c99669e1d73332450a0cae3a7f770292ad54341c3b90b21702d9a0",
    "fig2e": "b91accbea6e281a97233b2e542b5eeda9eeebd4e4aa4441ffecc496d44c1a60c",
    "fig2f": "18e9d814ccfb04cec5e0f40f41ff17d1120e300d86b9a81075bd70e2bfd89b50",
    "fig3a": "368dce6c4f1764e54a76ee8f8423afaee926864805d976d9be694139092fb908",
    "fig3b": "42d36e3483a472946bee99a378593f3ccb60e9bda1c86431a68cb1e8e78e3ed7",
    "fig3c": "eca02a28003a0ffc66ac2ca2d95f9ed443001578c2ba62fedec5053a99b463c2",
}


class TestEmitCsv:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_bytes_are_pinned(self, name):
        buf = io.BytesIO()
        emit_csv(run_sweep(config_from_dict(preset_config(name))), buf)
        assert hashlib.sha256(buf.getvalue()).hexdigest() == PRESET_SHA256[name]

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


class TestConvergence:
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

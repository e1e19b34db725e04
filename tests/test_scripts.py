"""Smoke runs of the scripts/ entry points, so a renamed library name fails here."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from dephasim.config import load_matrix_file, load_schedule_file
from dephasim.dephasing import segment_chunks
from dephasim.fock import env_from_matrix
from dephasim.sweep import CSV_HEADER
from test_sweep import NEGATIVITY_SHA256, PRESET_SHA256

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_check_prints_table(capsys):
    assert load_script("convergence_check").main(["--names", "fig2d", "--cutoff", "8"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "preset"
    assert row.split()[:2] == ["fig2d", "8/16"]


def test_compare_presets_prints_sha256_and_column_changes(tmp_path, capsys, monkeypatch):
    script = load_script("compare_presets")
    assert script.NEGATIVITY_ON == tuple(sorted(NEGATIVITY_SHA256))  # every pinned run
    monkeypatch.setattr(script, "PRESET_NAMES", ("fig2a", "fig3a"))  # two of the nine, for time
    monkeypatch.setattr(script, "NEGATIVITY_ON", ("fig3a",))  # one of the three
    monkeypatch.setattr(script, "ENGINE_RUNS", ())
    old, new = tmp_path / "old", tmp_path / "new"
    assert script.main(["--out-dir", str(old)]) == 0
    first = capsys.readouterr().out.splitlines()
    assert [line.split() for line in first] == [
        ["fig2a", PRESET_SHA256["fig2a"]],
        ["fig3a", PRESET_SHA256["fig3a"]],
        ["fig3a-negativity", NEGATIVITY_SHA256["fig3a"]],
    ]
    # an identical set: exit status 0
    assert script.main(["--out-dir", str(new), "--against", str(old)]) == 0
    assert capsys.readouterr().out.splitlines()[::8] == first
    # one cell of fig3a moved by 1e-3 in the reference set, and one negativity cell
    # of its negativity-on run by 1e-4
    for label, column, change in (("fig3a", 1, 1e-3), ("fig3a-negativity", 5, 1e-4)):
        lines = (old / f"{label}.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[column] = repr(float(cells[column]) + change)
        lines[5] = ",".join(cells)
        (old / f"{label}.csv").write_text("\n".join(lines) + "\n")
    assert script.main(["--out-dir", str(new), "--against", str(old)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[::8] == first  # the same bytes
    unmoved = [f"  {name:<15} max |change| 0.00e+00 in 0 rows" for name in CSV_HEADER.split(",")]
    assert out[1:8] == unmoved
    assert out[10] == "  entanglement    max |change| 1.00e-03 in 1 rows"
    assert out[22] == "  negativity      max |change| 1.00e-04 in 1 rows"
    assert out[9:10] + out[11:16] == unmoved[:1] + unmoved[2:]
    assert out[17:22] + out[23:] == unmoved[:5] + unmoved[6:]


def test_compare_presets_times_each_run(tmp_path, capsys, monkeypatch):
    script = load_script("compare_presets")
    monkeypatch.setattr(script, "PRESET_NAMES", ("fig3a",))
    monkeypatch.setattr(script, "NEGATIVITY_ON", ("fig3a",))
    monkeypatch.setattr(script, "ENGINE_RUNS", ())
    monkeypatch.setattr(script, "TIMED_RUNS", 3)
    calls, run_sweep = [], script.run_sweep
    monkeypatch.setattr(script, "run_sweep", lambda cfg: calls.append(cfg) or run_sweep(cfg))
    assert script.main(["--out-dir", str(tmp_path), "--time"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [
        ["fig3a", PRESET_SHA256["fig3a"]], ["fig3a-negativity", NEGATIVITY_SHA256["fig3a"]]
    ]
    assert all(len(line) == 4 and float(line[2]) > 0 and line[3] == "ms" for line in lines)
    assert len(calls) == 6  # best of 3 for each run


def test_compare_presets_digests_the_engine_runs(tmp_path, capsys, monkeypatch):
    # fig2d at cutoff 256 and a 3-pointer schedule-file run with a full-rank matrix-file
    # R(0) and every output on: unframed segments, type-2 and the direct-path negativity
    script = load_script("compare_presets")
    monkeypatch.setattr(script, "PRESET_NAMES", ())
    monkeypatch.setattr(script, "NEGATIVITY_ON", ())
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [label for label, _ in lines] == list(script.ENGINE_RUNS)
    for label, digest in lines:
        assert hashlib.sha256((tmp_path / f"{label}.csv").read_bytes()).hexdigest() == digest
    fig2d = (tmp_path / "fig2d-c256.csv").read_text().splitlines()
    assert len(fig2d) == 602 and all(line.endswith(",256") for line in fig2d[1:])
    schedule = load_schedule_file(tmp_path / "schedule-file-schedule.json")
    factor = env_from_matrix(load_matrix_file(tmp_path / "schedule-file-env.json")).factor
    assert schedule.system_dim * factor.shape[1] >= factor.shape[0] == factor.shape[1] == 6
    chunks = segment_chunks(schedule, factor, np.linspace(0.0, 1.8, 9), frame=True)
    assert all(frame is None for _, frame, *_ in chunks)  # the pointers share no eigenvectors
    rows = [line.split(",") for line in (tmp_path / "schedule-file.csv").read_text().splitlines()]
    assert rows[0] == CSV_HEADER.split(",") and len(rows) == 1 + 41 + 1  # and the switch at 0.7
    for t, e, *values, cutoff in rows[1:]:
        assert e == "" and cutoff == "6" and all(float(v) > 0 for v in values[1:] if float(t))

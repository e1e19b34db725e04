"""Smoke runs of the scripts/ entry points, so a renamed library name fails here."""

import importlib.util
from pathlib import Path

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

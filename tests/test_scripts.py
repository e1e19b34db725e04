"""Smoke runs of the scripts/ entry points, so a renamed library name fails here."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_figures_writes_csv(tmp_path, capsys):
    assert load_script("run_figures").main(["--out-dir", str(tmp_path), "--names", "fig2d"]) == 0
    lines = (tmp_path / "fig2d.csv").read_text().splitlines()
    assert lines[0].startswith("t,entanglement,")
    assert len(lines) == 1 + 601
    assert "fig2d: 601 rows" in capsys.readouterr().out


def test_convergence_check_prints_table(capsys):
    assert load_script("convergence_check").main(["--names", "fig2d", "--cutoff", "8"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "preset"
    assert row.split()[:2] == ["fig2d", "8/16"]

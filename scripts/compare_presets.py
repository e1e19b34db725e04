#!/usr/bin/env python3
"""Write the preset CSVs, print their sha256, and compare them with an earlier set.

Example:
    python scripts/compare_presets.py --out-dir new/
    python scripts/compare_presets.py --out-dir new/ --against old/
    python scripts/compare_presets.py --out-dir new/ --time

The runs are the 9 presets (<name>.csv), with outputs.negativity = true
the presets of NEGATIVITY_ON (<name>-negativity.csv), which every preset
leaves off, and ENGINE_RUNS (<label>.csv), which take engine routes that no
preset takes (engine_config). With --against, each run's CSV is read back
from that directory (as written by this script from another checkout) and
every column is compared: the largest |change| and the number of rows it
moved in. An empty cell (an output that was not computed) only matches an
empty cell. The exit status is 1 if the bytes of any run differ from that
directory's, else 0. With --time, each sweep runs TIMED_RUNS (5) times and
its best in-process wall time of run_sweep follows its digest, in ms. To
digest the library of another checkout, run this script with
PYTHONPATH=<checkout>/src.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from dephasim.config import config_from_dict
from dephasim.presets import PRESET_NAMES, preset_config
from dephasim.sweep import emit_csv, run_sweep

NEGATIVITY_ON = ("fig2a", "fig2b", "fig3a")  # also run with the negativity on
ENGINE_RUNS = ("fig2d-c256", "schedule-file")
FILE_SEED = 34  # the draw of the schedule-file run
TIMED_RUNS = 5  # with --time, the best of these


def read_columns(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and the cells as floats (NaN for an empty cell), one row per line."""
    header, *lines = path.read_text().splitlines()
    cells = [[float(v) if v else np.nan for v in line.split(",")] for line in lines]
    return header.split(","), np.array(cells, dtype=float)


def compare(new: Path, old: Path) -> list[str]:
    """One line per column: the largest |change| of new against old and the rows it moved in."""
    names, a = read_columns(new)
    old_names, b = read_columns(old)
    if names != old_names or a.shape != b.shape:
        return [f"  shape {b.shape} -> {a.shape}, header {old_names} -> {names}"]
    moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    change = np.where(moved, np.abs(a - b), 0.0)  # NaN where one side is empty
    return [
        f"  {name:<15} max |change| {np.nanmax(change[:, k], initial=0.0):.2e}"
        f" in {np.count_nonzero(moved[:, k])} rows"
        for k, name in enumerate(names)
    ]


def engine_config(label: str, out_dir: Path) -> dict:
    """The config of one run of ENGINE_RUNS; the schedule-file run writes its files to out_dir.

    fig2d-c256: fig2d at cutoff 256, whose mixed R(0) takes the fidelity worker
    at d = 256 under one BLAS thread. schedule-file: 3 pointers on 6 levels
    over two segments of random Hermitian generators (FILE_SEED), which share
    no eigenvectors (the unframed stacks), a full-rank R(0) from a matrix file
    (N r >= d: the negativity's direct path) and every output on (type-2).
    """
    if label == "fig2d-c256":
        return {**preset_config("fig2d"), "cutoff": 256}
    rng, d = np.random.default_rng(FILE_SEED), 6

    def draw():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    def pairs(m):  # the [re, im] pairs of the file formats
        return [[[z.real, z.imag] for z in row] for row in m.tolist()]

    hermitian = [g + g.conj().T for g in (draw() for _ in range(6))]
    segments = [
        {"duration": duration, "generators": [pairs(g) for g in hermitian[3 * k : 3 * k + 3]]}
        for k, duration in enumerate((0.7, 1.1))
    ]
    a = draw()
    files = {
        "schedule": {"system_dim": 3, "env_dim": d, "segments": segments},
        "env": {"matrix": pairs(a @ a.conj().T / np.trace(a @ a.conj().T).real)},
    }
    for name, doc in files.items():
        (out_dir / f"{label}-{name}.json").write_text(json.dumps(doc))
    return {
        "model": {"schedule_file": str(out_dir / f"{label}-schedule.json")},
        "initial_env": {"matrix_file": str(out_dir / f"{label}-env.json")},
        "time": {"t_max": 1.8, "steps": 41},  # the switch at 0.7 falls off the grid
        "cutoff": d,
        "outputs": {"negativity": True},
    }


def runs(out_dir: Path):
    """(label, config) of each run: presets, NEGATIVITY_ON with the negativity on, ENGINE_RUNS."""
    for name in PRESET_NAMES:
        yield name, preset_config(name)
    for name in NEGATIVITY_ON:
        yield f"{name}-negativity", {**preset_config(name), "outputs": {"negativity": True}}
    for label in ENGINE_RUNS:
        yield label, engine_config(label, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True, help="directory for the CSV files")
    parser.add_argument("--against", help="directory of earlier CSVs to compare with")
    parser.add_argument("--time", action="store_true", help="print each run's best wall time")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    identical = True
    for label, cfg in runs(out_dir):
        path, config, seconds = out_dir / f"{label}.csv", config_from_dict(cfg), []
        for _ in range(TIMED_RUNS if args.time else 1):
            start = time.perf_counter()
            rows = run_sweep(config)
            seconds.append(time.perf_counter() - start)
        emit_csv(rows, path)
        timing = f" {min(seconds) * 1e3:.1f} ms" if args.time else ""
        print(f"{label} {hashlib.sha256(path.read_bytes()).hexdigest()}{timing}")
        if args.against is not None:
            old = Path(args.against) / f"{label}.csv"
            identical &= path.read_bytes() == old.read_bytes()
            print("\n".join(compare(path, old)))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())

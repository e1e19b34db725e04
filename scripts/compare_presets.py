#!/usr/bin/env python3
"""Write the preset CSVs, print their sha256, and compare them with an earlier set.

Example:
    python scripts/compare_presets.py --out-dir new/
    python scripts/compare_presets.py --out-dir new/ --against old/
    python scripts/compare_presets.py --out-dir new/ --time

The runs are the 9 presets (<name>.csv) and, with outputs.negativity = true,
the presets of NEGATIVITY_ON (<name>-negativity.csv), which every preset
leaves off. With --against, each run's CSV is read back from that directory
(as written by this script from another checkout) and every column is
compared: the largest |change| and the number of rows it moved in. An empty
cell (an output that was not computed) only matches an empty cell. The exit
status is 1 if the bytes of any run differ from that directory's, else 0.
With --time, each sweep runs TIMED_RUNS (5) times and its best
in-process wall time of run_sweep follows its digest, in ms.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from dephasim.config import config_from_dict
from dephasim.presets import PRESET_NAMES, preset_config
from dephasim.sweep import emit_csv, run_sweep

NEGATIVITY_ON = ("fig2a", "fig2b", "fig3a")  # also run with the negativity on
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


def runs():
    """(label, config) of each run: every preset, then NEGATIVITY_ON with the negativity on."""
    for name in PRESET_NAMES:
        yield name, preset_config(name)
    for name in NEGATIVITY_ON:
        yield f"{name}-negativity", {**preset_config(name), "outputs": {"negativity": True}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True, help="directory for the CSV files")
    parser.add_argument("--against", help="directory of earlier CSVs to compare with")
    parser.add_argument("--time", action="store_true", help="print each run's best wall time")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    identical = True
    for label, cfg in runs():
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

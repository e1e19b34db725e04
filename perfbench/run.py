#!/usr/bin/env python3
"""Sweep benchmark for dephasim.

    python3 perfbench/run.py --workload pure-c64 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads, in this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "dephasim" / "__init__.py").is_file():
        print(f"error: no dephasim package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from bench import main

    sys.exit(main())

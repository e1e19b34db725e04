"""Output checks for one benchmark sweep.

None of these routes goes through the sweep's frame conjugation
u rho0 u^dag. Each CSV is checked against:

- closed forms: at t = 0 every residual, E and the negativity vanish and the
  coherence is 1; for a pure environment E = 4|c0 c1|^2 (1 - coh^2) at every
  point; in the undriven first phase the coherence of a coherent state is
  exp(-|zeta|^2 (1 - cos 2t)) and that of a thermal state the geometric
  series (1 - q)/|1 - q e^{-2it}| with E = 0;
- a seeded sample of points recomputed from `blocks_at` with the validated
  library routines `fidelity`, `trace_distance`, `type2_residuals` and
  `negativity(joint_state(...))`.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from dephasim.dephasing import blocks_at, joint_state, propagators_at
from dephasim.entanglement import type2_residuals
from dephasim.linalg import fidelity, negativity, trace_distance
from dephasim.sweep import CSV_HEADER

# Quantities that need no fidelity are compared at 1e-9, far above the
# 12-significant-digit CSV format and the ~1e-13 roundoff of d <= 256.
TOL = 1e-9
# E goes through a fidelity, whose square roots of roundoff-level
# eigenvalues leave a floor: the pure-state identity misses by 3.2e-8 on the
# fig3a preset. Breakage shows at 1e-3 and above.
TOL_E = 1e-6
SAMPLED_POINTS = 3


def _field(text: str) -> float | None:
    return None if text == "" else float(text)


def _read_csv(path) -> tuple[list[str], list[list[float | None]]]:
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_field(x) for x in row] for row in reader]
    return header, rows


def _close(value, ref, tol) -> bool:
    return value is not None and abs(value - ref) <= tol * max(1.0, abs(ref))


def check_sweep(draw, csv_path, rng: np.random.Generator) -> list[str]:
    """Problems found in one sweep's CSV; an empty list means it passed."""
    try:
        header, rows = _read_csv(csv_path)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable CSV: {exc}"]
    if ",".join(header) != CSV_HEADER:
        return [f"header {header!r}"]
    if len(rows) != draw.points or any(len(r) != len(header) for r in rows):
        return [f"{len(rows)} rows of widths {sorted({len(r) for r in rows})}, "
                f"expected {draw.points} of {len(header)}"]
    col = {name: i for i, name in enumerate(header)}
    wanted = ["t", "coherence_norm", "type1_max", "type2_max", "cutoff"]
    wanted.append("entanglement" if draw.system_dim == 2 else "negativity")
    problems = []
    for k, row in enumerate(rows):
        for name in wanted:
            value = row[col[name]]
            if value is None or not math.isfinite(value):
                problems.append(f"row {k}: {name} = {value!r}")
        if row[col["cutoff"]] != draw.env_dim:
            problems.append(f"row {k}: cutoff {row[col['cutoff']]!r}")
    if problems:
        return problems[:5]

    def get(k, name):
        return rows[k][col[name]]

    grid = np.linspace(0.0, draw.t_max, draw.points)
    problems += [f"row {k}: t = {get(k, 't')!r}" for k in range(len(rows))
                 if not _close(get(k, "t"), grid[k], TOL)]

    zero = ["type1_max", "type2_max"]
    zero.append("entanglement" if draw.system_dim == 2 else "negativity")
    problems += [f"t=0: {name} = {get(0, name)!r}" for name in zero
                 if not _close(get(0, name), 0.0, TOL)]
    if not _close(get(0, "coherence_norm"), 1.0, TOL):
        problems.append(f"t=0: coherence_norm = {get(0, 'coherence_norm')!r}")

    prefactor = 4 * abs(draw.amplitudes[0] * draw.amplitudes[1]) ** 2
    for k in range(len(rows)):
        t, e, coh = get(k, "t"), get(k, "entanglement"), get(k, "coherence_norm")
        if draw.zeta is not None:
            if not _close(e, prefactor * (1 - coh**2), TOL_E):
                problems.append(f"t={t}: pure-state E = {e!r} vs 1 - coh^2 from {coh!r}")
            if t <= draw.undriven_until:
                ref = math.exp(-abs(draw.zeta) ** 2 * (1 - math.cos(2 * t)))
                if not _close(coh, ref, TOL):
                    problems.append(f"t={t}: coherent coh = {coh!r}, closed form {ref!r}")
        if draw.theta is not None and t <= draw.undriven_until:
            q = math.exp(-1.0 / draw.theta)
            ref = (1 - q) / abs(1 - q * complex(math.cos(2 * t), -math.sin(2 * t)))
            if not _close(coh, ref, TOL):
                problems.append(f"t={t}: thermal coh = {coh!r}, series {ref!r}")
            if not _close(e, 0.0, TOL_E):
                problems.append(f"t={t}: undriven thermal E = {e!r}")
    if problems:
        return problems[:5]

    schedule, env0 = draw.reference()
    n, c = draw.system_dim, draw.amplitudes
    for k in sorted(rng.choice(np.arange(1, len(rows)), SAMPLED_POINTS, replace=False)):
        t = float(grid[k])
        state = blocks_at(schedule, env0, c, t)
        blocks = state.blocks
        ref = {
            "coherence_norm": abs(np.trace(blocks[0, 1])),
            "type1_max": max(trace_distance(blocks[i, i], blocks[j, j])
                             for i in range(n) for j in range(i + 1, n)),
            "type2_max": max((r.residual for r in type2_residuals(propagators_at(schedule, t))),
                             default=0.0),
        }
        if n == 2:
            f = fidelity(blocks[0, 0], blocks[1, 1])
            ref["entanglement"] = min(max(prefactor * (1 - f), 0.0), 1.0)
        else:
            ref["negativity"] = negativity(joint_state(state), n, draw.env_dim)
        for name, value in ref.items():
            tol = TOL_E if name == "entanglement" else TOL
            if not _close(get(k, name), value, tol):
                problems.append(f"t={t}: {name} = {get(k, name)!r}, reference {value!r}")
    return problems

"""Machine-speed probe for the sweep benchmark.

On a shared virtual machine the speed of a core drifts with the other
tenants' load: the same pure-c64 sweep took 0.7 s in some minutes and 1.2 s
in others, in stretches of one to two minutes, so wall times of runs made
minutes apart differ by up to 1.7x whatever the code does.

A `Probe` runs a fixed amount of the kinds of work a sweep does (Hermitian
eigensolves and matrix products at the workload's largest eigensolver
dimension, plus interpreted Python) and touches no dephasim code, so a change
to the package cannot change it. Timing it next to each measurement gives the
machine's speed at that moment; a wall time times PROBE_REF_S / probe time is
the time the measurement would have taken on a machine where the probe takes
PROBE_REF_S. Over ten 30-s runs per workload this cut the quartile spread of
points_per_s, as a share of its median, from 0.12 to 0.05 on pure-c64, from
0.17 to 0.04 on qutrit-neg and from 0.08 to 0.07 on thermal-c256.
"""

from __future__ import annotations

import json
import time

import numpy as np

PROBE_REF_S = 0.1
# Eigensolver work per probe, as n^3 summed over the eigensolves, and the
# fewest rounds: the two 256-dimensional rounds that budget gives are too
# short to time steadily.
N3_PER_PROBE = 2.5e7
MIN_ROUNDS = 6
_DOC = json.dumps({"rows": [[0.5 * i, [i, -i], str(i)] for i in range(2000)]})


class Probe:
    """Fixed work at one matrix dimension; calling it returns its wall seconds."""

    def __init__(self, dim: int):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        self.hermitian = (a + a.conj().T) / (2 * np.sqrt(dim))
        self.frame = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        self.rounds = max(MIN_ROUNDS, round(N3_PER_PROBE / dim**3))

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(self.rounds):
            np.linalg.eigvalsh(self.frame @ self.hermitian @ self.frame.conj().T)
        for _ in range(10):
            json.loads(_DOC)
        return time.perf_counter() - start

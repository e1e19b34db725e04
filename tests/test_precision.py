"""Precision floors of segment_chunks and trace_distance_of_factors against 40-digit oracles.

The oracle is the chronological product of the segment exponentials, each
from a 40-digit mpmath eigendecomposition of the same double-precision
generator, applied to the same durations and factor A, so the comparison
sees only the kernel's roundoff. That roundoff grows with the phase |w| t,
so an error is counted in units of eps (1 + t ||V||), where ||V|| is the
largest 2-norm of the schedule's generators.

Both stack recipes are covered: the unframed Y_i = w_i A (frame=False, and
frame=True in a segment whose pointers do not share eigenvectors) against
the oracle entry by entry, and the phase frame V^dag Y_i against the frame-
free Gram matrices Y_i^dag Y_j. The gauged case puts a complex alpha between
two undriven steps at cutoff 24, so its driven step takes linalg.eigh's real
tridiagonal solve and its undriven steps carry no eigenvector matrix. The
floors measured (max over the times, in those units; numpy 2.4 with
OpenBLAS 0.3.31 on x86-64, 1 or 2 threads) are:

    case      ||V||   unframed  frame=True
    shared    5.8     0.20      0.18
    unshared  12.7    0.44      0.40
    long      1021    0.17      0.16
    gauged    25.7    0.19      0.15

so FLOOR_UNITS = 10 sits 23x to 67x above them. Before the real tridiagonal
solve, with a complex eigh of every driven step and a permutation matrix
for every undriven one, the same cases gave 0.22/0.18, 0.44/0.40,
0.17/0.16 and 0.17/0.13.

trace_distance_of_factors is pinned on each of its three paths (rank-1
closed form, QR, direct) against the 40-digit eigenvalues of the formed
difference a a^dag - b b^dag, for b = a + delta noise (delta = 1 down to
1e-12), b = 1.001 a and a zero a or b, each alone and as one (T, d, r)
stack. In units of eps max(1, |a|^2, |b|^2) the floors measured are 0.41
(rank-1), 0.75 (QR) and 0.62 (direct), and at most 0.73, 2.15 and 1.85
over 40 seeds, so TD_FLOOR_UNITS = 8 sits 11x to 20x above them. The
cancelling rank-1 form sqrt(((|a|^2 + |b|^2)/2)^2 - |a^dag b|^2) is off by
3.7e-12 at delta = 1e-4 and 1.0e-8 at delta = 1e-8.
"""

from functools import cache

import numpy as np
import pytest
from mpmath import mp

from dephasim.dephasing import Segment, SegmentSchedule, segment_chunks
from dephasim.linalg import trace_distance_of_factors
from dephasim.qubit_boson import AlphaSegment, QubitBosonParams, build_schedule
from util import random_complex, random_hermitian

EPS = np.finfo(float).eps
FLOOR_UNITS = 10


def unit_factor(rng, d, zero_rows=0, rank=2):
    """A d x rank factor of unit Frobenius norm: R(0) = A A^dag has that rank."""
    a = random_complex(rng, (d, rank))
    a[d - zero_rows :] = 0
    return a / np.linalg.norm(a)


@cache
def case(name):
    """(schedule, A, times) of one precision case."""
    rng = np.random.default_rng(5)
    if name == "shared":
        # +/-V on 6 levels; R(0) lives on the lowest 4, so the undriven first
        # segment drops 2 rows from the frame stacks, the driven second none
        params = QubitBosonParams(
            beta=1.0, segments=(AlphaSegment(0.7, 0.0), AlphaSegment(1.1, -0.3 + 0.4j)), cutoff=6
        )
        return build_schedule(params), unit_factor(rng, 6, zero_rows=2), (0.3, 1.8)
    if name == "unshared":
        segments = tuple(
            Segment(dur, tuple(3 * random_hermitian(rng, 5) for _ in range(3)))
            for dur in (0.7, 1.1)
        )
        return SegmentSchedule(3, 5, segments), unit_factor(rng, 5), (0.4, 1.8)
    if name == "gauged":
        # a complex alpha between two undriven steps at cutoff 24: the driven
        # step is the gauged real tridiagonal solve, the others carry no u
        params = QubitBosonParams(
            beta=1.0,
            segments=(
                AlphaSegment(0.5, 0.0), AlphaSegment(0.8, 0.5 * np.exp(2j)), AlphaSegment(0.4, 0.0)
            ),
            cutoff=24,
        )
        return build_schedule(params), unit_factor(rng, 24), (0.3, 1.0, 1.7)
    # long phase: beta n reaches 1000 at n = 5, so |w| t ~ 1e3
    params = QubitBosonParams(beta=200.0, segments=(AlphaSegment(1.0, 30.0),), cutoff=6)
    return build_schedule(params), unit_factor(rng, 6), (1.0,)


@cache
def oracle(name):
    """Per time, the 40-digit Y_i = w_i A as mpmath matrices.

    Each segment exponential is Q diag(exp(-i lam tau)) Q^dag from a 40-digit
    mp.eighe of the generator (Hermitian to the last bit in every case), one
    per generator, shared by all times.
    """
    schedule, a, times = case(name)
    out = []
    with mp.workdps(40):
        systems = [[mp.eighe(mp.matrix(g.tolist())) for g in seg.generators]
                   for seg in schedule.segments]
        for t in times:
            ys = []
            for i in range(schedule.system_dim):
                y = mp.matrix(a.tolist())
                for start, seg, eig in zip(schedule.boundaries, schedule.segments, systems):
                    tau = min(max(t - start, 0.0), seg.duration)
                    if tau > 0:
                        lam, q = eig[i]
                        phases = mp.diag([mp.exp(-1j * x * mp.mpf(tau)) for x in lam])
                        y = q @ (phases @ (q.H @ y))
                ys.append(y)
            out.append(ys)
    return out


def max_abs(x, y):
    """max |x - y| over the entries, with x in double and y a 40-digit matrix."""
    with mp.workdps(40):
        return float(max(abs(e) for e in (mp.matrix(x.tolist()) - y)))


@pytest.mark.parametrize("frame", [False, True])
@pytest.mark.parametrize("name", ["shared", "unshared", "long", "gauged"])
def test_segment_chunks_within_its_floor(name, frame):
    schedule, a, times = case(name)
    norm = max(np.linalg.norm(g, 2) for seg in schedule.segments for g in seg.generators)
    chunks = list(segment_chunks(schedule, a, times, frame=frame))
    got = [ys for _, stacks in chunks for ys in zip(*stacks)]
    assert len(got) == len(times)
    if name == "shared" and frame:  # segment 0 cuts the 2 rows R(0) does not reach
        assert [stacks[0].shape[1] for _, stacks in chunks] == [4, 6]
    if name == "long":
        assert norm * times[-1] >= 1e3
    for t, ys, exact in zip(times, got, oracle(name)):
        if frame:  # V is unknown: compare the Gram matrices, which it leaves alone
            with mp.workdps(40):
                grams = [[yi.H @ yj for yj in exact] for yi in exact]
            err = max(
                max_abs(yi.conj().T @ yj, grams[i][j])
                for i, yi in enumerate(ys) for j, yj in enumerate(ys)
            )
        else:
            err = max(max_abs(y, e) for y, e in zip(ys, exact))
        assert err <= FLOOR_UNITS * EPS * (1 + t * norm), (t, err)


# (d, r) of the factors that take each path of trace_distance_of_factors
TD_SHAPES = {"rank-1": (6, 1), "qr": (6, 2), "direct": (3, 2)}
TD_FLOOR_UNITS = 8
DELTAS = (1.0, 1e-4, 1e-8, 1e-12)


@cache
def td_pairs(path):
    """{case: (a, b)} for one path: b = a + delta noise, b = 1.001 a, and a zero factor."""
    d, r = TD_SHAPES[path]
    rng = np.random.default_rng(11)
    a, noise = unit_factor(rng, d, rank=r), unit_factor(rng, d, rank=r)
    pairs = {f"delta={delta:g}": (a, a + delta * noise) for delta in DELTAS}
    pairs["unequal"] = (a, 1.001 * a)
    pairs["zero-a"] = (np.zeros_like(a), a + noise)
    pairs["zero-b"] = (a + noise, np.zeros_like(a))
    return pairs


def exact_distance(a, b):
    """(1/2) ||a a^dag - b b^dag||_1 from the 40-digit eigenvalues of the formed difference."""
    with mp.workdps(40):
        ma, mb = mp.matrix(a.tolist()), mp.matrix(b.tolist())
        w = mp.eighe(ma * ma.H - mb * mb.H, eigvals_only=True)
        return float(mp.fsum(abs(x) for x in w) / 2)


@pytest.mark.parametrize("path", TD_SHAPES)
def test_trace_distance_within_its_floor(path):
    pairs = td_pairs(path)
    stacked = trace_distance_of_factors(*(np.stack(x) for x in zip(*pairs.values())))
    for (case, (a, b)), batched in zip(pairs.items(), stacked):
        exact = exact_distance(a, b)
        unit = EPS * max(1.0, np.linalg.norm(a) ** 2, np.linalg.norm(b) ** 2)
        for got in (trace_distance_of_factors(a, b), batched):
            assert abs(got - exact) <= TD_FLOOR_UNITS * unit, (case, got, exact)

"""Precision floors of segment_chunks and the type-1 and fidelity kernels against 40-digit oracles.

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

The same bound holds sweep.evaluate's Gram route, the direct path formed
as Phi_i G_i Phi_i^dag - Phi_j G_j Phi_j^dag from G_i = B_i B_i^dag, on the
frame stacks of a rank-3 R(0) on 6 levels (measured 1.0 at t = 0.9 and 1.8,
0 at t = 0 and 0.3), and the two diagonal read-offs: _half_trace_norm of a
diagonal difference (0.07) and fidelity_of_factors of a diagonal 5 x 4
overlap, against 40-digit singular values, in units of
eps max(1, |a|^2) max(1, |b|^2) (0.57).

fidelity_of_factors is pinned on its one-column path (the fidelity of the
normalized states, exactly 1 for b = a) and its SVD path, for unit factors
b near a, a phase times a and a itself, on a tail factor whose R(0) has
eigenvalues 1 : 1e-14, and on the long case's stacks of one and two columns.
FID_FLOOR_UNITS = 8 sits 4x (svd, tail) to 99x (long, one column) above the floors
measured in test_fidelity_within_its_floor.

The coherence |Tr(Y_0^dag Y_1)| is pinned as sweep.evaluate forms it, on
the stacks of the four segment_chunks cases (and the long case's one-column
A), against the 40-digit Y_0 and Y_1 of the oracle. In units of
eps (1 + t ||V||) |A|^2 the floors measured are 0.03 to 0.35 (the largest
on the unshared case at t = 1.8; the long case 0.09, and 0.15 for one
column), so COH_FLOOR_UNITS = 8 sits 23x above the largest.
"""

from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp

from dephasim import sweep
from dephasim.config import OutputFlags
from dephasim.dephasing import Segment, SegmentSchedule, equal_superposition
from dephasim.fock import env_from_matrix
from dephasim.linalg import fidelity_of_factors, trace_distance_of_factors
from dephasim.qubit_boson import AlphaSegment, QubitBosonParams, build_schedule
from util import chunk_stacks, generator_matrices, random_complex, random_hermitian

EPS = np.finfo(float).eps
FLOOR_UNITS = 10


def unit_factor(rng, d, zero_rows=0, rank=2):
    """A d x rank factor of unit Frobenius norm: R(0) = A A^dag has that rank."""
    a = random_complex(rng, (d, rank))
    a[d - zero_rows :] = 0
    return a / np.linalg.norm(a)


@cache
def case(name, rank=2):
    """(schedule, A, times) of one precision case, A of unit norm with rank columns."""
    rng = np.random.default_rng(5)
    if name == "shared":
        # +/-V on 6 levels; R(0) lives on the lowest 4, so the undriven first
        # segment drops 2 rows from the frame stacks, the driven second none
        params = QubitBosonParams(
            beta=1.0, segments=(AlphaSegment(0.7, 0.0), AlphaSegment(1.1, -0.3 + 0.4j)), cutoff=6
        )
        return build_schedule(params), unit_factor(rng, 6, zero_rows=2, rank=rank), (0.3, 1.8)
    if name == "unshared":
        segments = tuple(
            Segment(dur, tuple(3 * random_hermitian(rng, 5) for _ in range(3)))
            for dur in (0.7, 1.1)
        )
        return SegmentSchedule(3, 5, segments), unit_factor(rng, 5, rank=rank), (0.4, 1.8)
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
        return build_schedule(params), unit_factor(rng, 24, rank=rank), (0.3, 1.0, 1.7)
    # long phase: beta n reaches 1000 at n = 5, so |w| t ~ 1e3
    params = QubitBosonParams(beta=200.0, segments=(AlphaSegment(1.0, 30.0),), cutoff=6)
    return build_schedule(params), unit_factor(rng, 6, rank=rank), (1.0,)


@cache
def oracle(name, rank=2):
    """Per time, the 40-digit Y_i = w_i A as mpmath matrices.

    Each segment exponential is Q diag(exp(-i lam tau)) Q^dag from a 40-digit
    mp.eighe of the generator (Hermitian to the last bit in every case), one
    per generator, shared by all times.
    """
    schedule, a, times = case(name, rank)
    out = []
    with mp.workdps(40):
        systems = [[mp.eighe(mp.matrix(g.tolist())) for g in generator_matrices(seg)]
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
    norm = max(np.linalg.norm(g, 2) for seg in schedule.segments for g in generator_matrices(seg))
    chunks = chunk_stacks(schedule, a, times, frame=frame)
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
    """{case: (a, b)} for one path: b = a + delta noise, b = 1.001 a, a zero and a tiny factor."""
    d, r = TD_SHAPES[path]
    rng = np.random.default_rng(11)
    a, noise = unit_factor(rng, d, rank=r), unit_factor(rng, d, rank=r)
    pairs = {f"delta={delta:g}": (a, a + delta * noise) for delta in DELTAS}
    pairs["unequal"] = (a, 1.001 * a)
    pairs["zero-a"] = (np.zeros_like(a), a + noise)
    pairs["zero-b"] = (a + noise, np.zeros_like(a))
    pairs["subnormal-a"] = (1e-160 * a, a + noise)  # |a|^2 = 1e-320, whose reciprocal overflows
    # one state twice, at a norm where a^dag a / |a|^2 rounded off 1 as a complex division
    pairs["equal"] = (0.3 * a, 0.3 * a)
    return pairs


def exact_distance(a, b):
    """(1/2) ||a a^dag - b b^dag||_1 from the 40-digit eigenvalues of the formed difference."""
    with mp.workdps(40):
        ma, mb = mp.matrix(a.tolist()), mp.matrix(b.tolist())
        w = mp.eighe(ma * ma.H - mb * mb.H, eigvals_only=True)
        return float(mp.fsum(abs(x) for x in w) / 2)


@cache
def gram_case():
    """(schedule, R(0), times) for sweep.evaluate's Gram route.

    R(0) has rank 3 on 6 levels, so 2 r >= d_k in both the undriven and the
    driven segment of a shared frame: the direct path, formed from Gram blocks.
    """
    params = QubitBosonParams(
        beta=1.0, segments=(AlphaSegment(0.7, 0.0), AlphaSegment(1.1, -0.3 + 0.4j)), cutoff=6
    )
    a = unit_factor(np.random.default_rng(17), 6, rank=3)
    return build_schedule(params), env_from_matrix(a @ a.conj().T), (0.0, 0.3, 0.9, 1.8)


def gram_distances(monkeypatch):
    """{case: (a, b, [type-1 of evaluate])}, a and b the frame stacks the sweep reads."""
    schedule, env0, times = gram_case()
    assert env0.factor.shape == (6, 3)
    monkeypatch.setattr(sweep, "trace_distance_of_factors", None)  # the factor path is not taken
    flags = OutputFlags(entanglement=False, coherence=False, type2=False)
    rows = sweep.evaluate(schedule, env0, equal_superposition(2), times, flags)
    chunks = chunk_stacks(schedule, env0.factor, times, frame=True)
    stacks = [ys for _, s in chunks for ys in zip(*s)]
    return {f"t={t:g}": (a, b, [row.type1_max]) for t, (a, b), row in zip(times, stacks, rows)}


@pytest.mark.parametrize("path", [*TD_SHAPES, "gram"])
def test_trace_distance_within_its_floor(path, monkeypatch):
    if path == "gram":
        cases = gram_distances(monkeypatch)
    else:
        pairs = td_pairs(path)
        stacked = trace_distance_of_factors(*(np.stack(x) for x in zip(*pairs.values())))
        cases = {
            case: (a, b, [trace_distance_of_factors(a, b), batched])
            for (case, (a, b)), batched in zip(pairs.items(), stacked)
        }
    if path == "rank-1":  # one state twice: exactly 0, single and batched
        assert cases["equal"][2] == [0.0, 0.0]
    for case, (a, b, distances) in cases.items():
        exact = exact_distance(a, b)
        unit = EPS * max(1.0, np.linalg.norm(a) ** 2, np.linalg.norm(b) ** 2)
        for got in distances:
            assert abs(got - exact) <= TD_FLOOR_UNITS * unit, (case, got, exact)


def exact_fidelity(a, b):
    """(sum of the 40-digit singular values of a^dag b)^2."""
    with mp.workdps(40):
        overlap = mp.matrix(a.tolist()).H * mp.matrix(b.tolist())
        return float(mp.fsum(mp.svd_c(overlap, compute_uv=False)) ** 2)


@pytest.mark.parametrize("kernel", ["trace distance", "fidelity"])
def test_diagonal_read_offs_within_their_floor(kernel, monkeypatch):
    # diagonal factors: the difference a a^dag - b b^dag (of both signs) and the
    # overlap a^dag b (complex, 5 x 4) have no nonzero off their diagonals, so
    # neither kernel calls LAPACK
    rng = np.random.default_rng(19)
    a, b = (np.stack([np.eye(8, r) * random_complex(rng, r) for _ in range(3)]) for r in (5, 4))
    for solver in ("svd", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, solver, None)
    if kernel == "trace distance":  # 5 x 5 and 5 x 4: r1 + r2 >= d, the direct path
        a, b = a[:, :5], b[:, :5]
        got, exact = trace_distance_of_factors(a, b), [exact_distance(x, y) for x, y in zip(a, b)]
        units = [max(1.0, np.linalg.norm(x) ** 2, np.linalg.norm(y) ** 2) for x, y in zip(a, b)]
    else:  # F is of the order |a|^2 |b|^2
        got, exact = fidelity_of_factors(a, b), [exact_fidelity(x, y) for x, y in zip(a, b)]
        units = [max(1.0, np.linalg.norm(x) ** 2) * max(1.0, np.linalg.norm(y) ** 2)
                 for x, y in zip(a, b)]
    for g, e, unit in zip(got, exact, units):
        assert abs(g - e) <= TD_FLOOR_UNITS * EPS * unit, (g, e)


# (d, r) of the factors that take each path of fidelity_of_factors; the tail's
# R(0) = a a^dag has eigenvalues in the ratio 1 : 1e-14
FID_SHAPES = {"one-column": (6, 1), "svd": (6, 2), "tail": (6, 2)}
FID_FLOOR_UNITS = 8


def normalized(a):
    return a / np.linalg.norm(a)


@cache
def fid_pairs(path):
    """{case: (a, b)} of unit factors: b = a + delta noise normalized, a phase times a, and a."""
    d, r = FID_SHAPES[path]
    rng = np.random.default_rng(13)
    a, noise = unit_factor(rng, d, rank=r), unit_factor(rng, d, rank=r)
    if path == "tail":  # columns mixed by a rotation, which keeps a a^dag
        a = normalized(a * [1.0, 1e-7]) @ np.array([[0.6, 0.8], [-0.8, 0.6]])
    pairs = {f"delta={delta:g}": (a, normalized(a + delta * noise)) for delta in DELTAS}
    pairs["phase"] = (a, np.exp(0.3j) * a)
    pairs["equal"] = (a, a)
    return pairs


def exact_state_fidelity(a, b):
    """The fidelity of a a^dag / |a|^2 and b b^dag / |b|^2 for 40-digit matrices a and b."""
    with mp.workdps(40):
        f = mp.fsum(mp.svd_c(a.H * b, compute_uv=False)) ** 2
        return float(f / (mp.mnorm(a, "f") ** 2 * mp.mnorm(b, "f") ** 2))


def long_phase_fidelities():
    """{case: ([F], exact, 1 + t ||V||)} on the long case's stacks for A of one and two columns."""
    cases = {}
    for rank in (1, 2):  # the one-column path and the SVD path
        schedule, a, times = case("long", rank)
        norm = max(
            np.linalg.norm(g, 2) for seg in schedule.segments for g in generator_matrices(seg)
        )
        assert norm * times[-1] >= 1e3
        stacks = [ys for _, s in chunk_stacks(schedule, a, times) for ys in zip(*s)]
        for t, ys, exact in zip(times, stacks, oracle("long", rank)):
            f = fidelity_of_factors(ys[0], ys[1])
            cases[f"rank={rank} t={t:g}"] = ([f], exact_state_fidelity(*exact[:2]), 1 + t * norm)
    return cases


@pytest.mark.parametrize("path", [*FID_SHAPES, "long"])
def test_fidelity_within_its_floor(path):
    # against the 40-digit fidelity, of the normalized states on the one-column path,
    # in units of eps times 1 + t ||V|| on the long case's stacks, whose oracle is the
    # 40-digit Y_0, Y_1 at a phase |w| t of 1e3. Floors measured: 0.5 (one-column),
    # 2.0 (svd), 2.0 (tail), 0.08 and 0.096 (long, one and two columns); over 40 seeds
    # of the pairs at most 0.75, 3.0 and 5.0. Y_0^dag Y_1 Y_1^dag Y_0's eigvalsh (an
    # earlier route) is off by 6.7e7 on the tail, through square roots of roundoff.
    if path == "long":
        cases = long_phase_fidelities()
    else:
        pairs = fid_pairs(path)
        stacked = fidelity_of_factors(*(np.stack(x) for x in zip(*pairs.values())))
        cases = {}
        for (name, (a, b)), batched in zip(pairs.items(), stacked):
            if path == "one-column":
                exact = exact_state_fidelity(*(mp.matrix(x.tolist()) for x in (a, b)))
            else:
                exact = exact_fidelity(a, b)
            cases[name] = ([fidelity_of_factors(a, b), batched], exact, 1.0)
        if path == "one-column":  # b = a is one state: exactly 1
            assert cases["equal"][0] == [1.0, 1.0]
    for name, (fidelities, exact, unit) in cases.items():
        for got in fidelities:
            assert abs(got - exact) <= FID_FLOOR_UNITS * EPS * unit, (name, got, exact)


COH_FLOOR_UNITS = 8


@pytest.mark.parametrize(
    "name, rank", [("shared", 2), ("unshared", 2), ("long", 2), ("long", 1), ("gauged", 2)]
)
def test_coherence_within_its_floor(name, rank):
    # evaluate reads R(0) through its dim and factor alone: carrying A itself keeps
    # psd_factor's roundoff out, so the error is that of the stacks and the trace
    schedule, a, times = case(name, rank)
    norm = max(np.linalg.norm(g, 2) for seg in schedule.segments for g in generator_matrices(seg))
    flags = OutputFlags(entanglement=False, type1=False, type2=False)
    env0 = SimpleNamespace(dim=len(a), factor=a)
    rows = sweep.evaluate(schedule, env0, equal_superposition(schedule.system_dim), times, flags)
    if name == "long":
        assert norm * times[-1] >= 1e3
    for t, row, (y0, y1, *_) in zip(times, rows, oracle(name, rank), strict=True):
        with mp.workdps(40):
            exact = float(abs(mp.fsum(mp.conj(x) * y for x, y in zip(y0, y1))))
        unit = EPS * (1 + t * norm) * np.linalg.norm(a) ** 2
        assert abs(row.coherence_norm - exact) <= COH_FLOOR_UNITS * unit, (t, row, exact)

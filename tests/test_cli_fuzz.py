"""Fuzz of `dephasim run` over generated, often malformed, configurations.

Whatever the input, main returns 0, 1 or 2 without raising, and a run that
returns 0 writes only finite numbers. Cutoffs stay at or below 16 and grids
at or below 5 steps so each example runs in milliseconds.
"""

import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasim.cli import main

R = 0.7071067811865476
NON_FINITE = [math.nan, math.inf, -math.inf]
JUNK = [None, True, "x", "", [], {}, [1.0], {"x": 1}, -1, 0, 2, 1e300, 10**300, 10**400]

finite = st.floats(-2.0, 2.0)
duration = st.floats(0.05, 2.0)
pair = st.lists(finite, min_size=2, max_size=2)


@st.composite
def hermitian(draw, dim):
    m = [[draw(pair) for _ in range(dim)] for _ in range(dim)]
    return [
        [[(m[i][j][0] + m[j][i][0]) / 2, (m[i][j][1] - m[j][i][1]) / 2] for j in range(dim)]
        for i in range(dim)
    ]


@st.composite
def runs(draw):
    """A valid configuration and the schedule and matrix documents it may name."""
    d, n = draw(st.integers(2, 4)), 2
    if draw(st.booleans()):
        segment = st.fixed_dictionaries(
            {"duration": duration, "alpha": pair}, optional={"gamma": finite}
        )
        segments = draw(st.lists(segment, min_size=1, max_size=3))
        beta = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1, -1]))
        model = {"qubit_boson": {"beta": beta, "segments": segments}}
        schedule = None
    else:
        n = draw(st.integers(2, 3))
        segment = st.fixed_dictionaries(
            {"duration": duration, "generators": st.lists(hermitian(d), min_size=n, max_size=n)}
        )
        segments = draw(st.lists(segment, min_size=1, max_size=2))
        model = {"schedule_file": "s.json"}
        schedule = {"system_dim": n, "env_dim": d, "segments": segments}
    env = draw(st.sampled_from(["thermal", "coherent", "fock", "matrix_file"]))
    cutoff = d if schedule or env == "matrix_file" else draw(st.integers(2, 16))
    env = {
        "thermal": {"thermal": {"theta": draw(st.floats(0.0, 2.0))}},
        "coherent": {"coherent": {"re": draw(finite), "im": draw(finite)}},
        "fock": {"fock": {"n": draw(st.integers(0, cutoff - 1))}},
        "matrix_file": {"matrix_file": "m.json"},
    }[env]
    total = sum(s["duration"] for s in segments)
    cfg = {
        "model": model,
        "initial_env": env,
        "time": {"t_max": total * draw(st.floats(0.1, 1.0)), "steps": draw(st.integers(2, 5))},
        "cutoff": cutoff,
    }
    if draw(st.booleans()):
        cfg["amplitudes"] = [[(1 / n) ** 0.5, 0.0]] * n
    if draw(st.booleans()):
        cfg["outputs"] = {"type2": draw(st.booleans()), "negativity": draw(st.booleans())}
    diagonal = [[[1.0 / d if i == j else 0.0, 0.0] for j in range(d)] for i in range(d)]
    files = {"m.json": {"matrix": diagonal}}
    if schedule:
        files["s.json"] = schedule
    return {"cfg": cfg, "files": files}


def paths(doc, prefix=()):
    """Every key path inside doc, except the cutoff (absent, it means 'auto')."""
    if isinstance(doc, list):
        doc = dict(enumerate(doc))
    for key, value in doc.items() if isinstance(doc, dict) else ():
        if prefix + (key,) != ("cfg", "cutoff"):
            yield prefix + (key,)
            yield from paths(value, prefix + (key,))


@st.composite
def edited(draw, base):
    """base with up to two keys dropped, added or replaced by junk or non-finite values."""
    case = json.loads(json.dumps(draw(base)))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from([p for p in paths(case) if len(p) > 1]))
        parent = case
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["drop", "extra", "replace"]))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "extra" and isinstance(parent, dict):
            parent["extra_" + str(path[-1])] = 1
        else:
            parent[path[-1]] = draw(st.sampled_from(JUNK + NON_FINITE))
    return case


def assert_run_is_clean(cfg, files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, doc in files.items():
            (root / name).write_text(json.dumps(doc))
        (root / "cfg.json").write_text(json.dumps(cfg))
        out = root / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow and reach warnings are expected
            code = main(["run", "--config", str(root / "cfg.json"), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 0:
            with out.open(newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows
            for row in rows:
                assert all(math.isfinite(float(x)) for x in row if x), row


NAN_SEGMENT = {"duration": 2.0, "alpha": [math.nan, 0.0]}
FIG2E = {
    "model": {"qubit_boson": {"beta": 1.0, "segments": [{"duration": 2.0, "alpha": [0.5, 0.5]}]}},
    "initial_env": {"thermal": {"theta": 2.0}},
    "time": {"t_max": 2.0, "steps": 5},
    "cutoff": 8,
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=edited(runs()))
@example(case={"cfg": {**FIG2E, "amplitudes": [[math.nan, 0.0], [R, 0.0]]}, "files": {}})
@example(
    case={
        "cfg": {**FIG2E, "model": {"qubit_boson": {"beta": 1.0, "segments": [NAN_SEGMENT]}}},
        "files": {},
    }
)
def test_run_exit_code_and_finite_output(case):
    assert_run_is_clean(case["cfg"], case["files"])

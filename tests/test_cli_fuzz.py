"""Seeded fuzz of the command line: every input ends in a documented exit
code, successful and failed-verification outputs are finite JSON, pulse
CSVs are finite, and no call takes long.  Any warning fails the module."""

import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatebound.cli import main

COUPLINGS = (1.0, -1.0, 0.0, 5e-324, 1e-300, 1e300, 1e308)
COEFFS = (0.5, -1.25, 0.7853981633974483, 1e-300, 1e300)
EPSILONS = (2.0, 0.3, 0.05, 1e-9, 1e-300)
TIMES = ("0.5", "2", "1e-300", "1e300")
GRAPE_FLAGS = ("--slices", "4", "--restarts", "1", "--max-iters", "5")
CALL_SECONDS = 10.0
# compare's pulse flags: (in-domain values, out-of-domain values)
COMPARE_FLAGS = {"--slices": (("1", "4"), ("0", "-3", "1000000000")),
                 "--restarts": (("1", "2"), ("0",)),
                 "--max-iters": (("1", "5"), ("0",)),
                 "--tol": (("1e-3", "2.0", "1e-300"), ("0", "-1", "nan", "inf")),
                 "--seed": (("0", "1", "18446744073709551616"), ("-1",))}

# every warning is an error; deprecations stay warnings, as hypothesis's own
# failure report imports a deprecated module
pytestmark = pytest.mark.filterwarnings("error", "default::DeprecationWarning")


@st.composite
def tensors(draw):
    g = [[0.0] * 3 for _ in range(3)]
    for slot in draw(st.lists(st.integers(0, 8), min_size=1, max_size=2, unique=True)):
        g[slot // 3][slot % 3] = draw(st.sampled_from(COUPLINGS))
    return g


def _reversed(entry):
    """The same edge listed as (j, i), its tensor transposed."""
    return {"i": entry["j"], "j": entry["i"], "g": [list(col) for col in zip(*entry["g"])]}


@st.composite
def networks(draw, n):
    """A preset, or a chain plus up to two chords with sparse coupling tensors,
    some edges listed either way round and sometimes one pair listed twice."""
    if draw(st.booleans()):
        return {"preset": draw(st.sampled_from(["ising_chain", "heisenberg_chain", "star"])),
                "n": n, "J": draw(st.sampled_from(COUPLINGS))}
    pairs = {(k, k + 1) for k in range(n - 1)}
    if n > 2:
        pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 3), st.integers(2, n - 1))
                                   .filter(lambda e: e[1] > e[0] + 1), max_size=2)))
    entries = [{"i": i, "j": j, "g": draw(tensors())} for i, j in sorted(pairs)]
    entries = [_reversed(e) if draw(st.booleans()) else e for e in entries]
    if entries and draw(st.integers(0, 7)) == 0:
        repeat = draw(st.sampled_from(entries))
        entries.append(_reversed(repeat) if draw(st.booleans()) else repeat)
    return {"n": n, "edges": entries}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 6))
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=3,
                          unique=True))
    terms = [{"coeff": draw(st.sampled_from(COEFFS)), "pauli": w} for w in words]
    depth_arg = draw(st.sampled_from(["--table"] + words))
    return (draw(networks(n)), terms, draw(st.sampled_from(EPSILONS)), depth_arg,
            draw(st.sampled_from(TIMES)))


@st.composite
def compare_flags(draw):
    """Each flag out of domain one time in four, so most calls run to the end."""
    argv = []
    for flag, (valid, invalid) in COMPARE_FLAGS.items():
        argv += [flag, draw(st.sampled_from(invalid if draw(st.integers(0, 3)) == 0 else valid))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in output")


def _run(argv):
    """Exit code and stdout of one call, which must end in a documented way
    within the time limit."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - t0 < CALL_SECONDS, argv
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    return code, out.getvalue()


def _finite_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _finite_csv(text):
    """Every field after the header row is a finite number."""
    for row in text.splitlines()[1:]:
        assert all(math.isfinite(float(field)) for field in row.split(",")), row


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(cases())
def test_cli_ends_in_a_documented_exit_code(case):
    net, terms, eps, depth_arg, time_arg = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        net_path, target_path, schedule_path = (
            str(tmp / "net.json"), str(tmp / "target.json"), str(tmp / "s.json"))
        Path(net_path).write_text(json.dumps(net))
        Path(target_path).write_text(json.dumps(terms))
        common = [net_path, target_path, "--epsilon", repr(eps)]

        code, out = _run(["bound", *common, "--exact-depths"])
        if code == 0:
            _finite_json(out)
        code, _ = _run(["synth", *common, "-o", schedule_path])
        if code == 0:
            _finite_json(Path(schedule_path).read_text())
        code, out = _run(["verify", *common])
        if code in (0, 4):
            _finite_json(out)
        if Path(schedule_path).exists():
            code, out = _run(["verify", *common, "--schedule", schedule_path])
            if code in (0, 4):
                _finite_json(out)
        code, out = _run(["depth", net_path, depth_arg])
        if code == 0:
            _finite_json(out)
        for argv in (["grape", net_path, target_path, "--time", time_arg],
                     ["scan", net_path, target_path, "--times", f"{time_arg},1"]):
            code, out = _run([*argv, *GRAPE_FLAGS])
            if code == 0:
                _finite_csv(out)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.sampled_from(["3spin-ising", "4spin-heisenberg"]), compare_flags(), st.booleans())
def test_compare_ends_in_a_documented_exit_code(case, flags, with_pulses):
    with tempfile.TemporaryDirectory() as tmp:
        pulses_path = Path(tmp) / "pulses.csv"
        argv = ["compare", "--case", case, *flags]
        code, out = _run(argv + (["--pulses", str(pulses_path)] if with_pulses else []))
        if code != 0:
            return
        header, row, *rest = out.splitlines()
        assert not rest and header == "case,T_exact,T_bound,T_grape,grape_infidelity,converged"
        name, t_exact, *numbers, converged = row.split(",")
        assert name == case and converged in ("true", "false")
        # the exact minimum is known for 3 spins only; 4 spins print nan
        assert math.isfinite(float(t_exact)) == (case == "3spin-ising")
        assert all(math.isfinite(float(x)) for x in numbers), row
        if with_pulses:
            _finite_csv(pulses_path.read_text())

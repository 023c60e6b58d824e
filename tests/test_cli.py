"""Command-line interface: exit codes, file formats, determinism."""

import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gatebound
from gatebound.bounds import load_spec
from gatebound.cli import main
from gatebound.network import load_network
from gatebound.pauli import PauliString, format_pauli
from gatebound.synthesis import load_schedule, save_schedule, schedule_to_dict, synth_generator

from helpers import random_connected_network, random_spec, replay_witness, vu_listing

THREE_PATH = {
    "n": 3,
    "control_model": "full_local",
    "edges": [
        {"i": 0, "j": 1, "g": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]},
        {"i": 1, "j": 2, "g": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]},
    ],
}


@pytest.fixture
def three_path(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(THREE_PATH))
    return str(path)


@pytest.fixture
def zzz_target(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps([{"coeff": math.pi / 4, "pauli": "ZZZ"}]))
    return str(path)


def test_bound_single_term(three_path, zzz_target, capsys):
    rc = main(["bound", three_path, zzz_target, "--epsilon", "0.05",
               "--exact-depths"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coarse_bound"] is None
    assert data["per_term_bounds"][0] == pytest.approx(3 * math.pi / 4)
    assert data["depths"] == [1]


def test_bound_parse_error_exit_2(three_path, tmp_path, capsys):
    bad = tmp_path / "bad_target.json"
    bad.write_text(json.dumps([{"coeff": 1.0, "pauli": "ZQZ"}]))
    assert main(["bound", three_path, str(bad), "--epsilon", "0.05"]) == 2


def test_bound_domain_error_exit_3(three_path, zzz_target):
    assert main(["bound", three_path, zzz_target, "--epsilon", "-1"]) == 3


def test_missing_file_exit_2(zzz_target):
    assert main(["bound", "nope.json", zzz_target, "--epsilon", "0.1"]) == 2


@pytest.mark.parametrize("argv", [
    ["bound", "{dir}", "{target}", "--epsilon", "0.05"],
    ["bound", "{net}", "{dir}", "--epsilon", "0.05"],
    ["verify", "{net}", "{target}", "--epsilon", "0.05", "--schedule", "{dir}"],
    ["bound", "{net}", "{target}", "--epsilon", "0.05", "-o", "{dir}"],
], ids=["graph", "target", "schedule", "output"])
def test_directory_in_place_of_a_file_exit_2(argv, three_path, zzz_target,
                                             tmp_path, capsys):
    paths = {"dir": str(tmp_path), "net": three_path, "target": zzz_target}
    assert main([a.format(**paths) for a in argv]) == 2
    assert "parse error" in capsys.readouterr().err


def test_depth_table_five_path(tmp_path, capsys):
    net = tmp_path / "p5.json"
    net.write_text(json.dumps({
        "n": 5, "edges": [
            {"i": k, "j": k + 1, "g": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]}
            for k in range(4)
        ],
    }))
    assert main(["depth", str(net), "--table"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["max_depth"] == 6


def test_depth_table_on_twenty_qubits_is_fast(tmp_path, capsys):
    net = tmp_path / "net20.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 20, "J": 1.0}))
    start = time.perf_counter()
    assert main(["depth", str(net), "--table"]) == 0
    assert time.perf_counter() - start < 3.0
    data = json.loads(capsys.readouterr().out)
    assert data["max_depth"] == data["per_weight"]["2"] == 36
    assert data["per_weight"]["20"] == 18
    net.write_text(json.dumps({"preset": "ising_chain", "n": 21, "J": 1.0}))
    assert main(["depth", str(net), "--table"]) == 3
    assert "21 qubits exceed the 20-qubit table cap" in _one_line_error(capsys)


def test_depth_single_words(three_path, capsys):
    assert main(["depth", three_path, "ZZI"]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == 0
    assert main(["depth", three_path, "IXI"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["local"] is True and data["depth"] == 0
    assert main(["depth", three_path, "ZIZ"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["depth"] == 2
    assert [s["kind"] for s in data["witness"]] == ["grow", "shrink"]


def test_synth_then_verify_pass(three_path, zzz_target, tmp_path, capsys):
    out = tmp_path / "schedule.json"
    assert main(["synth", three_path, zzz_target, "--epsilon", "0.05",
                 "-o", str(out)]) == 0
    schedule = load_schedule(out)
    assert schedule.total_duration == pytest.approx(3 * math.pi / 4)
    rc = main(["verify", three_path, zzz_target, "--epsilon", "0.05",
               "--schedule", str(out)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["gate_infidelity"] < 1e-9
    assert data["total_duration"] <= data["bound"] + 1e-9


def test_verify_detects_tampered_schedule(three_path, zzz_target, tmp_path, capsys):
    out = tmp_path / "schedule.json"
    main(["synth", three_path, zzz_target, "--epsilon", "0.05", "-o", str(out)])
    data = json.loads(out.read_text())
    for prim in data["primitives"]:
        if prim["kind"] == "two_body":
            prim["angle"] = prim["angle"] + 40.0
            prim["duration"] = prim["angle"]
    (tmp_path / "tampered.json").write_text(json.dumps(data))
    rc = main(["verify", three_path, zzz_target, "--epsilon", "0.05",
               "--schedule", str(tmp_path / "tampered.json")])
    assert rc == 4
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_verify_multi_term(three_path, tmp_path, capsys):
    target = tmp_path / "multi.json"
    target.write_text(json.dumps([
        {"coeff": 0.6, "pauli": "ZZI"},
        {"coeff": 0.4, "pauli": "XZI"},
    ]))
    rc = main(["verify", three_path, str(target), "--epsilon", "0.05"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["normalized_error"] <= 0.05 + 1e-9


def test_grape_deterministic_csv(tmp_path, capsys):
    net = tmp_path / "net2.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 2, "J": 1.0}))
    target = tmp_path / "t.json"
    target.write_text(json.dumps([{"coeff": 0.7, "pauli": "ZZ"}]))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["grape", str(net), str(target), "--time", "1.0",
                   "--slices", "8", "--restarts", "1", "--max-iters", "60",
                   "--seed", "9", "-o", str(out)])
        assert rc == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "slice,t_start,u_1,u_2,u_3,u_4"


def test_scan_csv(tmp_path):
    net = tmp_path / "net2.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 2, "J": 1.0}))
    target = tmp_path / "t.json"
    target.write_text(json.dumps([{"coeff": 0.7, "pauli": "ZZ"}]))
    out = tmp_path / "scan.csv"
    rc = main(["scan", str(net), str(target), "--times", "0.4,0.8",
               "--slices", "8", "--restarts", "1", "--max-iters", "40",
               "--seed", "2", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T,best_infidelity,iterations,restart_index"
    assert len(lines) == 3


@pytest.mark.parametrize("argv", [["grape", "--time", "nan"], ["grape", "--time", "inf"],
                                  ["scan", "--times", "1,nan"]],
                         ids=["grape-nan", "grape-inf", "scan-nan"])
def test_non_finite_duration_is_one_line_error(tmp_path, capsys, argv):
    net = tmp_path / "net2.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 2, "J": 1.0}))
    target = tmp_path / "t.json"
    target.write_text(json.dumps([{"coeff": 0.7, "pauli": "ZZ"}]))
    rc = main([argv[0], str(net), str(target), *argv[1:], "--slices", "8",
               "--restarts", "1", "--max-iters", "10", "--seed", "2"])
    assert rc == 3
    assert "finite" in _one_line_error(capsys)


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"],
                                   ["--max-iters", "0"], ["--max-iters", "-5"]],
                         ids=["tol-nan", "tol-inf", "tol-0", "iters-0", "iters-neg"])
@pytest.mark.parametrize("command", [["grape", "--time", "1.0"],
                                     ["scan", "--times", "0.5,1.0"]],
                         ids=["grape", "scan"])
def test_bad_stopping_rule_is_one_line_error(tmp_path, capsys, command, flags):
    net = tmp_path / "net2.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 2, "J": 1.0}))
    target = tmp_path / "t.json"
    target.write_text(json.dumps([{"coeff": 0.7, "pauli": "ZZ"}]))
    rc = main([command[0], str(net), str(target), *command[1:], "--slices", "8",
               "--restarts", "1", "--seed", "2", *flags])
    assert rc == 3
    assert "domain error" in _one_line_error(capsys)


def test_huge_slice_count_is_refused_before_allocating(tmp_path, capsys):
    net = tmp_path / "net2.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 2, "J": 1.0}))
    target = tmp_path / "t.json"
    target.write_text(json.dumps([{"coeff": 0.7, "pauli": "ZZ"}]))
    start = time.perf_counter()
    rc = main(["grape", str(net), str(target), "--time", "1.0",
               "--slices", "100000000", "--seed", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert "cap" in _one_line_error(capsys)


def test_scan_checks_every_time_before_optimizing(tmp_path, capsys):
    # 3-spin ZZZ with the default slices and restarts: T = 0.5 alone takes
    # seconds, so a rejection within 1 s means no optimization ran
    net = tmp_path / "net3.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 3, "J": 1.0}))
    target = tmp_path / "t.json"
    target.write_text(json.dumps([{"coeff": -math.pi / 4, "pauli": "ZZZ"}]))
    start = time.perf_counter()
    rc = main(["scan", str(net), str(target), "--times", "0.5,nan", "--seed", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert "finite" in _one_line_error(capsys)


def test_compare_three_spin(tmp_path, capsys):
    out = tmp_path / "row.csv"
    rc = main(["compare", "--case", "3spin-ising", "--seed", "3",
               "--max-iters", "400", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("case,T_exact,T_bound,T_grape")
    fields = lines[1].split(",")
    assert float(fields[1]) == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
    assert float(fields[2]) == pytest.approx(1.5, abs=1e-9)
    assert float(fields[3]) == pytest.approx(0.9)
    assert fields[5] == "true"


def test_compare_four_spin_row_wiring(tmp_path):
    # a short run checks the emitted columns without waiting on convergence
    # (the full-threshold optimization is covered by the acceptance suite)
    out = tmp_path / "row4.csv"
    rc = main(["compare", "--case", "4spin-heisenberg", "--seed", "0",
               "--restarts", "1", "--max-iters", "15", "-o", str(out),
               "--pulses", str(tmp_path / "p.csv")])
    assert rc == 0
    fields = out.read_text().strip().splitlines()[1].split(",")
    assert fields[1] == "nan"  # no known exact value for the 4-spin chain
    assert float(fields[2]) == pytest.approx(2.5, abs=1e-9)
    assert float(fields[3]) == pytest.approx(2.0)
    assert fields[5] in ("true", "false")
    assert (tmp_path / "p.csv").read_text().startswith("slice,t_start,u_1")


SMALL_GRAPE = ["--slices", "4", "--restarts", "1", "--max-iters", "5"]


@pytest.mark.parametrize("argv", [
    ["bound", "{net}", "{target}", "--epsilon", "0.05"],
    ["depth", "{net}", "ZZZ"],
    ["synth", "{net}", "{target}", "--epsilon", "0.05"],
    ["verify", "{net}", "{target}", "--epsilon", "0.05"],
    ["grape", "{net}", "{target}", "--time", "1.0", *SMALL_GRAPE],
    ["scan", "{net}", "{target}", "--times", "0.5,1.0", *SMALL_GRAPE],
    ["compare", "--case", "3spin-ising", *SMALL_GRAPE],
], ids=lambda argv: argv[0])
def test_output_file_holds_the_bytes_written_to_stdout(argv, three_path, zzz_target,
                                                        tmp_path, capsys):
    argv = [a.format(net=three_path, target=zzz_target) for a in argv]
    stdout = []
    for flags in ([], ["-o", "-"]):
        assert main(argv + flags) == 0
        stdout.append(capsys.readouterr().out)
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout[0].encode() == stdout[1].encode()


def test_compare_pulses_dash_is_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--case", "3spin-ising", *SMALL_GRAPE, "--pulses", "-"]) == 0
    assert not (tmp_path / "-").exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("case,T_exact,")
    assert lines[2].startswith("slice,t_start,")


def test_depth_payload_has_no_exact_flag(three_path, capsys):
    assert main(["depth", three_path, "ZZZ"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["depth"] == 1 and "exact" not in data


def test_bound_exact_depths_on_100_qubit_chain(tmp_path, capsys):
    n = 100
    net = tmp_path / "chain100.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": n, "J": 1.0}))
    rng = np.random.default_rng(100)
    terms = []
    for weight in range(2, 7):
        for _ in range(4):
            support = rng.choice(n, size=weight, replace=False)
            mask = sum(1 << int(q) for q in support)
            terms.append({"coeff": float(rng.uniform(0.1, 1.0)),
                          "pauli": format_pauli(PauliString(n, mask, 0))})
    target = tmp_path / "words.json"
    target.write_text(json.dumps(terms))
    t0 = time.perf_counter()
    rc = main(["bound", str(net), str(target), "--epsilon", "0.05",
               "--exact-depths"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert elapsed < 2.0
    # on a chain the depth is 2*span - weight - 2, span = qubits between the ends
    for term, d in zip(terms, data["depths"]):
        qubits = [q for q, ch in enumerate(term["pauli"]) if ch != "I"]
        span = qubits[-1] - qubits[0] + 1
        assert d == 2 * span - len(qubits) - 2


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.5"])
def test_bad_epsilon_is_one_line_error(three_path, zzz_target, eps, capsys):
    rc = main(["bound", three_path, zzz_target, "--epsilon", eps])
    assert rc in (2, 3)
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1


def test_preset_with_non_numeric_coupling_exit_2(zzz_target, tmp_path):
    net = tmp_path / "bad_j.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 3, "J": "abc"}))
    assert main(["bound", str(net), zzz_target, "--epsilon", "0.05"]) == 2


def test_preset_above_the_qubit_cap_exit_3(zzz_target, tmp_path, capsys):
    net = tmp_path / "big.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 10_001}))
    assert main(["bound", str(net), zzz_target, "--epsilon", "0.05"]) == 3
    assert "10000-qubit preset cap" in _one_line_error(capsys)


def test_huge_coefficients_exit_3(three_path, tmp_path):
    target = tmp_path / "huge.json"
    target.write_text(json.dumps([{"coeff": 1e300, "pauli": "XZI"},
                                  {"coeff": 1e300, "pauli": "ZZI"}]))
    assert main(["bound", three_path, str(target), "--epsilon", "0.05"]) == 3


_SCIPY_PROBE = """
import sys
import gatebound as gb
from gatebound.cli import main

net, target, schedule = sys.argv[1:]
assert [main(argv) for argv in (
    ["bound", net, target, "--epsilon", "0.05"],
    ["depth", net, "ZIZ"],
    ["synth", net, target, "--epsilon", "0.05", "-o", schedule],
    ["verify", net, target, "--epsilon", "0.05", "--schedule", schedule],
)] == [0, 0, 0, 0]
loaded = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
assert not loaded, loaded
zz = gb.target_unitary(gb.GeneratorSpec(((0.7, gb.parse_pauli("ZZ")),)))
gb.optimize(gb.ising_chain(2), zz, 1.0, N=4, max_iters=3)
assert "scipy.optimize" in sys.modules
"""


def test_scipy_loads_only_when_a_pulse_is_optimized(three_path, zzz_target,
                                                     tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(gatebound.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, three_path, zzz_target,
         str(tmp_path / "s.json")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_pipe_exits_quietly(three_path, zzz_target):
    env = dict(os.environ,
               PYTHONPATH=str(Path(gatebound.__file__).resolve().parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gatebound.cli", "bound", three_path,
             zzz_target, "--epsilon", "0.05"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def _one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    return captured.err


def test_huge_repeat_count_synthesizes_and_verifies(three_path, tmp_path, capsys):
    target = tmp_path / "two.json"
    target.write_text(json.dumps([{"coeff": 0.5, "pauli": "ZZI"},
                                  {"coeff": 0.5, "pauli": "XII"}]))
    out = tmp_path / "schedule.json"
    t0 = time.perf_counter()
    assert main(["synth", three_path, str(target), "--epsilon", "1e-9",
                 "-o", str(out)]) == 0
    assert main(["verify", three_path, str(target), "--epsilon", "1e-9",
                 "--schedule", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True and data["trotter_steps"] == 176_776_696
    assert json.loads(out.read_text())["repeat"] == 176_776_696
    assert elapsed < 2.0


def test_long_repeat_infidelity_is_not_negative(three_path, tmp_path, capsys):
    # m = 176,776,696: the rounded power is slightly off unitary
    target = tmp_path / "two.json"
    target.write_text(json.dumps([{"coeff": 0.5, "pauli": "ZZI"},
                                  {"coeff": 0.5, "pauli": "XII"}]))
    assert main(["verify", three_path, str(target), "--epsilon", "1e-9"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trotter_steps"] == 176_776_696
    assert 0.0 <= data["gate_infidelity"] < 1e-9


def test_verify_without_unitarity_gives_no_verdict(three_path, tmp_path, capsys):
    # m = 7.07e14: rounding in the power of the pass unitary swamps epsilon
    target = tmp_path / "mega.json"
    target.write_text(json.dumps([{"coeff": 1e6, "pauli": "ZZI"},
                                  {"coeff": 1e6, "pauli": "XII"}]))
    assert main(["verify", three_path, str(target), "--epsilon", "1e-3"]) == 3
    assert "unitarity" in _one_line_error(capsys)


def test_verify_gives_no_verdict_past_the_dense_target_resolution(tmp_path, capsys):
    # the words commute, so the schedule is exact; the eigendecomposed target
    # is off by about 5e-16 * ||a||_1, far past epsilon.  One term is closed form.
    net, target = tmp_path / "net.json", tmp_path / "target.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 6, "J": 1e308}))
    terms = [{"coeff": 1e300, "pauli": "IZIZXX"}, {"coeff": 0.5, "pauli": "XYXYIX"},
             {"coeff": -1.25, "pauli": "XXXIXZ"}]
    target.write_text(json.dumps(terms))
    assert main(["verify", str(net), str(target), "--epsilon", "0.05"]) == 3
    assert _one_line_error(capsys).startswith("domain error: the dense target")
    target.write_text(json.dumps(terms[:1]))
    assert main(["verify", str(net), str(target), "--epsilon", "0.05"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_verify_checks_the_resolution_before_building_the_target(tmp_path, capsys,
                                                                 monkeypatch):
    import gatebound.simulator as sim

    def refuse(*args, **kwargs):
        raise AssertionError("built a dense target that cannot resolve epsilon")

    monkeypatch.setattr(sim, "target_unitary", refuse)
    net, target = tmp_path / "net.json", tmp_path / "target.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 6, "J": 1e308}))
    target.write_text(json.dumps([{"coeff": 1e300, "pauli": "IZIZXX"},
                                  {"coeff": 0.5, "pauli": "XYXYIX"}]))
    assert main(["verify", str(net), str(target), "--epsilon", "0.05"]) == 3
    assert _one_line_error(capsys).startswith("domain error: the dense target")


def test_depth_word_and_table_together_is_a_parse_error(three_path, capsys):
    assert main(["depth", three_path, "ZZZ", "--table"]) == 2
    assert _one_line_error(capsys).startswith("parse error: ")


def test_depth_with_neither_word_nor_table_is_a_parse_error(three_path, capsys):
    assert main(["depth", three_path]) == 2
    assert _one_line_error(capsys) == "parse error: give a Pauli word or --table\n"


ZZ_EDGE = [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]
XX_MINUS_YY_EDGE = [[1.0, 0, 0], [0, -1.0, 0], [0, 0, 0]]


@pytest.mark.parametrize("g, coeff, sign, g_used", [
    (ZZ_EDGE, -0.5, "-", 1.0),           # the edge couples ZZ only
    (XX_MINUS_YY_EDGE, 0.5, "+", -1.0),  # g_used and sign borrowed from YY
], ids=["zz-edge", "yy-coupling"])
def test_verify_refuses_an_evolution_off_its_coupling_axes(tmp_path, capsys, g, coeff,
                                                           sign, g_used):
    net, target, sched = (tmp_path / name for name in ("net.json", "t.json", "s.json"))
    net.write_text(json.dumps({"n": 2, "edges": [{"i": 0, "j": 1, "g": g}]}))
    target.write_text(json.dumps([{"coeff": coeff, "pauli": "XX"}]))
    sched.write_text(json.dumps({"n": 2, "primitives": [
        {"kind": "two_body", "edge": [0, 1], "alpha": "x", "beta": "x", "sign": sign,
         "angle": 0.5, "g_used": g_used}]}))
    argv = ["verify", str(net), str(target), "--epsilon", "0.05", "--schedule", str(sched)]
    assert main(argv) == 3
    assert _one_line_error(capsys).startswith("domain error: evolution xx ")


@pytest.mark.parametrize("command", ["bound", "verify"])
def test_non_finite_results_are_a_domain_error(three_path, tmp_path, capsys, command):
    targets = [[{"coeff": 1e150, "pauli": "ZZI"}, {"coeff": 1.0, "pauli": "XII"}]]
    if command == "bound":
        # commuting terms give K = 0; only the coarse bound's |a|_inf**2 overflows
        targets.append([{"coeff": 1e200, "pauli": "ZZI"}, {"coeff": 1e200, "pauli": "IZZ"}])
    target = tmp_path / "big.json"
    for terms in targets:
        target.write_text(json.dumps(terms))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, three_path, str(target), "--epsilon", "1e-9"])
        assert rc == 3
        _one_line_error(capsys)


@pytest.mark.parametrize("repeat", [0, -1, 2.5, True, "3"])
def test_bad_repeat_is_a_parse_error(three_path, zzz_target, tmp_path, capsys, repeat):
    out = tmp_path / "schedule.json"
    assert main(["synth", three_path, zzz_target, "--epsilon", "0.05", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    data["repeat"] = repeat
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", three_path, zzz_target, "--epsilon", "0.05",
                 "--schedule", str(out)]) == 2
    _one_line_error(capsys)


def test_repeat_past_the_largest_float_is_a_parse_error(three_path, zzz_target, tmp_path,
                                                        capsys):
    # the duration is the repeat times a float, which 10**400 would overflow
    out = tmp_path / "schedule.json"
    assert main(["synth", three_path, zzz_target, "--epsilon", "0.05", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    data["repeat"] = 10**400
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", three_path, zzz_target, "--epsilon", "0.05",
                 "--schedule", str(out)]) == 2
    assert "repeat" in _one_line_error(capsys)


@pytest.mark.parametrize("net", [
    {"n": 3, "edges": [{"i": 0.9, "j": 1, "g": THREE_PATH["edges"][0]["g"]},
                       THREE_PATH["edges"][1]]},
    {"n": 3, "edges": [{"i": True, "j": 2, "g": THREE_PATH["edges"][1]["g"]},
                       THREE_PATH["edges"][0]]},
    {"n": "3", "edges": THREE_PATH["edges"]},
    {"preset": "ising_chain", "n": 3.9},
], ids=["float-edge-index", "bool-edge-index", "string-n", "float-preset-n"])
def test_non_integer_network_field_is_a_parse_error(net, zzz_target, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    assert main(["bound", str(path), zzz_target, "--epsilon", "0.05"]) == 2
    assert _one_line_error(capsys).startswith("parse error: ")


@pytest.mark.parametrize("field", ["n", "qubit", "edge"])
def test_non_integer_schedule_field_is_a_parse_error(field, three_path, zzz_target, tmp_path,
                                                     capsys):
    # a truncated float once verified as the integer below it
    out = tmp_path / "schedule.json"
    assert main(["synth", three_path, zzz_target, "--epsilon", "0.05", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    if field == "n":
        data["n"] += 0.5
    else:
        kind = "local" if field == "qubit" else "two_body"
        entry = next(p for p in data["primitives"] if p["kind"] == kind)
        if field == "qubit":
            entry["qubit"] += 0.4
        else:
            entry["edge"][0] = float(entry["edge"][0])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", three_path, zzz_target, "--epsilon", "0.05",
                 "--schedule", str(out)]) == 2
    assert _one_line_error(capsys).startswith("parse error: ")


@pytest.mark.parametrize("literal", ["1" * 5000, "NaN", "-Infinity", "1e999"],
                         ids=["5000-digits", "nan", "-inf", "1e999"])
@pytest.mark.parametrize("kind", ["net", "target", "schedule"])
def test_unreadable_number_is_a_parse_error(three_path, zzz_target, tmp_path, capsys,
                                            kind, literal):
    paths = {"net": three_path, "target": zzz_target,
             "schedule": str(tmp_path / "schedule.json")}
    bad = tmp_path / "bad.json"
    if kind == "net":
        bad.write_text(f'{{"preset": "ising_chain", "n": 3, "J": {literal}}}')
    elif kind == "target":
        bad.write_text(f'[{{"coeff": {literal}, "pauli": "ZZZ"}}]')
    else:
        bad.write_text(f'{{"n": 3, "primitives": [{{"kind": "local", "qubit": 0, '
                       f'"axis": [1.0, 0.0, 0.0], "angle": {literal}}}]}}')
    paths[kind] = str(bad)
    assert main(["verify", paths["net"], paths["target"], "--epsilon", "0.05",
                 "--schedule", paths["schedule"]]) == 2
    assert "invalid JSON" in _one_line_error(capsys)


def _set_first(kind, key, value):
    """Set ``key`` to ``value`` in the first schedule primitive of ``kind``."""
    def mutate(data):
        next(p for p in data["primitives"] if p["kind"] == kind)[key] = value
    return mutate


@pytest.mark.parametrize("kind, mutate", [
    ("target", lambda t: t[0].update(coeff=True)),
    ("target", lambda t: t[0].update(coeff="0.5")),
    ("target", lambda t: t[0].update(coeff=10**400)),
    ("preset", lambda d: d.update(J="2")),
    ("preset", lambda d: d.update(J=True)),
    ("net", lambda d: d["edges"][0]["g"][2].__setitem__(2, "1.5")),
    ("net", lambda d: d["edges"][0]["g"][2].__setitem__(2, True)),
    ("net", lambda d: d.update(omega=[["2", 0, 0], [0, 0, 0], [0, 0, 0]])),
    ("net", lambda d: d.update(omega=[[0, 0], [0, 0, 0], [0, 0, 0]])),
    ("schedule", _set_first("two_body", "g_used", "1.0")),
    ("schedule", _set_first("two_body", "angle", str(math.pi / 4))),
    ("schedule", _set_first("local", "angle", "inf")),
    ("schedule", _set_first("local", "axis", ["1.0", 0.0, 0.0])),
], ids=["bool-coeff", "string-coeff", "coeff-past-float", "string-J", "bool-J",
        "string-g", "bool-g", "string-omega", "ragged-omega", "string-g_used",
        "string-two-body-angle", "string-inf-angle", "string-axis"])
def test_non_number_field_is_a_parse_error(three_path, zzz_target, tmp_path, capsys,
                                           kind, mutate):
    # a string, a bool or an integer past the largest float is not a JSON
    # number, though float() or numpy's float conversion took most of them
    paths = {"net": three_path, "target": zzz_target, "schedule": str(tmp_path / "s.json")}
    assert main(["synth", three_path, zzz_target, "--epsilon", "0.05",
                 "-o", paths["schedule"]]) == 0
    data = {"net": dict(THREE_PATH, omega=[[0.0] * 3] * 3),
            "preset": {"preset": "ising_chain", "n": 3, "J": 1.0},
            "target": [{"coeff": math.pi / 4, "pauli": "ZZZ"}],
            "schedule": json.loads(Path(paths["schedule"]).read_text())}[kind]
    data = json.loads(json.dumps(data))
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    paths["net" if kind == "preset" else kind] = str(bad)
    capsys.readouterr()
    assert main(["verify", paths["net"], paths["target"], "--epsilon", "0.05",
                 "--schedule", paths["schedule"]]) == 2
    assert _one_line_error(capsys).startswith("parse error: ")


@pytest.mark.parametrize("mutate", [
    _set_first("two_body", "sign", "x"),
    _set_first("two_body", "sign", True),
    _set_first("two_body", "sign", None),
    _set_first("two_body", "sign", 1),
    _set_first("two_body", "edge", [0, 1, 7]),
    _set_first("local", "axis", [1.0, 0.0, 0.0, 0.0]),
], ids=["sign-x", "sign-true", "sign-null", "sign-1", "three-entry-edge", "four-entry-axis"])
def test_malformed_primitive_is_a_parse_error(three_path, zzz_target, tmp_path, capsys,
                                              mutate):
    # a sign other than "+" or "-" once read as "-", which the ZZZ certificate
    # uses, and an edge's third entry was dropped: both verified with exit 0
    schedule = tmp_path / "s.json"
    assert main(["synth", three_path, zzz_target, "--epsilon", "0.05", "-o", str(schedule)]) == 0
    data = json.loads(schedule.read_text())
    mutate(data)
    schedule.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", three_path, zzz_target, "--epsilon", "0.05",
                 "--schedule", str(schedule)]) == 2
    assert _one_line_error(capsys).startswith("parse error: ")


@pytest.mark.parametrize("mutate, message", [
    (_set_first("two_body", "angle", -0.5),
     "angle must be finite and >= 0 (flip the sign), got -0.5"),
    (_set_first("two_body", "g_used", 0.0), "g_used must be nonzero"),
    (_set_first("two_body", "alpha", "Z"), "axes must be one of x, y, z"),
], ids=["negative-angle", "zero-coupling", "label-Z"])
def test_evolution_outside_its_domain_exits_3_with_its_reason(three_path, zzz_target, tmp_path,
                                                              capsys, mutate, message):
    # each once exited 2 as a malformed primitive, its reason lost
    schedule = tmp_path / "s.json"
    assert main(["synth", three_path, zzz_target, "--epsilon", "0.05", "-o", str(schedule)]) == 0
    data = json.loads(schedule.read_text())
    mutate(data)
    schedule.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", three_path, zzz_target, "--epsilon", "0.05",
                 "--schedule", str(schedule)]) == 3
    assert _one_line_error(capsys) == f"domain error: {message}\n"


def test_unknown_primitive_kind_is_named(three_path, zzz_target, tmp_path, capsys):
    schedule = tmp_path / "s.json"
    assert main(["synth", three_path, zzz_target, "--epsilon", "0.05", "-o", str(schedule)]) == 0
    data = json.loads(schedule.read_text())
    data["primitives"][0]["kind"] = "warp"
    schedule.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", three_path, zzz_target, "--epsilon", "0.05",
                 "--schedule", str(schedule)]) == 2
    assert _one_line_error(capsys) == "parse error: unknown primitive kind 'warp'\n"


@pytest.mark.parametrize("argv, message", [
    (["bound", "[1, 2]", "TARGET", "--epsilon", "0.05"], "network description must be a JSON object"),
    (["bound", "NET", '{"coeff": 0.5, "pauli": "ZZZ"}', "--epsilon", "0.05"],
     "generator JSON must be a list of terms"),
    (["scan", "NET", "TARGET", "--times", "0.5,abc"], "cannot parse time list '0.5,abc'"),
    (["scan", "NET", "TARGET", "--times", ","], "cannot parse time list ','"),
    # each of these six once ended in a TypeError traceback
    (["verify", "NET", "TARGET", "--epsilon", "0.05", "--schedule", '{"n": 3, "primitives": 5}'],
     "schedule JSON needs an integer 'n' and 'primitives'"),
    (["verify", "NET", "TARGET", "--epsilon", "0.05", "--schedule",
      '{"n": 3, "primitives": null}'], "schedule JSON needs an integer 'n' and 'primitives'"),
    (["bound", '{"n": 3, "edges": 5}', "TARGET", "--epsilon", "0.05"],
     "network JSON needs integer 'n', 'edges'"),
    (["bound", '{"n": 3, "edges": null}', "TARGET", "--epsilon", "0.05"],
     "network JSON needs integer 'n', 'edges'"),
    (["bound", '{"preset": ["x"], "n": 3}', "TARGET", "--epsilon", "0.05"], "unknown preset ['x']"),
    (["bound", '{"preset": {"a": 1}, "n": 3}', "TARGET", "--epsilon", "0.05"],
     "unknown preset {'a': 1}"),
    (["bound", "NET", '[{"coeff": 0.5, "pauli": 5}]', "--epsilon", "0.05"],
     "a Pauli word must be a string"),
], ids=["network-list", "target-object", "scan-times", "scan-no-times", "primitives-number",
        "primitives-null", "edges-number", "edges-null", "preset-list", "preset-object",
        "pauli-number"])
def test_input_of_the_wrong_form_is_a_parse_error(three_path, zzz_target, tmp_path, capsys,
                                                  argv, message):
    paths = {"NET": three_path, "TARGET": zzz_target}
    for k, arg in enumerate(argv):
        if arg[0] in "[{":
            paths[arg] = str(tmp_path / f"arg{k}.json")
            Path(paths[arg]).write_text(arg)
    assert main([paths.get(a, a) for a in argv]) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("command, mutate, message", [
    ("bound", lambda d: d.update(control_model="foo"), "unknown control model 'foo'"),
    ("bound", lambda d: d["edges"][1].update(i=0, j=5), "edge (0,5) outside 0..2"),
    ("bound", lambda d: d["edges"][0].update(g=[[0, 0], [0, 1.0]]),
     "edge (0,1) coupling tensor is not 3x3"),
    ("grape", lambda d: d.update(omega=[[0.0] * 3] * 2), "omega must have shape (3, 3)"),
], ids=["control-model", "edge-past-n", "two-by-two-tensor", "grape-omega-shape"])
def test_network_outside_its_domain_exits_3(zzz_target, tmp_path, capsys, command, mutate,
                                            message):
    data = json.loads(json.dumps(THREE_PATH))
    mutate(data)
    net = tmp_path / "net.json"
    net.write_text(json.dumps(data))
    flags = {"bound": ["--epsilon", "0.05"], "grape": ["--time", "1.0", "--slices", "4"]}
    assert main([command, str(net), zzz_target, *flags[command]]) == 3
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("net, word, message", [
    ({"preset": "star", "n": 3}, "IXI", "star_term_bound"),
    ({"preset": "ising_chain", "n": 3}, "IIIIIX", "word on 6 qubits does not match network of 3"),
], ids=["star", "six-qubit-word"])
def test_depth_checks_a_weight_one_word_as_any_other(tmp_path, capsys, net, word, message):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    assert main(["depth", str(path), word]) == 3
    local_error = _one_line_error(capsys)
    assert message in local_error
    heavier = word[:-2] + "XX"
    assert main(["depth", str(path), heavier]) == 3
    assert _one_line_error(capsys) == local_error


@pytest.mark.parametrize("command, flags", [("grape", ["--time", "1.0"]),
                                            ("scan", ["--times", "0.5,1.0"])])
def test_overflowing_target_is_one_domain_error_line(tmp_path, capsys, command, flags):
    # the dense target sum 1e308*ZI + 1e308*IZ overflows before any pulse is tried
    net, target = tmp_path / "net.json", tmp_path / "target.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 2, "J": 1.0}))
    target.write_text(json.dumps([{"coeff": 1e308, "pauli": "ZI"},
                                  {"coeff": 1e308, "pauli": "IZ"}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, str(net), str(target), *flags, "--slices", "4", "--max-iters", "5"])
    assert rc == 3
    assert _one_line_error(capsys).startswith("domain error: target generator overflows")


FOUR_TERMS = [{"coeff": 0.6, "pauli": "ZZI"}, {"coeff": -0.4, "pauli": "XZI"},
              {"coeff": 0.3, "pauli": "IYX"}, {"coeff": 0.25, "pauli": "ZXZ"}]


@pytest.mark.parametrize("terms", [[{"coeff": math.pi / 4, "pauli": "ZZZ"}], FOUR_TERMS],
                         ids=["zzz", "four-terms"])
def test_synth_file_is_the_save_schedule_bytes(three_path, tmp_path, terms):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(terms))
    out, ref = tmp_path / "cli.json", tmp_path / "lib.json"
    assert main(["synth", three_path, str(target), "--epsilon", "0.05", "-o", str(out)]) == 0
    schedule, _ = synth_generator(load_network(three_path), load_spec(target), 0.05)
    save_schedule(schedule, ref)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("net, terms, depths", [
    ({"n": 6, "edges": [{"i": i, "j": (i + 1) % 6, "g": ZZ_EDGE} for i in range(6)]},
     [{"coeff": 0.4, "pauli": "XIIZII"}, {"coeff": -0.3, "pauli": "ZZIIIY"}], [4, 1]),
    ({"preset": "ising_chain", "n": 10, "J": 1.0}, [{"coeff": 0.5, "pauli": "XYZZYXXYZX"}], [8]),
], ids=["six-ring", "ten-qubit-word"])
def test_commands_agree_on_one_generator(tmp_path, capsys, net, terms, depths):
    # verify of the synth file is verify with fresh synthesis, byte for byte,
    # and bound --exact-depths reports the depth command's depths
    graph, target, schedule = (tmp_path / name for name in ("net.json", "t.json", "s.json"))
    graph.write_text(json.dumps(net))
    target.write_text(json.dumps(terms))
    common = [str(graph), str(target), "--epsilon", "0.05"]
    start = time.perf_counter()
    assert main(["synth", *common, "-o", str(schedule)]) == 0
    capsys.readouterr()
    verified = []
    for argv in (["verify", *common, "--schedule", str(schedule)], ["verify", *common]):
        assert main(argv) == 0
        verified.append(capsys.readouterr().out)
    assert time.perf_counter() - start < 5.0
    assert verified[0] == verified[1] and json.loads(verified[0])["pass"] is True
    assert main(["bound", *common, "--exact-depths"]) == 0
    bound = json.loads(capsys.readouterr().out)
    assert bound["exact_depths"] is True and bound["depths"] == depths
    for term, d in zip(terms, depths):
        assert main(["depth", str(graph), term["pauli"]]) == 0
        assert json.loads(capsys.readouterr().out)["depth"] == d


def _tree_plus_chords():
    """A random spanning tree on 2,000 qubits plus 5 chords, and a word on
    qubits 0, 1000 and 1999."""
    r = random.Random(1)
    tree = {(r.randrange(k), k) for k in range(1, 2000)}
    pairs = (tuple(sorted(r.sample(range(2000), 2))) for _ in range(50))
    chords = list(dict.fromkeys(p for p in pairs if p not in tree))[:5]
    return 2000, sorted(tree) + chords, {0: "Z", 1000: "X", 1999: "Y"}


def _grid_corners():
    """A 60x60 grid, vertex 60*row + column, and a word on three corners."""
    pairs = [(v, w) for v in range(3600) for w in (v + 1, v + 60)
             if w < 3600 and (w == v + 60 or w % 60)]
    return 3600, pairs, {0: "Z", 59: "Z", 3599: "Z"}


def _shuffled_chain_ends():
    """A 1,000-qubit chain numbered at random, and a word on its two ends."""
    order = list(range(1000))
    random.Random(1).shuffle(order)
    return 1000, list(zip(order, order[1:])), {order[0]: "Z", order[-1]: "Z"}


@pytest.mark.parametrize("network, expected", [
    (_tree_plus_chords, 21), (_grid_corners, 233), (_shuffled_chain_ends, 1996),
], ids=["tree-plus-chords", "grid-corners", "shuffled-chain-ends"])
def test_depth_of_a_word_on_a_large_network_file(tmp_path, capsys, network, expected):
    # loading the file is most of the time; each word once took half a minute
    # or more, in an all-pairs distance pass or a shrink phase that rescanned
    # every edge after each step
    n, pairs, labels = network()
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"n": n, "edges": [{"i": i, "j": j, "g": ZZ_EDGE}
                                                  for i, j in pairs]}))
    word = "".join(labels.get(q, "I") for q in range(n))
    start = time.perf_counter()
    assert main(["depth", str(path), word]) == 0
    assert time.perf_counter() - start < 5.0
    data = json.loads(capsys.readouterr().out)
    steps = [SimpleNamespace(**step) for step in data["witness"]]
    assert data["depth"] == len(steps) == expected
    assert replay_witness(tuple(data["start_edge"]), steps) == set(labels)


@pytest.mark.parametrize("argv", [
    ["bound", "NET", "TARGET", "--epsilon", "0.05", "--exact-depths"],
    ["depth", "NET", "ZZZ"],
    ["depth", "NET", "--table"],
    ["verify", "NET", "TARGET", "--epsilon", "0.05"],
], ids=["bound", "depth-word", "depth-table", "verify"])
def test_stdout_is_one_compact_json_line(three_path, zzz_target, capsys, argv):
    paths = {"NET": three_path, "TARGET": zzz_target}
    assert main([paths.get(a, a) for a in argv]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out)) + "\n"


def test_synth_with_infinite_duration_is_a_domain_error(tmp_path, capsys):
    net, target, out = tmp_path / "net.json", tmp_path / "zz.json", tmp_path / "s.json"
    net.write_text(json.dumps({"n": 2, "edges": [
        {"i": 0, "j": 1, "g": [[0, 0, 0], [0, 0, 0], [0, 0, 5e-324]]}]}))
    target.write_text(json.dumps([{"coeff": 0.5, "pauli": "ZZ"}]))
    assert main(["synth", str(net), str(target), "--epsilon", "0.05", "-o", str(out)]) == 3
    assert "not finite" in _one_line_error(capsys)
    assert not out.exists()


def test_verify_refuses_non_finite_results_before_simulating(tmp_path, capsys, monkeypatch):
    import gatebound.simulator as sim

    def refuse(*args, **kwargs):
        raise AssertionError("simulated a schedule whose duration is not finite")

    monkeypatch.setattr(sim, "target_unitary", refuse)
    monkeypatch.setattr(sim, "unitary_of_schedule", refuse)
    net, target = tmp_path / "net.json", tmp_path / "zz.json"
    net.write_text(json.dumps({"n": 2, "edges": [
        {"i": 0, "j": 1, "g": [[0, 0, 0], [0, 0, 0], [0, 0, 5e-324]]}]}))
    target.write_text(json.dumps([{"coeff": 0.5, "pauli": "ZZ"}]))
    assert main(["verify", str(net), str(target), "--epsilon", "0.05"]) == 3
    assert "not finite" in _one_line_error(capsys)


@pytest.mark.parametrize("command", ["bound", "verify"])
def test_star_reduced_network_gets_no_full_local_bound(tmp_path, capsys, command):
    net, target = tmp_path / "star.json", tmp_path / "zzzz.json"
    net.write_text(json.dumps({"preset": "star", "n": 4}))
    target.write_text(json.dumps([{"coeff": 0.5, "pauli": "ZZZZ"}]))
    assert main([command, str(net), str(target), "--epsilon", "0.1"]) == 3
    assert "star_term_bound" in _one_line_error(capsys)


def _edge_list(net, reverse):
    """JSON edge entries of a network, each listed (j, i) with g transposed
    when ``reverse``."""
    return [{"i": j, "j": i, "g": g.T.tolist()} if reverse else
            {"i": i, "j": j, "g": g.tolist()} for (i, j), g in net.edges.items()]


def test_reversed_edge_listing_synthesizes_and_verifies_the_same(tmp_path, capsys):
    rng = np.random.default_rng(83)
    for n in (3, 4, 5):
        net = random_connected_network(rng, n, extra_edges=1, entries_per_edge=4)
        target = tmp_path / "target.json"
        spec = random_spec(rng, n, 2, min_weight=2)
        target.write_text(json.dumps([{"coeff": a, "pauli": str(w)} for a, w in spec.terms]))
        outputs = []
        for reverse in (False, True):
            graph, schedule = tmp_path / f"net{reverse}.json", tmp_path / f"s{reverse}.json"
            graph.write_text(json.dumps({"n": n, "edges": _edge_list(net, reverse)}))
            common = [str(graph), str(target), "--epsilon", "0.05"]
            assert main(["synth", *common, "-o", str(schedule)]) == 0
            assert main(["verify", *common, "--schedule", str(schedule)]) == 0
            assert main(["verify", *common]) == 0
            outputs.append((schedule.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


def test_a_certificate_listed_v_u_verifies_to_the_same_bytes(tmp_path, capsys):
    # evolutions are stored as (min, max), so the listing order of an edge and
    # its axes cannot move the simulated unitary, not even in its last bits
    rng = np.random.default_rng(89)
    graph, target, schedule = (tmp_path / name for name in ("net.json", "t.json", "s.json"))
    for n in (3, 4, 5, 6, 3, 4, 5, 6):
        net = random_connected_network(rng, n, extra_edges=1, entries_per_edge=4)
        spec = random_spec(rng, n, 2, min_weight=2)
        graph.write_text(json.dumps({"n": n, "edges": _edge_list(net, False)}))
        target.write_text(json.dumps([{"coeff": a, "pauli": str(w)} for a, w in spec.terms]))
        certificate = schedule_to_dict(synth_generator(net, spec, 0.05)[0])
        outputs = []
        for listing in (certificate, vu_listing(certificate)):
            schedule.write_text(json.dumps(listing))
            assert main(["verify", str(graph), str(target), "--epsilon", "0.05",
                         "--schedule", str(schedule)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("second", [(0, 1), (1, 0)], ids=["exact-repeat", "reversed"])
def test_pair_listed_twice_exits_3(tmp_path, zzz_target, capsys, second):
    g = [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"n": 3, "edges": [
        {"i": 0, "j": 1, "g": g}, {"i": 1, "j": 2, "g": g},
        {"i": second[0], "j": second[1], "g": g}]}))
    assert main(["bound", str(net), zzz_target, "--epsilon", "0.05"]) == 3
    assert "edge (0, 1) is given twice" in _one_line_error(capsys)


def test_verify_and_synth_search_each_term_once(tmp_path, monkeypatch):
    """One plan per generator: each command runs one Steiner search per word
    of weight >= 2 and one commutator weight K; bound without exact depths
    runs no search."""
    import importlib

    # the package's ``depth`` attribute is the function, not the module
    bounds, depth = (importlib.import_module(f"gatebound.{name}") for name in ("bounds", "depth"))
    calls = {"search": 0, "K": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    search = counted("search", depth.depth_of_support)
    monkeypatch.setattr(depth, "depth_of_support", search)
    monkeypatch.setattr(bounds, "depth_of_support", search)
    monkeypatch.setattr(bounds, "commutator_weight", counted("K", bounds.commutator_weight))
    net, target, schedule = tmp_path / "net.json", tmp_path / "t.json", tmp_path / "s.json"
    net.write_text(json.dumps({"preset": "ising_chain", "n": 8}))
    target.write_text(json.dumps([{"coeff": 0.4, "pauli": "XYZZYXXY"},
                                  {"coeff": -0.3, "pauli": "ZIIIIIIZ"}]))
    common = [str(net), str(target), "--epsilon", "0.05"]
    for argv, expected in ((["synth", *common, "-o", str(schedule)], (2, 1)),
                           (["verify", *common], (2, 1)),
                           (["verify", *common, "--schedule", str(schedule)], (2, 1)),
                           (["bound", *common, "--exact-depths"], (2, 1)),
                           (["bound", *common], (0, 1))):
        calls.update(search=0, K=0)
        assert main(argv) == 0
        assert (calls["search"], calls["K"]) == expected, argv


@pytest.mark.parametrize("argv", [
    ["bound", "{net}", "{target}", "--epsilon", "0.05", "-o", "{dir}"],
    ["bound", "{net}", "{target}", "--epsilon", "0.05", "-o", "{dir}/missing/b.json"],
    ["compare", "--case", "3spin-ising", "--pulses", "{dir}"],
], ids=["directory", "missing-parent", "pulses"])
def test_unwritable_output_exits_2_before_any_work(argv, three_path, zzz_target, tmp_path,
                                                   capsys, monkeypatch):
    import gatebound.cli

    def refuse(*args, **kwargs):
        raise AssertionError("computed a result that cannot be written")

    monkeypatch.setattr(gatebound.cli.bnd, "bound_report", refuse)
    monkeypatch.setattr(gatebound.cli.grape, "optimize", refuse)
    paths = {"dir": str(tmp_path), "net": three_path, "target": zzz_target}
    assert main([a.format(**paths) for a in argv]) == 2
    assert _one_line_error(capsys).startswith("parse error: ")
    assert not (tmp_path / "missing").exists()

"""One fresh single-process run of a workload; started by run.py.

Prints one JSON object as its last stdout line.  With ``--setup-only`` it
imports gatebound, generates the first round, times the calibration loop
and exits, so run.py can time set-up in a fresh interpreter.  Otherwise it
checks CLI parity on the first round (untimed), runs rounds in a closed
loop (one item at a time) until ``--seconds`` have passed and at least
MIN_ITEMS items are done, or until ``--rounds`` are done, timing the
calibration loop next to every item, and with ``--trace`` records spans
and runs the kernel probes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads as wl

# run.py reports p90 of item time, which then has at least ten items beyond it
MIN_ITEMS = 100
CALIBRATION_LOOP = 50_000  # about 4 ms


def _cli(L, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return L.cli.main([str(a) for a in argv])


def _write_inputs(item, work):
    net_path, target_path = work / "net.json", work / "target.json"
    net_path.write_text(json.dumps(item["net"]))
    target_path.write_text(json.dumps(item["terms"]))
    return net_path, target_path


def _jsonable(obj):
    return json.loads(json.dumps(obj))


def _parity_bound(L, item, work, out, exact):
    net, target = _write_inputs(item, work)
    path = work / "cli_bound.json"
    argv = ["bound", net, target, "--epsilon", repr(item["epsilon"]), "-o", path]
    if exact:
        argv.insert(5, "--exact-depths")
    fails = []
    if (code := _cli(L, argv)) != 0:
        fails.append(f"bound exited {code}")
    elif json.loads(path.read_text()) != _jsonable(out["report"].to_dict()):
        fails.append("bound output differs from bound_report")
    return fails


def _parity_certify(L, item, work, out):
    fails = _parity_bound(L, item, work, out, exact=True)
    net, target = _write_inputs(item, work)
    eps = repr(item["epsilon"])
    sched_path, verify_path = work / "cli_schedule.json", work / "cli_verify.json"
    if (code := _cli(L, ["synth", net, target, "--epsilon", eps,
                         "-o", sched_path])) != 0:
        return fails + [f"synth exited {code}"]
    if json.loads(sched_path.read_text()) != _jsonable(
            L.synthesis.schedule_to_dict(out["schedule"])):
        fails.append("synth output differs from synth_generator")
    if (code := _cli(L, ["verify", net, target, "--epsilon", eps, "--schedule",
                         sched_path, "-o", verify_path])) != 0:
        return fails + [f"verify exited {code}"]
    expected = {
        "total_duration": out["schedule"].total_duration,
        "bound": L.bounds.run_time_bound(out["spec"], out["net"], item["epsilon"],
                                         use_exact_depths=True),
        "trotter_steps": out["m"],
        "normalized_error": L.simulator.normalized_error(out["target"], out["U"]),
        "gate_infidelity": L.simulator.gate_infidelity(out["target"], out["U"]),
        "pass": True,
    }
    if json.loads(verify_path.read_text()) != expected:
        fails.append("verify output differs from the library path")
    return fails


def _parity_optimize(L, item, work, out):
    net, target = _write_inputs(item, work)
    path = work / "cli_pulses.csv"
    argv = ["grape", net, target, "--time", repr(item["T"]), "--slices", item["N"],
            "--restarts", item["restarts"], "--tol", repr(item["tol"]),
            "--max-iters", item["max_iters"], "--seed", item["seed"], "-o", path]
    if (code := _cli(L, argv)) != 0:
        return [f"grape exited {code}"]
    buf = io.StringIO()
    L.grape.write_pulse_csv(out["pulses"], buf)
    return [] if path.read_text() == buf.getvalue() else [
        "grape pulses differ from optimize"]


_PARITY = {
    "bound": lambda L, item, work, out: _parity_bound(L, item, work, out, True),
    "bound_large": lambda L, item, work, out: _parity_bound(L, item, work, out, False),
    "certify": _parity_certify,
    "optimize": _parity_optimize,
}


def cli_parity(L, items, work):
    """Run the first item of each kind through gatebound.cli.main and the
    library, and list every mismatch."""
    fails = []
    seen = set()
    for item in items:
        if item["kind"] in seen:
            continue
        seen.add(item["kind"])
        try:
            out = wl.RUN[item["kind"]](L, item, work)
            fails += [f"{item['id']}: {f}" for f in
                      _PARITY[item["kind"]](L, item, work, out)]
        except Exception:
            fails.append(f"{item['id']}: {traceback.format_exc(limit=3)}")
    return fails


def run_item(L, tracer, item, work):
    """Time one item's package calls, then check its outputs; returns the
    item's record and outputs (None if it raised)."""
    if tracer is not None:
        tracer.item = item["id"]
        span = tracer.begin(f"item.{item['kind']}")
    fails = []
    t0 = perf_counter()
    try:
        out = wl.RUN[item["kind"]](L, item, work)
    except Exception:
        out = None
        fails.append(traceback.format_exc(limit=3))
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
    if out is not None:
        try:
            fails += wl.CHECK[item["kind"]](L, item, out)
        except Exception:
            fails.append(traceback.format_exc(limit=3))
    if tracer is not None:
        tracer.item = None
    return {"id": item["id"], "kind": item["kind"], "s": dt, "fails": fails}, out


def calibrate():
    """Seconds for a fixed pure-Python loop: how fast the machine is now."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return perf_counter() - t0


def run_loop(L, tracer, workload, seed, seconds, rounds, work):
    """Closed loop over rounds; returns per-item records and round count.

    Each record carries the calibration times measured just before and
    just after its item.
    """
    records = []
    pairs = []  # (item, outputs), kept only for a check over the whole run
    t0 = perf_counter()
    r = 0
    cal = calibrate()
    while (r < rounds if rounds is not None else
           perf_counter() - t0 < seconds or len(records) < MIN_ITEMS):
        for item in wl.make_round(workload, seed, r):
            rec, out = run_item(L, tracer, item, work)
            rec["cal"] = [cal, cal := calibrate()]
            records.append(rec)
            if workload in wl.RUN_CHECK:
                pairs.append((item, out))
        r += 1
    if pairs:
        records[-1]["fails"] += wl.RUN_CHECK[workload](pairs)
    return records, r


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def kernel_probes(L, tracer, gb, seed):
    """Fixed in-process probes of single kernels; their spans join the run's."""
    tracer.item = "probe"
    probes = {}

    item = wl.trotter_probe_item(seed)
    words = [gb.pauli.parse_pauli(t["pauli"]) for t in item["terms"]]
    pairs = [(p, q) for j, p in enumerate(words) for q in words[:j]]
    for name, fn in (("commutes", gb.pauli.commutes), ("multiply", gb.pauli.multiply)):
        def sweep(fn=fn):
            for p, q in pairs:
                fn(p, q)
        span = tracer.begin(f"pauli.{name}")
        probes[f"pauli.{name}_ns"] = 1e6 * _median_ms(sweep, 3) / len(pairs)
        tracer.end(span)
    net = L.network.network_from_dict(item["net"])
    spec = L.bounds.spec_from_list(item["terms"])
    probes["bounds.large_l_ms"] = _median_ms(
        lambda: L.bounds.bound_report(spec, net, item["epsilon"]), 3)

    rng = np.random.default_rng([seed, 99])
    for n, T in ((3, 0.9), (4, wl.PULSE_N4_TIME)):
        net_data, terms = wl.pulse_target(n)
        net = L.network.network_from_dict(net_data)
        target = L.simulator.target_unitary(L.bounds.spec_from_list(terms))
        controls = len(gb.grape.control_operators(net))
        amps = rng.uniform(-5.0, 5.0, size=(wl.PULSE_SLICES, controls))
        pulses = gb.grape.PulseSet(T=T, N=wl.PULSE_SLICES, amplitudes=amps,
                                   achieved_infidelity=1.0, iterations=0,
                                   seed=seed)
        probes[f"grape.gradient_ms.n{n}"] = _median_ms(
            lambda: L.grape.gradient(net, pulses, target), 5)
        if n == 3:
            probes["grape.propagate_ms"] = _median_ms(
                lambda: L.grape.propagate(net, pulses), 5)

    # one certificate per simulated qubit count, so every traced run
    # reports us_per_primitive at each of them
    for n in (3, 4, 8):
        net = gb.network.ising_chain(n)
        spec = gb.bounds.GeneratorSpec(((0.5, gb.pauli.parse_pauli("X" * n)),))
        schedule, _ = gb.synthesis.synth_generator(net, spec, 1e-2)
        L.simulator.unitary_of_schedule(net, schedule)
    tracer.item = None
    return probes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    gb = tracing.layers(None)  # imports every gatebound module
    first = wl.make_round(args.workload, args.seed, 0)
    if args.setup_only:
        cal = statistics.median(calibrate() for _ in range(3))
        print(json.dumps({"gatebound": gb.cli.__file__, "items": len(first),
                          "cal": cal}))
        return 0

    out_dir = Path(args.work)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    L = tracing.layers(tracer) if args.trace else gb
    # item inputs and schedules go to a directory of this process's own
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        work = Path(tmp)
        parity_fails = cli_parity(gb, first, work)
        reference = [run_item(L, tracer, item, work)[0]
                     for item in wl.reference_items(args.workload)]
        records, rounds = run_loop(L, tracer, args.workload, args.seed,
                                   args.seconds, args.rounds, work)
    result = {"records": records, "rounds": rounds, "gatebound": gb.cli.__file__,
              "check_fails": parity_fails + [f"{r['id']}: {f}" for r in reference
                                             for f in r["fails"]],
              "parity_failures": len(parity_fails)}
    if args.trace:
        result["probes"] = kernel_probes(L, tracer, gb, args.seed)
        result["layers"] = tracing.layer_metrics(tracer.spans)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    text = json.dumps(result)
    mode = "traced" if args.trace else "untraced"
    (out_dir / f"result-{args.workload}-seed{args.seed}-{mode}.json").write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

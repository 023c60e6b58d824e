"""gatebound benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload {wide,trotter,pulse} --seed N \\
        --seconds S --trace {0,1}

Each workload runs in a fresh single-process interpreter with BLAS pinned to
one thread in that interpreter's environment only, importing gatebound from
``src/`` of the checkout.  ``--trace 0`` prints the end-to-end metrics:
set-up time (median over fresh interpreters), throughput, median and tail
item latency, all scaled to the reference machine speed (see CAL_REF_S),
and peak memory.  ``--trace 1`` runs the workload untraced and
then traced over the same rounds, runs the kernel and cliff probes, writes
the spans under ``perfbench/out/`` and prints the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 7
# A timed loop runs at least 100 items (worker.MIN_ITEMS), so at least ten
# lie beyond p90: the highest percentile with ten items beyond it in the
# shortest run, fixed so that all runs report the same statistic.
TAIL_PERCENT = 90
# The host's speed drifts by a third and more between runs minutes apart,
# which no statistic over one run removes.  So every timing is scaled by
# CAL_REF_S / c, where c is the time of a fixed ~4 ms pure-Python loop run
# next to it (the mean of the loops just before and after an item) and
# CAL_REF_S is that loop's median time on the 2-core VM the bounds were set
# on.  The scaled time is the one that machine would show; the unscaled
# values are printed too.
CAL_REF_S = 4.0e-3
CLIFF_TIMEOUT_S = {"depth": 20.0, "simulator": 45.0}
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


class Runner:
    """Starts child interpreters from the checkout root under one deadline."""

    def __init__(self, root: Path):
        self.root = root
        self.deadline = perf_counter() + TIME_BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(PINNED_ENV, PYTHONPATH=str(root / "src"))

    def run(self, argv, timeout=None):
        """(last stdout line as JSON, wall seconds), or None on timeout."""
        remaining = self.deadline - perf_counter()
        if remaining <= 1.0:
            raise BenchError("time budget exhausted")
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *map(str, argv)], cwd=self.root, env=self.env,
                capture_output=True, text=True,
                timeout=min(timeout or remaining, remaining))
        except subprocess.TimeoutExpired:
            if timeout is None:
                raise BenchError(f"{argv[0]} exceeded the time budget") from None
            return None
        wall = perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{' '.join(map(str, argv))} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def worker(self, workload, seed, *extra):
        out, _ = self.run([HERE / "worker.py", "--workload", workload,
                           "--seed", seed, "--work", HERE / "out", *extra])
        src = self.root / "src"
        if Path(out["gatebound"]).resolve().parent.parent != src.resolve():
            raise BenchError(f"imported {out['gatebound']}, not {src}")
        return out


def _failures(result):
    fails = [(r["id"], f) for r in result["records"] for f in r["fails"]]
    return fails + [("pre-loop", f) for f in result["check_fails"]]


def scaled(rec):
    """An item's time at the reference machine speed."""
    return rec["s"] * CAL_REF_S / statistics.fmean(rec["cal"])


def end_to_end(runner, args):
    # Set-up samples on both sides of the loop, so one slow stretch of the
    # machine cannot hold all of them.
    setups = []
    for k in range(SETUP_SAMPLES):
        if k == SETUP_SAMPLES // 2:
            res = runner.worker(args.workload, args.seed, "--seconds", args.seconds)
        out, wall = runner.run([HERE / "worker.py", "--workload", args.workload,
                                "--seed", args.seed, "--work", HERE / "out",
                                "--setup-only"])
        setups.append((wall, wall * CAL_REF_S / out["cal"]))
    records = res["records"]
    times = [scaled(r) for r in records]
    raw = [r["s"] for r in records]
    n = len(times)
    tail = statistics.quantiles(times, n=100)[TAIL_PERCENT - 1]
    beyond = sum(t > tail for t in times)
    if beyond < 10:
        raise BenchError(f"{n} items leave {beyond} beyond p{TAIL_PERCENT}; "
                         "the tail needs ten")
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "items_per_s": n / sum(times),
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_tail_ms": 1e3 * tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    failed = sum(1 for r in records if r["fails"])
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters",
        "items_per_s": f"{n} items over their summed time, {res['rounds']} rounds",
        "item_tail_ms": f"p{TAIL_PERCENT}; {beyond} of {n} items beyond it",
    }
    info = [f"failed_frac = {failed / n:.6g} ({failed} of {n} items)",
            f"cli parity failures = {res['parity_failures']}",
            f"unscaled: setup_s {statistics.median(w for w, _ in setups):.6g}, "
            f"items_per_s {n / sum(raw):.6g}, item_p50_ms "
            f"{1e3 * statistics.median(raw):.6g}, item_tail_ms "
            f"{1e3 * statistics.quantiles(raw, n=100)[TAIL_PERCENT - 1]:.6g}; "
            f"calibration loop median "
            f"{1e3 * statistics.median(c for r in records for c in r['cal']):.4g} ms "
            f"(reference {1e3 * CAL_REF_S:g} ms)"]
    return metrics, notes, info, n, failed, _failures(res)


def traced(runner, args):
    base = runner.worker(args.workload, args.seed, "--seconds", args.seconds)
    res = runner.worker(args.workload, args.seed, "--rounds", base["rounds"],
                        "--trace")
    untraced, traced_s = (sum(map(scaled, run["records"])) for run in (base, res))
    metrics = dict(res["layers"])
    metrics.update(res["probes"])
    metrics["cli.parity_failures"] = res["parity_failures"]
    metrics["trace.overhead_frac"] = traced_s / untraced - 1.0
    fails = _failures(base) + _failures(res)
    info = [f"spans written to {res['spans']}"]
    for probe, name in (("depth", "depth.probe_chain16_s"),
                        ("simulator", "simulator.probe_n10_s")):
        timeout = CLIFF_TIMEOUT_S[probe]
        out = runner.run([HERE / "cliff.py", probe], timeout=timeout)
        if out is None:
            metrics[name] = timeout
            info.append(f"{name}: timed out at {timeout:g} s (recorded as {timeout:g})")
            continue
        out = out[0]
        metrics[name] = out["seconds"]
        if not out["ok"]:
            fails.append((name, f"probe output incorrect: {out}"))
        if probe == "simulator":
            metrics["simulator.us_per_primitive.n10"] = (
                1e6 * out["seconds"] / out["primitives"])
    records = base["records"] + res["records"]
    failed = sum(1 for r in records if r["fails"])
    return metrics, {}, info, len(records), failed, fails


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gatebound" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/gatebound is missing",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        runner = Runner(root)
        measure = traced if args.trace else end_to_end
        metrics, notes, info, attempted, failed, fails = measure(runner, args)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:.6g} {units.get(name, '')}{note}")
    for line in info:
        print(f"  {line}")
    for where, msg in fails[:10]:
        print(f"FAIL {where}: {msg}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and record how steady it is.

Usage, from the repository root::

    python3 perfbench/steadiness.py --seeds 1-10

Runs ``perfbench/run.py --trace 0`` once per workload of BENCHMARK.json and
seed, one run at a time, and writes ``perfbench/record.json``: the machine
and library versions, the pinned BLAS variables, the seeds, each workload's
rationale (from BENCHMARK.json) and layer-to-metric map, and for every
end-to-end metric the median, quartiles and the quartile spread as a share
of the median next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from run import PINNED_ENV

HERE = Path(__file__).resolve().parent

# Which per-layer metrics should move which end-to-end metric, per workload,
# and which planned change should leave the workload unchanged.
LAYER_MAP = {
    "wide": {
        "moves": {
            "items_per_s": ["depth.busy_s", "depth.call_p50_ms", "bounds.busy_s",
                            "bounds.calls", "bounds.terms"],
            "item_tail_ms": ["depth.call_max_ms", "simulator.us_per_primitive.n8",
                             "simulator.busy_s"],
        },
        "unchanged_by": "repeat-form schedules",
    },
    "trotter": {
        "moves": {
            "items_per_s": ["synthesis.busy_s", "synthesis.primitives",
                            "synthesis.save_s", "synthesis.load_s",
                            "simulator.busy_s", "simulator.us_per_primitive.n3"],
            "item_tail_ms": ["simulator.us_per_primitive.n3",
                             "synthesis.trotter_m"],
            "peak_rss_mb": ["synthesis.schedule_bytes", "synthesis.trotter_m"],
            "item_p50_ms": ["bounds.large_l_ms", "pauli.commutes_ns",
                            "pauli.multiply_ns"],
        },
        "unchanged_by": "Steiner-tree depth",
    },
    "pulse": {
        "moves": {
            "items_per_s": ["grape.busy_s", "grape.gradient_ms.n3",
                            "grape.gradient_ms.n4", "grape.propagate_ms",
                            "grape.restarts_run", "grape.evals_best",
                            "grape.useful_restart_ratio"],
        },
        "unchanged_by": "depth, bound or simulator changes",
    },
}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment(seeds):
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{cfg.get('name')} {cfg.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_env": PINNED_ENV,
        "seeds": seeds,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    record = {"environment": environment(seeds),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for entry in bench["workloads"]:
        workload = entry["name"]
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        spreads = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spreads[m["name"]] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"],
                "values": vals,
            }
        record["workloads"][workload] = {"why": entry["why"], **LAYER_MAP[workload],
                                         "end_to_end": spreads}
    (HERE / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for workload, rec in record["workloads"].items():
        for name, s in rec["end_to_end"].items():
            print(f"{workload:8s} {name:14s} median {s['median']:.4g}  "
                  f"spread {s['spread']:.4f}  bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One-shot cliff probe in its own process, so run.py can time it out.

``depth``: exact depth of the support {0, 15} on a 16-qubit chain.
``simulator``: dense simulation of the certificate schedule of one
full-support word on a 10-qubit chain.  Only the probed call is timed.
Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import gatebound as gb


def probe_depth():
    net = gb.ising_chain(16)
    t0 = perf_counter()
    d = gb.depth_of_support(net, (0, 15)).depth
    seconds = perf_counter() - t0
    return {"seconds": seconds, "ok": d <= 2 * (16 - 2), "depth": d}


def probe_simulator():
    net = gb.ising_chain(10)
    spec = gb.GeneratorSpec(((0.5, gb.parse_pauli("Z" * 10)),))
    schedule, _ = gb.synth_generator(net, spec, 1e-2)
    t0 = perf_counter()
    U = gb.unitary_of_schedule(net, schedule)
    seconds = perf_counter() - t0
    infid = gb.gate_infidelity(gb.target_unitary(spec), U)
    return {"seconds": seconds, "ok": infid < 1e-9,
            "primitives": len(schedule.primitives)}


if __name__ == "__main__":
    probe = {"depth": probe_depth, "simulator": probe_simulator}[sys.argv[1]]
    print(json.dumps(probe()))

"""Spans recorded around the benchmark's calls into gatebound's modules.

The benchmark reaches the package only through a namespace whose
attributes are gatebound's modules.  Untraced, they are the modules
themselves, so tracing off costs nothing.  Traced, each attribute is a proxy
that wraps every callable it hands out in a span named ``<module>.<function>``.
Spans are appended to an in-memory list and written out once the run ends.
Calls the package makes internally are not seen: ``bounds.bound_report``
includes the depth searches it runs itself.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
from time import perf_counter
from types import SimpleNamespace

LAYERS = ("pauli", "network", "depth", "bounds", "synthesis", "simulator",
          "grape", "cli")


def _optimize_attrs(args, kwargs, result):
    converged = result.achieved_infidelity < kwargs["tol"]
    # optimize stops after the first restart that reaches tol, else runs all
    ran = result.restart_index + 1 if converged else kwargs["restarts"]
    return {"converged": converged, "restarts_run": ran,
            "evals_best": result.iterations}


# Counts attached to a span from the call's arguments and result, taken
# after the span's end time so they do not add to its duration.
_ATTRS = {
    "depth.depth": lambda a, k, r: {"depth": r.depth},
    "bounds.bound_report": lambda a, k, r: {"terms": a[0].l},
    "synthesis.synth_generator": lambda a, k, r: {
        "m": r[1], "primitives": len(r[0].primitives)},
    "synthesis.save_schedule": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "simulator.unitary_of_schedule": lambda a, k, r: {
        "n": a[1].n, "primitives": len(a[1].primitives)},
    "grape.optimize": _optimize_attrs,
    "cli.main": lambda a, k, r: {"exit": r},
}


class Tracer:
    """In-memory span list: [id, name, start, end, parent, item, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None

    def begin(self, name, item=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, perf_counter(), None, parent,
               self.item if item is None else item, None]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def end(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, item, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item, "attrs": attrs}) + "\n")


class _TracedModule:
    def __init__(self, module, layer, tracer):
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, attr):
        obj = getattr(self._module, attr)
        if callable(obj):
            obj = self._tracer.wrap(f"{self._layer}.{attr}", obj)
        setattr(self, attr, obj)
        return obj


def layers(tracer: Tracer | None) -> SimpleNamespace:
    """gatebound's modules by layer name, traced when a tracer is given."""
    mods = {name: importlib.import_module(f"gatebound.{name}") for name in LAYERS}
    if tracer is None:
        return SimpleNamespace(**mods)
    return SimpleNamespace(**{name: _TracedModule(mod, name, tracer)
                              for name, mod in mods.items()})


def layer_metrics(spans) -> dict:
    """Per-layer metrics from a traced run's spans (values only, no units)."""
    by_layer = {name: [] for name in LAYERS}
    by_name = {}
    for rec in spans:
        name = rec[1]
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer].append(rec)
            by_name.setdefault(name, []).append(rec)

    def dur(rec):
        return rec[3] - rec[2]

    def busy(recs):
        return sum(dur(r) for r in recs)

    def total(name, key):
        return sum(r[6][key] for r in by_name.get(name, ()))

    out = {}
    for layer in ("network", "depth", "bounds", "synthesis", "simulator", "grape"):
        out[f"{layer}.calls"] = len(by_layer[layer])
        out[f"{layer}.busy_s"] = busy(by_layer[layer])

    depth_ms = [1e3 * dur(r) for r in by_name.get("depth.depth", ())]
    out["depth.call_p50_ms"] = statistics.median(depth_ms) if depth_ms else 0.0
    out["depth.call_max_ms"] = max(depth_ms, default=0.0)
    out["depth.sum_depth"] = total("depth.depth", "depth")

    out["bounds.terms"] = total("bounds.bound_report", "terms")

    out["synthesis.trotter_m"] = total("synthesis.synth_generator", "m")
    out["synthesis.primitives"] = total("synthesis.synth_generator", "primitives")
    out["synthesis.save_s"] = busy(by_name.get("synthesis.save_schedule", ()))
    out["synthesis.load_s"] = busy(by_name.get("synthesis.load_schedule", ()))
    out["synthesis.schedule_bytes"] = total("synthesis.save_schedule", "bytes")

    sims = by_name.get("simulator.unitary_of_schedule", ())
    out["simulator.target_busy_s"] = busy(by_name.get("simulator.target_unitary", ()))
    out["simulator.primitives"] = total("simulator.unitary_of_schedule", "primitives")
    per_n = {}
    for r in sims:
        acc = per_n.setdefault(r[6]["n"], [0.0, 0])
        acc[0] += dur(r)
        acc[1] += r[6]["primitives"]
    for n, (seconds, prims) in sorted(per_n.items()):
        out[f"simulator.us_per_primitive.n{n}"] = 1e6 * seconds / max(prims, 1)

    opt = by_name.get("grape.optimize", ())
    runs = sum(r[6]["restarts_run"] for r in opt)
    converged = sum(r[6]["converged"] for r in opt)
    out["grape.restarts_run"] = runs
    out["grape.evals_best"] = sum(r[6]["evals_best"] for r in opt)
    out["grape.converged"] = converged
    out["grape.useful_restart_ratio"] = converged / runs if runs else 0.0
    return out

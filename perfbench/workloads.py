"""Seeded inputs, item runners and correctness checks for the three workloads.

Each workload is an endless sequence of rounds; a round is a fixed list of
item kinds whose concrete inputs are drawn from ``rng([seed, workload, r])``.
Every round therefore has the same composition, so a run that stops at a
round boundary always measures the same mix of work.  Inputs are plain data
(network dicts in the package's JSON form and ``{"coeff", "pauli"}`` term
lists); the package sees them only when an item runs.

* ``wide``  -- many qubits, few terms.  Depth-and-bound items put four words
  (weights 2, 3, 4 and 5) on one 12-14 qubit chain, grid or random graph,
  with spans from 3 to 11 vertices; certification items put one
  full-support word on an 8-qubit graph.  The subset BFS and
  256-dimensional dense simulation dominate; m = 1.
* ``trotter`` -- few qubits, many repetitions.  Certification items run
  three-term non-commuting generators (one word each of weight 1, 2 and 3)
  on 3-qubit graphs at the three epsilons below, through a saved and
  reloaded schedule; two bound-only items per round carry 400-term
  generators on 5 and 6 qubits.
* ``pulse`` -- the GRAPE tightness scan of the 3-spin Ising ZZZ gate over
  durations that bracket its exact minimum sqrt(3)/2 and its bound 3/2, and
  of the 4-spin Heisenberg ZZZZ gate at T = 2.  The certificate of each
  target's bound is checked once before the loop.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

WORKLOADS = ("wide", "trotter", "pulse")
_STREAM = {name: k for k, name in enumerate(WORKLOADS)}

# wide: (graph, n, spans) per depth-and-bound item.  The word of weight
# WIDE_WEIGHTS[k] has its two ends spans[k] - 1 edges apart on a shortest
# path, and its other qubits on that path.  Search time grows about
# exponentially with the span (chain of 14: 0.4 ms at span 5, 0.16 s at span
# 11 for weight 5), so every round has the same fixed mix of spans, short to
# long, and its search effort does not swing with the draw.
WIDE_BOUND_GRAPHS = (("chain", 13, (4, 6, 8, 10)), ("chain", 14, (5, 7, 9, 11)),
                     ("grid3x4", 12, (3, 4, 5, 6)), ("grid2x7", 14, (3, 4, 6, 7)),
                     ("random", 13, (3, 4, 5, 6)))
WIDE_WEIGHTS = (2, 3, 4, 5)
WIDE_CERT_GRAPHS = (("chain", 8), ("random", 8))
WIDE_EPSILON = 1e-2

TROTTER_EPSILONS = (1e-2, 5e-3, 2e-3)
TROTTER_ANTICOMMUTING_PAIRS = 2
# Every term has this magnitude (random sign), so the commutator weight and
# with it the Trotter step count m, which item cost grows with, are fixed by
# epsilon (magnitudes drawn from [0.45, 0.55] moved m by up to 20%).
TROTTER_COEFF = 0.5
TROTTER_LARGE_L = 400
TROTTER_LARGE_EPSILON = 1e-2

PULSE_N3_TIMES = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5)
PULSE_N4_TIME = 2.0
PULSE_SLICES = 64
PULSE_TOL = 1e-3
# One restart each, with caps that cost about the same time at n = 3 and
# n = 4, so an item that hits its cap costs the same whichever it is.
PULSE_N3 = {"restarts": 1, "max_iters": 100}
PULSE_N4 = {"restarts": 1, "max_iters": 25}
PULSE_EPSILON = 1e-2
PULSE_TARGETS = {3: ("ising_chain", "ZZZ"), 4: ("heisenberg_chain", "ZZZZ")}
T_MIN_3SPIN = math.sqrt(3) / 2  # exact minimum for exp(-i*pi/4*ZZZ)
T_BOUND_3SPIN = 1.5  # its certified bound

INFIDELITY_TOL = 1e-9
PROPAGATE_TOL = 1e-9


# ---------------------------------------------------------------------------
# graphs and words as plain data

def chain_edges(n):
    return [(k, k + 1) for k in range(n - 1)]


def grid_edges(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            q = i * cols + j
            if j + 1 < cols:
                edges.append((q, q + 1))
            if i + 1 < rows:
                edges.append((q, q + cols))
    return edges


def random_connected_edges(rng, n, extra):
    """Random spanning tree plus ``extra`` distinct chords."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((u, v))
    return sorted(edges)


def _graph_edges(rng, kind, n):
    if kind == "chain":
        return chain_edges(n)
    if kind == "grid3x4":
        return grid_edges(3, 4)
    if kind == "grid2x7":
        return grid_edges(2, 7)
    return random_connected_edges(rng, n, extra=3 if n > 8 else 2)


def net_dict(rng, n, edges):
    """Network JSON form; each edge couples one random axis pair with a
    random signed strength in [0.5, 1.5]."""
    out = []
    for u, v in edges:
        g = [[0.0] * 3 for _ in range(3)]
        a, b = (int(x) for x in rng.integers(0, 3, size=2))
        g[a][b] = float(rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0)))
        out.append({"i": u, "j": v, "g": g})
    return {"n": n, "edges": out}


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _bfs(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _shortest_path(rng, adj, dists, length):
    """Random shortest path with ``length`` vertices, or None; ``dists`` are
    the BFS distances from every vertex."""
    pairs = [(s, t) for s in range(len(adj)) for t, d in dists[s].items()
             if d == length - 1 and s < t]
    if not pairs:
        return None
    s, t = pairs[int(rng.integers(len(pairs)))]
    path = [s]
    while path[-1] != t:
        u = path[-1]
        step = [v for v in adj[u] if dists[t][v] == dists[t][u] - 1]
        path.append(step[int(rng.integers(len(step)))])
    return path


def _word(rng, n, support):
    chars = ["I"] * n
    for q in support:
        chars[q] = "XYZ"[int(rng.integers(3))]
    return "".join(chars)


def _coeff(rng, lo, hi):
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))


def _anticommute(p, q):
    return sum(a != "I" and b != "I" and a != b for a, b in zip(p, q)) % 2 == 1


# ---------------------------------------------------------------------------
# rounds

def _wide_round(rng, r):
    items = []
    for k, (kind, n, spans) in enumerate(WIDE_BOUND_GRAPHS):
        while True:
            edges = _graph_edges(rng, kind, n)
            adj = _adjacency(n, edges)
            dists = [_bfs(adj, s) for s in range(n)]
            if _shortest_path(rng, adj, dists, max(spans)) is not None:
                break
        words = []
        for w, span in zip(WIDE_WEIGHTS, spans):
            while True:
                path = _shortest_path(rng, adj, dists, span)
                inner = rng.choice(path[1:-1], w - 2, replace=False)
                word = _word(rng, n, [path[0], path[-1], *(int(q) for q in inner)])
                if word not in words:
                    words.append(word)
                    break
        rng.shuffle(words)
        items.append({"kind": "bound", "id": f"r{r}.{k}",
                      "net": net_dict(rng, n, edges), "epsilon": WIDE_EPSILON,
                      "terms": [{"coeff": _coeff(rng, 0.1, 1.0), "pauli": w}
                                for w in words]})
    for k, (kind, n) in enumerate(WIDE_CERT_GRAPHS, start=len(items)):
        edges = _graph_edges(rng, kind, n)
        items.append({"kind": "certify", "id": f"r{r}.{k}",
                      "net": net_dict(rng, n, edges), "epsilon": WIDE_EPSILON,
                      "terms": [{"coeff": _coeff(rng, 0.1, 1.0),
                                 "pauli": _word(rng, n, range(n))}]})
    return items


def _trotter_terms(rng, edges):
    """Words of weight 1, 2 (on an edge) and 3 in random order, with exactly
    the wanted number of anticommuting pairs."""
    while True:
        u, v = edges[int(rng.integers(len(edges)))]
        words = [_word(rng, 3, [int(rng.integers(3))]), _word(rng, 3, [u, v]),
                 _word(rng, 3, range(3))]
        pairs = sum(_anticommute(words[i], words[j])
                    for i in range(3) for j in range(i))
        if pairs == TROTTER_ANTICOMMUTING_PAIRS:
            return [{"coeff": _coeff(rng, TROTTER_COEFF, TROTTER_COEFF),
                     "pauli": words[k]}
                    for k in rng.permutation(3)]


def _distinct_words(rng, n, l):
    words = set()
    while len(words) < l:
        w = _word(rng, n, [q for q in range(n) if rng.random() < 0.5])
        if w.strip("I"):
            words.add(w)
    return sorted(words)


def _trotter_round(rng, r):
    items = []
    for k, eps in enumerate(TROTTER_EPSILONS):
        edges = [(0, 1), (1, 2)] + ([(0, 2)] if rng.random() < 0.5 else [])
        items.append({"kind": "certify", "id": f"r{r}.{k}",
                      "net": net_dict(rng, 3, edges), "epsilon": eps,
                      "terms": _trotter_terms(rng, edges)})
    for n in (5, 6):
        items.append({"kind": "bound_large", "id": f"r{r}.{len(items)}",
                      "net": net_dict(rng, n, chain_edges(n)),
                      "epsilon": TROTTER_LARGE_EPSILON,
                      "terms": [{"coeff": _coeff(rng, 0.1, 1.0), "pauli": w}
                                for w in _distinct_words(rng, n, TROTTER_LARGE_L)]})
    return items


def pulse_target(n):
    preset, word = PULSE_TARGETS[n]
    return ({"preset": preset, "n": n, "J": 1.0},
            [{"coeff": -math.pi / 4, "pauli": word}])


def _pulse_round(rng, r):
    items = []
    for n, times, caps in ((3, PULSE_N3_TIMES, PULSE_N3),
                           (4, (PULSE_N4_TIME,), PULSE_N4)):
        net, terms = pulse_target(n)
        for T in times:
            items.append({"kind": "optimize", "id": f"r{r}.{len(items)}",
                          "net": net, "terms": terms, "T": T, "N": PULSE_SLICES,
                          "tol": PULSE_TOL, "seed": int(rng.integers(2**31)),
                          **caps})
    return items


def reference_items(workload):
    """Items run once before the loop and not timed: the certificates of the
    pulse targets, whose bounds the GRAPE scan probes."""
    if workload != "pulse":
        return []
    items = []
    for n in PULSE_TARGETS:
        net, terms = pulse_target(n)
        items.append({"kind": "certify", "id": f"ref.{n}", "net": net,
                      "terms": terms, "epsilon": PULSE_EPSILON})
    return items


_ROUNDS = {"wide": _wide_round, "trotter": _trotter_round, "pulse": _pulse_round}


def make_round(workload, seed, r):
    rng = np.random.default_rng([seed, _STREAM[workload], r])
    return _ROUNDS[workload](rng, r)


def trotter_probe_item(seed):
    """Trotter's largest generator: the 6-qubit bound-only item of round 0."""
    return make_round("trotter", seed, 0)[-1]


# ---------------------------------------------------------------------------
# items: package calls only (timed), then checks (untimed)

def _inputs(L, item):
    return (L.network.network_from_dict(item["net"]),
            L.bounds.spec_from_list(item["terms"]))


def run_bound(L, item, work):
    net, spec = _inputs(L, item)
    depths = [L.depth.depth(net, w).depth for w in spec.words]
    report = L.bounds.bound_report(spec, net, item["epsilon"],
                                   use_exact_depths=True)
    return {"n": net.n, "depths": depths, "report": report}


def run_bound_large(L, item, work):
    net, spec = _inputs(L, item)
    return {"n": net.n, "report": L.bounds.bound_report(spec, net, item["epsilon"])}


def run_certify(L, item, work):
    net, spec = _inputs(L, item)
    eps = item["epsilon"]
    depths = [L.depth.depth(net, w).depth for w in spec.words if w.weight >= 2]
    report = L.bounds.bound_report(spec, net, eps, use_exact_depths=True)
    schedule, m = L.synthesis.synth_generator(net, spec, eps)
    path = work / "schedule.json"
    L.synthesis.save_schedule(schedule, path)
    loaded = L.synthesis.load_schedule(path)
    target = L.simulator.target_unitary(spec)
    U = L.simulator.unitary_of_schedule(net, loaded)
    return {"n": net.n, "net": net, "spec": spec, "depths": depths,
            "report": report, "m": m, "schedule": loaded, "target": target,
            "U": U}


def run_optimize(L, item, work):
    net, spec = _inputs(L, item)
    target = L.simulator.target_unitary(spec)
    pulses = L.grape.optimize(net, target, item["T"], N=item["N"],
                              restarts=item["restarts"], tol=item["tol"],
                              max_iters=item["max_iters"], seed=item["seed"])
    return {"net": net, "target": target, "pulses": pulses}


def _depth_cap_failures(n, depths):
    cap = 2 * (n - 2)
    return [f"depth {d} exceeds 2(n-2) = {cap}" for d in depths if d > cap]


def check_bound(L, item, out):
    fails = _depth_cap_failures(out["n"], out["depths"])
    if tuple(out["depths"]) != out["report"].depths:
        fails.append(f"bound_report depths {out['report'].depths} differ from "
                     f"per-word depths {out['depths']}")
    return fails


def _anticommutation_matrix(words):
    chars = np.array([list(w) for w in words])
    x = np.isin(chars, ("X", "Y")).astype(np.int64)
    z = np.isin(chars, ("Z", "Y")).astype(np.int64)
    return (x @ z.T + z @ x.T) % 2


def check_bound_large(L, item, out):
    """Recompute K = 2*sum_{j<k} |a_j a_k| over anticommuting pairs from the
    words' symplectic bits and compare with the report."""
    coeffs = np.array([abs(t["coeff"]) for t in item["terms"]])
    anti = _anticommutation_matrix([t["pauli"] for t in item["terms"]])
    K = float(np.sum(np.triu(anti * np.outer(coeffs, coeffs), 1))) * 2
    report = out["report"]
    fails = _depth_cap_failures(out["n"], report.depths)
    if not math.isclose(report.commutator_weight, K, rel_tol=1e-9):
        fails.append(f"commutator weight {report.commutator_weight} != {K}")
    m_expected = max(1, math.ceil(K / (2 * math.sqrt(2) * item["epsilon"])))
    if abs(report.trotter_steps - m_expected) > 1:
        fails.append(f"trotter steps {report.trotter_steps} != {m_expected}")
    return fails


def check_certify(L, item, out):
    eps = item["epsilon"]
    spec, schedule = out["spec"], out["schedule"]
    fails = _depth_cap_failures(out["n"], out["depths"])
    if out["m"] != out["report"].trotter_steps:
        fails.append(f"synth used m = {out['m']}, bound_report "
                     f"{out['report'].trotter_steps}")
    if spec.l == 1:
        infid = L.simulator.gate_infidelity(out["target"], out["U"])
        if not infid < INFIDELITY_TOL:
            fails.append(f"single-term infidelity {infid:.3e}")
    else:
        err = L.simulator.normalized_error(out["target"], out["U"])
        if not err <= eps:
            fails.append(f"normalized error {err:.3e} > epsilon {eps}")
    bound = L.bounds.run_time_bound(spec, out["net"], eps, use_exact_depths=True)
    if not schedule.total_duration <= bound + 1e-9 * max(1.0, bound):
        fails.append(f"duration {schedule.total_duration} > bound {bound}")
    return fails


def check_optimize(L, item, out):
    pulses = out["pulses"]
    U = L.grape.propagate(out["net"], pulses)
    infid = L.simulator.gate_infidelity(out["target"], U)
    fails = []
    if abs(infid - pulses.achieved_infidelity) > PROPAGATE_TOL:
        fails.append(f"propagated infidelity {infid:.12g} != reported "
                     f"{pulses.achieved_infidelity:.12g}")
    if (out["net"].n == 3 and item["T"] < T_MIN_3SPIN
            and pulses.achieved_infidelity < item["tol"]):
        fails.append(f"T = {item['T']} below sqrt(3)/2 reached tol")
    return fails


def check_scan(pairs):
    """Over a whole run, some 3-spin item at T >= 3/2, the certified bound,
    reaches tol, so a scan that converges nowhere fails.  A single restart
    at T = 3/2 reaches tol in about 60% of seeds within 100 evaluations, so
    a run of 15 rounds or more misses by chance with odds near 1e-6."""
    if any(out is not None and out["net"].n == 3 and item["T"] >= T_BOUND_3SPIN
           and out["pulses"].achieved_infidelity < item["tol"]
           for item, out in pairs):
        return []
    return [f"no T >= {T_BOUND_3SPIN} reached tol"]


RUN = {"bound": run_bound, "bound_large": run_bound_large,
       "certify": run_certify, "optimize": run_optimize}
CHECK = {"bound": check_bound, "bound_large": check_bound_large,
         "certify": check_certify, "optimize": check_optimize}
# checks over a whole run's (item, outputs) pairs; failures count on its last item
RUN_CHECK = {"pulse": check_scan}

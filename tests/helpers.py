"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: matrix
comparisons go through numpy/scipy primitives on dense Kronecker forms, the
string-level depth search walks Pauli strings directly instead of support
sets, the lexicographic subset search finds depths and witnesses by
breadth-first search instead of from Steiner trees, words are parsed one
character at a time, and the schedule reference applies each Pauli of a
two-body step as a 2 x 2 matmul instead of as flips.  The JSON writers of
a network and a generator, a schedule's (v, u) listing and the step-by-step
witness replay live here too: the package reads those forms and builds
witnesses, but only the tests need them written back or replayed.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from gatebound import GeneratorSpec, PauliString, QubitNetwork, commutator, commutes
from gatebound.depth import GROW, SHRINK
from gatebound.errors import DomainError, ParseError
from gatebound.pauli import two_body
from gatebound.synthesis import LocalRotation

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_word(text: str) -> np.ndarray:
    """Independent dense form of a Pauli word, qubit 0 leftmost."""
    out = np.ones((1, 1), dtype=complex)
    for ch in text:
        out = np.kron(out, SINGLE[ch])
    return out


def parse_pauli_oracle(text: str) -> PauliString:
    """Per-character parse of an IXYZ word, qubit 0 leftmost."""
    if not isinstance(text, str) or len(text) == 0:
        raise ParseError("empty Pauli word (need at least one qubit)")
    bits = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    x = z = 0
    for pos, ch in enumerate(text):
        if ch not in bits:
            raise ParseError(f"invalid character {ch!r} at position {pos}")
        x |= bits[ch][0] << pos
        z |= bits[ch][1] << pos
    return PauliString(len(text), x, z, 0)


def _on_axis(U: np.ndarray, q: int, G: np.ndarray) -> np.ndarray:
    return (G @ U.reshape(2 ** q, 2, -1)).reshape(U.shape)


def matmul_schedule_unitary(schedule) -> np.ndarray:
    """Reference for the simulator's two-body step: each Pauli of the pair
    is a 2 x 2 matmul on its qubit axis.  Local rotations are merged and
    applied in the simulator's order, and Pauli entries are 0, +-1 or +-i,
    so the simulator's flips must agree with this to the bit.  Primitives
    are not validated."""
    U = np.eye(2 ** schedule.n, dtype=complex)
    pauli = {"x": X2, "y": Y2, "z": Z2}
    pending = {}
    for prim in schedule.primitives:
        if isinstance(prim, LocalRotation):
            (x, y, z), c, s = prim.axis, math.cos(prim.angle), math.sin(prim.angle)
            G = np.array([[c - 1j * s * z, -s * (y + 1j * x)],
                          [s * (y - 1j * x), c + 1j * s * z]])
            before = pending.get(prim.qubit)
            pending[prim.qubit] = G if before is None else G @ before
            continue
        (i, j), angle = prim.edge, prim.angle
        for q in (i, j):
            if q in pending:
                U = _on_axis(U, q, pending.pop(q))
        PU = _on_axis(_on_axis(U, j, pauli[prim.beta]), i, pauli[prim.alpha])
        U = math.cos(angle) * U + (1j * prim.sign * math.sin(angle)) * PU
    for q, G in pending.items():
        U = _on_axis(U, q, G)
    return np.linalg.matrix_power(U, schedule.repeat)


def word_rotation(word: PauliString, angle: float, sign: int = 1) -> np.ndarray:
    """exp(i*sign*angle*W) for a phase-0 word W on its Kronecker form; exact
    since W**2 = I."""
    if word.phase_exp != 0:
        raise ValueError("rotation words must carry phase 0")
    M = kron_word(str(word))
    return math.cos(angle) * np.eye(M.shape[0]) + 1j * sign * math.sin(angle) * M


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def all_strings(n: int, min_weight: int = 0):
    """Every phase-0 string on n qubits with at least the given weight."""
    for x in range(1 << n):
        for z in range(1 << n):
            p = PauliString(n, x, z)
            if p.weight >= min_weight:
                yield p


def _random_mask(rng, n: int) -> int:
    if n <= 62:
        return int(rng.integers(0, 1 << n))
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)


def random_word(rng, n: int, min_weight: int = 1) -> PauliString:
    while True:
        p = PauliString(n, _random_mask(rng, n), _random_mask(rng, n))
        if p.weight >= min_weight:
            return p


def random_spec(rng, n: int, l: int, coeff_range=(0.1, 1.0),
                min_weight: int = 1, require_noncommuting: bool = False) -> GeneratorSpec:
    """Random generator with distinct words and sign-symmetric coefficients."""
    while True:
        words = []
        seen = set()
        while len(words) < l:
            w = random_word(rng, n, min_weight=min_weight)
            key = (w.x_bits, w.z_bits)
            if key not in seen:
                seen.add(key)
                words.append(w)
        if require_noncommuting and l >= 2:
            pairs = [(i, j) for i in range(l) for j in range(i)]
            if all(commutes(words[i], words[j]) for i, j in pairs):
                continue
        coeffs = rng.uniform(*coeff_range, size=l) * rng.choice([-1.0, 1.0], size=l)
        return GeneratorSpec(tuple((float(a), w) for a, w in zip(coeffs, words)))


def spec_to_list(spec: GeneratorSpec) -> list:
    """The target file's JSON form of a generator, ``spec_from_list``'s inverse."""
    return [{"coeff": a, "pauli": str(p)} for a, p in spec.terms]


def commutator_weight_oracle(spec: GeneratorSpec) -> float:
    """The pair loop ``bounds.commutator_weight`` replaced, kept as its oracle:
    K = 2 * sum of |a_j a_k| over the anticommuting pairs j > k."""
    terms = spec.terms
    K = 2.0 * sum(abs(aj * ak)
                  for j, (aj, pj) in enumerate(terms)
                  for ak, pk in terms[:j] if not commutes(pj, pk))
    if not math.isfinite(K):
        raise DomainError("commutator weight overflows; coefficients too large")
    return K


def conjugator_choices_oracle(edge: tuple[int, int], grow_vertex_label: str | None,
                              fixed_vertex: int, changed_vertex: int,
                              fixed_label: str) -> list[tuple[str, str]]:
    """Every allowed two-body conjugator label pair on ``edge``, in
    lexicographic order; the ladder of ``synthesis`` takes the first.

    ``fixed_label`` is the current word's label on the edge endpoint that
    stays in the support; the conjugator must differ from it there.  At the
    changed vertex the label is pinned for grow steps (it must cancel) and
    free for shrink steps.
    """
    u, v = edge
    out = []
    for lu in "XYZ":
        for lv in "XYZ":
            label = {u: lu, v: lv}
            if label[fixed_vertex] == fixed_label:
                continue
            if grow_vertex_label is not None and label[changed_vertex] != grow_vertex_label:
                continue
            out.append((lu, lv))
    return out


def uniform_chain(n: int, g: float = 1.0, axes=(2, 2)) -> QubitNetwork:
    """Nearest-neighbour chain with a single coupling entry per edge."""
    tensor = np.zeros((3, 3))
    tensor[axes] = g
    return QubitNetwork(n=n, edges={(k, k + 1): tensor.copy() for k in range(n - 1)})


def complete_graph(n: int, g: float = 1.0) -> QubitNetwork:
    tensor = np.zeros((3, 3))
    tensor[2, 2] = g
    edges = {(i, j): tensor.copy() for i in range(n) for j in range(i + 1, n)}
    return QubitNetwork(n=n, edges=edges)


def star_full_local(n: int, g: float = 1.0) -> QubitNetwork:
    tensor = np.zeros((3, 3))
    tensor[2, 2] = g
    edges = {(0, k): tensor.copy() for k in range(1, n)}
    return QubitNetwork(n=n, edges=edges)


def grid_graph(rows: int, cols: int, g: float = 1.0) -> QubitNetwork:
    """rows x cols grid, vertex r*cols + c."""
    tensor = np.zeros((3, 3))
    tensor[2, 2] = g
    edges = {}
    for v in range(rows * cols):
        if v % cols + 1 < cols:
            edges[(v, v + 1)] = tensor.copy()
        if v + cols < rows * cols:
            edges[(v, v + cols)] = tensor.copy()
    return QubitNetwork(n=rows * cols, edges=edges)


def network_to_dict(net: QubitNetwork) -> dict:
    """The network file's full JSON form, ``network_from_dict``'s inverse."""
    return {
        "n": net.n,
        "control_model": net.control_model,
        "edges": [
            {"i": i, "j": j, "g": net.edges[(i, j)].tolist()}
            for (i, j) in sorted(net.edges)
        ],
        "omega": net.omega.tolist(),
    }


def vu_listing(schedule: dict) -> dict:
    """A schedule's JSON form with every evolution's edge and axes listed the
    other way round: (v, u) with beta, alpha for (u, v) with alpha, beta."""
    prims = [dict(p, edge=p["edge"][::-1], alpha=p["beta"], beta=p["alpha"])
             if p["kind"] == "two_body" else p for p in schedule["primitives"]]
    return dict(schedule, primitives=prims)


def random_connected_network(rng, n: int, extra_edges: int = 1,
                             entries_per_edge: int = 3) -> QubitNetwork:
    """Random spanning tree plus extra edges; couplings in +-[0.5, 1.5]."""
    edges = {}

    def tensor():
        g = np.zeros((3, 3))
        slots = rng.choice(9, size=min(entries_per_edge, 9), replace=False)
        for s in slots:
            g[s // 3, s % 3] = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        return g

    order = rng.permutation(n)
    for idx in range(1, n):
        u = int(order[idx])
        v = int(order[rng.integers(0, idx)])
        edges[(min(u, v), max(u, v))] = tensor()
    tries = 0
    while extra_edges > 0 and tries < 50:
        tries += 1
        u, v = rng.integers(0, n, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = tensor()
            extra_edges -= 1
    return QubitNetwork(n=n, edges=edges)


def replay_witness(start_edge: tuple[int, int], witness) -> frozenset[int]:
    """Apply witness steps to the start edge's support, checking each one."""
    support = {start_edge[0], start_edge[1]}
    for step in witness:
        u, v = step.edge
        if step.kind == GROW:
            anchor = u if step.vertex == v else v
            if step.vertex in support or anchor not in support:
                raise DomainError(f"invalid grow step {step}")
            support.add(step.vertex)
        elif step.kind == SHRINK:
            anchor = u if step.vertex == v else v
            if step.vertex not in support or anchor not in support:
                raise DomainError(f"invalid shrink step {step}")
            support.remove(step.vertex)
            if not support:
                raise DomainError(f"shrink step {step} emptied the support")
        else:
            raise DomainError(f"unknown step kind {step.kind!r}")
    return frozenset(support)


def string_depth_oracle(net: QubitNetwork) -> dict[tuple[int, int], int]:
    """String-level 0-1 BFS over Pauli strings themselves.

    States are (x, z) masks.  Moving inside a local-rotation orbit (same
    support, any labels) is free; taking the commutator with any of the
    nine two-body words on any edge costs one step.  Sources are all
    weight-2 strings supported on edges.  Returns distances keyed by
    (x_bits, z_bits).
    """
    n = net.n
    generators = [
        two_body(n, u, a, v, b)
        for (u, v) in sorted(net.edges)
        for a in "XYZ"
        for b in "XYZ"
    ]

    def orbit(p: PauliString):
        qubits = p.support
        labels = [("X", "Y", "Z")] * len(qubits)
        stack = [[]]
        for options in labels:
            stack = [prefix + [o] for prefix in stack for o in options]
        for choice in stack:
            x = z = 0
            for q, lab in zip(qubits, choice):
                xb, zb = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[lab]
                x |= xb << q
                z |= zb << q
            yield (x, z)

    # a whole orbit is reached the moment any member is: assign the class
    # atomically, then this is a plain BFS over strings
    dist: dict[tuple[int, int], int] = {}
    queue = deque()

    def assign_orbit(p: PauliString, d: int) -> None:
        for nk in orbit(p):
            if nk not in dist:
                dist[nk] = d
                queue.append(nk)

    for g in generators:
        assign_orbit(g, 0)

    while queue:
        key = queue.popleft()
        d = dist[key]
        p = PauliString(n, key[0], key[1])
        for g in generators:
            c = commutator(g, p)
            if c is None:
                continue
            if (c.x_bits, c.z_bits) not in dist:
                assign_orbit(c.bare(), d + 1)
    return dist


def lexicographic_depth_oracle(net: QubitNetwork) -> dict[int, tuple]:
    """Subset BFS keeping the lexicographically smallest shortest witness.

    Maps every reachable support bitmask to (start_edge, steps), steps as
    (kind, edge, vertex) tuples with "grow" < "shrink".  Each level's
    frontier stays in witness order, so ties resolve to the smallest
    (first step, start edge, remaining steps).  A witness depends only on
    its own support, so one search serves every support of the graph.
    """
    edges = sorted(net.edges)

    def moves(mask):
        out = []
        for (u, v) in edges:
            u_in, v_in = mask >> u & 1, mask >> v & 1
            if u_in != v_in:
                w = v if u_in else u
                out.append((("grow", (u, v), w), mask | (1 << w)))
        for (u, v) in edges:
            if mask >> u & 1 and mask >> v & 1:
                out.append((("shrink", (u, v), u), mask & ~(1 << u)))
                out.append((("shrink", (u, v), v), mask & ~(1 << v)))
        return out

    parent: dict[int, tuple] = {}
    frontier = []
    for (u, v) in edges:
        mask = (1 << u) | (1 << v)
        parent[mask] = (None, (u, v))
        frontier.append(mask)
    first_level = True
    while frontier:
        candidates = []
        for idx, mask in enumerate(frontier):
            for step, nxt in moves(mask):
                key = (step, idx) if first_level else (idx, step)
                candidates.append((key, step, mask, nxt))
        candidates.sort(key=lambda c: c[0])
        first_level = False
        frontier = []
        for _, step, mask, nxt in candidates:
            if nxt not in parent:
                parent[nxt] = (mask, step)
                frontier.append(nxt)

    out = {}
    for target in parent:
        steps, mask = [], target
        while parent[mask][0] is not None:
            mask, step = parent[mask]
            steps.append(step)
        out[target] = (parent[mask][1], tuple(reversed(steps)))
    return out

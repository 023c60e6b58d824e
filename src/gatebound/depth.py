"""Nested-commutator depth of Pauli words over a network's two-body terms.

With free local rotations on every qubit, the label content of a word is
irrelevant: a word can be produced by a nested commutator of two-body edge
terms iff its *support* can be walked to from a single edge by steps that
grow or shrink the support one vertex at a time along edges (the
equivalence is checked against a string-level search in the test suite).
Depth is the length of the shortest such walk.  For a support S of two or
more qubits on a connected graph it has the closed form

    depth(S) = 2*st(S) - |S| - 2,

where st(S) is the size of a minimal Steiner set: the fewest vertices of a
connected vertex set U that contains S.

* Lower bound: the vertices a walk visits form a connected U containing S;
  each vertex of U outside the start edge is grown at least once and each
  vertex of U outside S is shrunk at least once.
* Upper bound: start on an edge of G[U], grow the rest of U, then shrink
  U \\ S, each time removing a vertex whose removal leaves a vertex of S in
  every component of the support (the vertex of U \\ S farthest from S
  always qualifies).

U is S itself when the induced subgraph G[S] is connected, and S plus a
shortest path found by one BFS when G[S] has two components.  Otherwise, on
a tree it is what remains after pruning leaves outside S, in O(n); on other
graphs the Dreyfus-Wagner program (Networks 1:195-207, 1971) finds it on
the leaf-pruned graph with each component contracted to a node.  No
all-pairs distances are formed: each subset's merged costs spread over the
graph by one Dijkstra search (Erickson, Monma and Veinott, Math. Oper.
Res. 12:634-664, 1987), so c components of G[S] on N nodes and |E| edges
take O(3**c * N + 2**c * |E| log N) time and O(2**c * N) memory.

Witness rule: steps compare as (kind, edge, vertex) tuples with "grow" <
"shrink", and the witness is the smallest shortest walk ranked by (first
step, start edge, remaining steps).  Every shortest walk visits a minimal
Steiner set, and moving all of its grow steps to the front keeps it valid,
so on a given U the smallest walk grows U greedily (smallest available step
first) and then shrinks greedily (smallest step that keeps a vertex of S in
every component).  When U is unique -- on every tree, and whenever G[S] is
connected -- this is the smallest shortest walk overall.  When several
minimal Steiner sets exist, the contract is this: U is the one the
Dreyfus-Wagner recursion reconstructs (for two components, the path the
BFS walks back), taking at every choice the first minimizer in contracted
node order -- components first, in order of least vertex, then the other
vertices in increasing order.  The test suite pins these witnesses.

The greedy shrink keys each y in U \\ S by its least step, (edge to its
least neighbour left, y), in a heap.  Removing y keeps a vertex of S in
every component iff one search from S inside the rest reaches all of it;
a leaf needs no search.  A y that fails leaves the heap until a neighbour
of y is removed, as until then a component of the rest next to y still
misses S.  Each heap entry costs at most one search: O(|E(U)|**2) time at
worst (a chain numbered at random), O(|U| log |U|) when leaves go first.

Every weight >= 2 word on a connected n-qubit graph has depth at most
2*(n-2): grow to full support along a spanning tree, then shrink.

``max_depth_table`` uses the same identity for all 2**n supports at once,
with st(S) read off a table of the connected vertex sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .network import QubitNetwork, canonical_edge, components, distances, require_full_local
from .pauli import PauliString

MAX_TABLE_QUBITS = 20
# Dreyfus-Wagner takes about 3**(c-1)/2 split rows and 2**(c-1) graph
# searches for c components of G[S]
MAX_STEINER_COMPONENTS = 13

GROW = "grow"
SHRINK = "shrink"


@dataclass(frozen=True)
class DepthStep:
    """One unit-cost move: change `vertex` via `edge` touching the support."""

    kind: str  # "grow" | "shrink"
    edge: tuple[int, int]
    vertex: int


@dataclass(frozen=True)
class DepthResult:
    witness: tuple[DepthStep, ...]
    start_edge: tuple[int, int]

    @property
    def depth(self) -> int:
        return len(self.witness)


def depth_upper_bound(n: int) -> int:
    """Analytic fallback 2*(n-2), clamped at 0."""
    if n < 2:
        raise DomainError("depth bound needs n >= 2")
    return max(0, 2 * (n - 2))


def _prune_leaves(adj, terminals) -> set[int]:
    """Strip leaves outside the terminals until none is left: on a tree, the minimal
    Steiner set; stripped vertices lie on no shortest path between kept ones."""
    degree = [len(nbrs) for nbrs in adj]
    keep = set(range(len(adj)))
    leaves = [v for v in keep if degree[v] == 1 and v not in terminals]
    while leaves:
        v = leaves.pop()
        keep.remove(v)
        for w in adj[v]:
            if w in keep:
                degree[w] -= 1
                if degree[w] == 1 and w not in terminals:
                    leaves.append(w)
    return keep


def _join_two(adj, comps) -> set[int]:
    """Inner vertices of the path Dreyfus-Wagner's ``path`` would take: a BFS from the
    first component, walked back from the second to the least vertex one step nearer."""
    dist = distances(adj, comps[0], range(len(adj)))
    d = min(dist[x] for x in comps[1])
    v = min(w for x in comps[1] for w in adj[x] if dist[w] == d - 1)
    joined = set()
    while dist[v]:
        joined.add(v)
        v = min(w for w in adj[v] if dist[w] == dist[v] - 1)
    return joined


def _dreyfus_wagner(adj, keep, comps) -> set[int]:
    """Fewest vertices outside the components that join them all within ``keep``.

    Each component of G[S] is contracted to one terminal node (nodes
    0..c-1); the other vertices follow in increasing order.  With unit
    edge lengths a Steiner tree on c terminals and s other nodes has
    c + s - 1 edges, so the cheapest tree needs the fewest extra vertices.
    """
    c = len(comps)
    if c > MAX_STEINER_COMPONENTS:
        raise ResourceLimitError(
            f"support splits into {c} components; the Steiner search is "
            f"capped at {MAX_STEINER_COMPONENTS}"
        )
    node = {v: i for i, comp in enumerate(comps) for v in comp}
    inner = [v for v in sorted(keep) if v not in node]
    node.update((v, c + i) for i, v in enumerate(inner))
    N = c + len(inner)
    nbrs = [set() for _ in range(N)]
    for u in keep:
        for w in adj[u]:
            if w in keep and node[u] != node[w]:
                nbrs[node[u]].add(node[w])
    nbrs = [sorted(s) for s in nbrs]

    # dp[mask][v]: cheapest tree joining terminal set `mask` (of terminals
    # 0..k-1) and node v.  Root terminal k closes the tree.
    k = c - 1
    dp = np.zeros((1 << k, N), dtype=np.int64)
    via = [None] * (1 << k)
    split = [None] * (1 << k)
    for t in range(k):
        dist = distances(nbrs, (t,), range(N))
        dp[1 << t, list(dist)] = list(dist.values())
    for mask in range(1, 1 << k):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        subs = []
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # each unordered split once
                subs.append(sub)
            sub = (sub - 1) & mask
        subs = np.array(subs)
        cand = dp[subs] + dp[mask ^ subs]
        split[mask] = subs[cand.argmin(axis=0)]  # the first least split, as listed
        # spread: key[w] = least (cost, v) of cand.min()[v] + d(v, w), packed as
        # cost * N + v, by Dijkstra seeded with the edge steps that improve a key
        key = (cand.min(axis=0) * N + np.arange(N)).tolist()
        heap = [(key[u] + N, w) for u in range(N) for w in nbrs[u] if key[u] + N < key[w]]
        heapq.heapify(heap)
        while heap:
            kw, w = heapq.heappop(heap)
            if kw < key[w]:
                key[w] = kw
                for x in nbrs[w]:
                    if kw + N < key[x]:
                        heapq.heappush(heap, (kw + N, x))
        dp[mask], via[mask] = np.divmod(key, N)

    chosen: set[int] = set()

    def path(v: int, t: int) -> None:
        dist = distances(nbrs, (t,), range(N))
        chosen.add(v)
        while v != t:
            v = next(w for w in nbrs[v] if dist[w] == dist[v] - 1)
            chosen.add(v)

    def build(mask: int, v: int) -> None:
        if mask & (mask - 1) == 0:
            path(v, mask.bit_length() - 1)
            return
        u = int(via[mask][v])
        path(v, u)
        sub = int(split[mask][u])
        build(sub, u)
        build(mask ^ sub, u)

    build((1 << k) - 1, k)
    return {inner[i - c] for i in chosen if i >= c}


def _steiner_set(net: QubitNetwork, adj, terminals: frozenset) -> set[int]:
    comps = components(adj, terminals)
    if len(comps) == 1:
        return set(terminals)
    if len(comps) == 2:
        return set(terminals) | _join_two(adj, comps)
    keep = _prune_leaves(adj, terminals)
    if len(net.edges) == net.n - 1:
        return keep
    return set(terminals) | _dreyfus_wagner(adj, keep, comps)


def _smallest_walk(adj, U: set[int], terminals: frozenset):
    """(start edge, steps) of the smallest shortest walk visiting U."""
    adj = {v: [w for w in adj[v] if w in U] for v in sorted(U)}
    edges = [(v, w) for v in adj for w in adj[v] if v < w]  # sorted
    if len(U) == 2:
        return edges[0], []
    # the first step from each start edge is its smallest grow step
    _, start = min(
        (min((canonical_edge(x, w), w) for x in e for w in adj[x] if w not in e), e)
        for e in edges
    )
    support = set(start)
    steps = []
    heap = [(canonical_edge(x, w), w) for x in start for w in adj[x] if w not in support]
    heapq.heapify(heap)
    while len(support) < len(U):
        edge, w = heapq.heappop(heap)
        if w in support:
            continue
        support.add(w)
        steps.append(DepthStep(GROW, edge, w))
        for x in adj[w]:
            if x not in support:
                heapq.heappush(heap, (canonical_edge(w, x), x))

    def key(y):  # y's least shrink step: the edge to its least neighbour left
        return canonical_edge(y, next(w for w in adj[y] if w in support)), y

    heap = [key(y) for y in support - terminals]
    heapq.heapify(heap)
    while len(support) > len(terminals):
        edge, y = entry = heapq.heappop(heap)
        if y not in support or entry != key(y):
            continue  # stale
        support.remove(y)
        # every component left must keep a terminal: a leaf's does, else search once
        if (sum(w in support for w in adj[y]) > 1
                and len(distances(adj, terminals, support)) < len(support)):
            support.add(y)  # dropped until a neighbour of y leaves
            continue
        steps.append(DepthStep(SHRINK, edge, y))
        for w in adj[y]:
            if w in support and w not in terminals:
                heapq.heappush(heap, key(w))
    return start, steps


def _check_support(n: int, support) -> frozenset:
    """The qubits of a support: two or more, each in 0..n-1 (checked in the order given)."""
    qubits = tuple(support)
    for q in qubits:
        if not 0 <= q < n:
            raise DomainError(f"qubit {q} outside 0..{n - 1}")
    if len(set(qubits)) < 2:
        raise DomainError("depth is defined for supports of two or more qubits")
    return frozenset(qubits)


def depth_of_support(net: QubitNetwork, support) -> DepthResult:
    """Exact depth of a support set (>= 2 vertices) with a shortest witness."""
    require_full_local(net)
    terminals = _check_support(net.n, support)
    U = _steiner_set(net, net.adjacency, terminals)
    start, steps = _smallest_walk(net.adjacency, U, terminals)
    return DepthResult(tuple(steps), start)


def depth(net: QubitNetwork, word: PauliString) -> DepthResult:
    """Exact commutator depth of a Pauli word's support over the network."""
    if word.n != net.n:
        raise DomainError(
            f"word on {word.n} qubits does not match network of {net.n}"
        )
    if word.weight < 2:
        raise DomainError(
            "weight-0/1 words are not produced by commutators of two-body "
            "terms; weight-1 rotations are free local controls"
        )
    return depth_of_support(net, word.support)


@dataclass(frozen=True, eq=False)
class DepthTable:
    """Exact depths of every support of weight >= 2, summarized per weight."""

    n: int
    max_depth: int
    per_weight: dict[int, int]
    _depths: np.ndarray  # read-only, indexed by support bitmask

    def support_depth(self, support) -> int:
        mask = sum(1 << q for q in _check_support(self.n, support))
        return int(self._depths[mask])


def max_depth_table(net: QubitNetwork) -> DepthTable:
    """depth(S) = 2*st(S) - |S| - 2 for all 2**n supports at once.

    The connected vertex sets are marked a popcount layer at a time (U is
    connected iff some v in U has U \\ v connected and a neighbour in
    U \\ v); then st(S), the least |U| over connected U containing S, is a
    superset minimum taken one bit at a time.
    """
    require_full_local(net)
    if net.n > MAX_TABLE_QUBITS:
        raise ResourceLimitError(
            f"{net.n} qubits exceed the {MAX_TABLE_QUBITS}-qubit table cap"
        )
    n = net.n
    adj_mask = [sum(1 << w for w in nbrs) for nbrs in net.adjacency]
    weight = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        weight[1 << b:2 << b] = weight[:1 << b] + 1
    connected = weight == 1
    layers = {k: np.flatnonzero(weight == k) for k in range(2, n + 1)}
    for U in layers.values():
        ok = np.zeros(len(U), dtype=bool)
        for v in range(n):
            # for v outside U, rest is U itself, still unmarked in `connected`
            rest = U & ~(1 << v)
            ok |= connected[rest] & (rest & adj_mask[v] != 0)
        connected[U] = ok
    # the whole vertex set is connected, so every support has st <= n
    st = np.where(connected, weight, np.int8(n))
    for b in range(n):
        pairs = st.reshape(-1, 2, 1 << b)
        np.minimum(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    depths = 2 * st - weight - 2
    depths.flags.writeable = False
    per_weight = {k: int(depths[U].max()) for k, U in layers.items()}
    return DepthTable(n=n, max_depth=max(per_weight.values()),
                      per_weight=per_weight, _depths=depths)

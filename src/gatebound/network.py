"""Qubit coupling graphs with per-edge 3x3 coupling tensors.

A network is an undirected connected graph whose vertices are qubits.
Every edge (i, j) carries a real 3x3 tensor ``g[a][b]`` coupling axis a on
qubit i to axis b on qubit j (angular frequency units), and every qubit
carries a 3-vector of energy splittings.  The tensors are stored once, as
one read-only (E, 3, 3) array in input order.  An edge may be given either
way round; it is stored as (min, max), with g transposed when i > j, and a
pair given twice is a ``DomainError``.  Two control models are tagged:

* ``full_local``  -- two unconstrained orthogonal controls per qubit,
* ``star_reduced`` -- x/y controls on the hub plus one z control per leaf.

Splittings play no role in bounds or synthesis (they are absorbed by the
free local controls); the simulator may include them.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from math import isfinite, pi
from sys import float_info

import numpy as np

from .errors import DomainError, ParseError, ResourceLimitError

AXES = ("x", "y", "z")
CONTROL_MODELS = ("full_local", "star_reduced")
MAX_PRESET_QUBITS = 10_000  # a preset file's one number sizes every edge


def canonical_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def distances(adjacency, sources, within) -> dict[int, int]:
    """Fewest edges from the nearest source to each vertex, by a BFS inside ``within``."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in within and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def components(adjacency, vertices) -> list[set[int]]:
    """Connected components of the induced subgraph, in order of least vertex."""
    comps, seen = [], set()
    for s in sorted(vertices):
        if s not in seen:
            comps.append(set(distances(adjacency, (s,), vertices)))
            seen |= comps[-1]
    return comps


@dataclass(frozen=True, eq=False)
class QubitNetwork:
    """Connected coupling graph; immutable after construction."""

    n: int
    edges: dict[tuple[int, int], np.ndarray]
    omega: np.ndarray = None
    control_model: str = "full_local"
    couplings: np.ndarray = field(init=False, repr=False)  # (E, 3, 3), edges in input order
    # each qubit's neighbours, sorted
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("a network needs at least two qubits")
        if self.control_model not in CONTROL_MODELS:
            raise DomainError(f"unknown control model {self.control_model!r}")
        keys = {}  # canonical edge -> the listing it came as, in input order
        for i, j in self.edges:
            if i == j:
                raise DomainError(f"self-loop on qubit {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise DomainError(f"edge ({i},{j}) outside 0..{self.n - 1}")
            if keys.setdefault(canonical_edge(i, j), (i, j)) != (i, j):
                raise DomainError(f"edge {canonical_edge(i, j)} is given twice")
        if len(keys) < self.n - 1:  # refused before n sizes anything
            raise DomainError("the coupling graph must be connected")
        try:
            couplings = np.array(list(self.edges.values()), dtype=float)
        except (TypeError, ValueError):  # unequal shapes, or a non-number refused below
            couplings = None
        if couplings is None or couplings.shape[1:] != (3, 3):
            for (i, j), g in self.edges.items():
                if np.shape(g) != (3, 3):
                    raise DomainError(f"edge ({i},{j}) coupling tensor is not 3x3")
            raise DomainError("couplings must be real numbers")  # shapes are fine: a non-number
        for fault, bad in (("has non-finite couplings", ~np.isfinite(couplings).all(axis=(1, 2))),
                           ("has all-zero couplings", ~couplings.any(axis=(1, 2)))):
            if bad.any():
                raise DomainError("edge ({},{}) {}".format(*list(self.edges)[bad.argmax()], fault))
        flipped = [i > j for i, j in self.edges]
        couplings[flipped] = couplings[flipped].transpose(0, 2, 1)
        couplings.setflags(write=False)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "edges", dict(zip(keys, couplings)))

        try:
            omega = np.array(np.zeros((self.n, 3)) if self.omega is None else self.omega,
                             dtype=float)
        except (TypeError, ValueError):
            raise DomainError(f"omega must be an ({self.n}, 3) array of real numbers") from None
        if omega.shape != (self.n, 3):
            raise DomainError(f"omega must have shape ({self.n}, 3)")
        if not np.all(np.isfinite(omega)):
            raise DomainError("omega has non-finite splittings")
        omega.setflags(write=False)
        object.__setattr__(self, "omega", omega)

        adjacency = [[] for _ in range(self.n)]
        for (i, j) in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        object.__setattr__(self, "adjacency", adjacency)
        if len(distances(adjacency, (0,), range(self.n))) < self.n:
            raise DomainError("the coupling graph must be connected")

    def edge_tensor(self, edge: tuple[int, int]) -> np.ndarray:
        """The read-only tensor stored for (min, max) of the edge: its row
        axis is on the smaller qubit, whichever way round ``edge`` is."""
        key = canonical_edge(*edge)
        try:
            return self.edges[key]
        except KeyError:
            raise DomainError(f"no edge {edge} in the network") from None


def min_coupling(net: QubitNetwork) -> float:
    """Smallest nonzero |g| entry over all edges (sets the global time scale).

    Zero entries are absent interaction terms, not infinitely slow ones, so
    they are excluded from the minimum.
    """
    magnitudes = np.abs(net.couplings)
    return float(magnitudes[magnitudes != 0].min())


def strongest_couplings(net: QubitNetwork, edge: tuple[int, int]) -> list:
    """(alpha, beta, g) of every largest-|g| entry of the edge tensor, in
    row-major order; alpha is the axis on the edge's smaller qubit.  These
    are the terms the drift can run; synthesis runs the first."""
    rows = net.edge_tensor(edge).tolist()
    best = max(abs(g) for row in rows for g in row)
    return [(AXES[a], AXES[b], g) for a, row in enumerate(rows)
            for b, g in enumerate(row) if abs(g) == best]


def edge_best_coupling(net: QubitNetwork, edge: tuple[int, int]) -> float:
    """Largest |g| entry on one edge; the scheduler evolves under this one,
    since free local rotations map it onto any axis pair."""
    return abs(strongest_couplings(net, edge)[0][2])


def require_full_local(net: QubitNetwork) -> None:
    """Depths, schedules and their bounds need two free local controls per qubit."""
    if net.control_model != "full_local":
        raise DomainError(
            f"the {net.control_model} control model has no full_local depth, "
            "schedule or bound; the star graph's bound is star_term_bound")


# ---------------------------------------------------------------------------
# presets

def _chain(n: int, J: float, axes: tuple[int, ...]) -> QubitNetwork:
    """Nearest-neighbour chain with g[a, a] = (pi/2)*J for each a in ``axes``."""
    g = np.zeros((3, 3))
    g[axes, axes] = pi / 2 * J
    return QubitNetwork(n=n, edges={(k, k + 1): g for k in range(n - 1)})


def ising_chain(n: int, J: float = 1.0) -> QubitNetwork:
    """Nearest-neighbour chain with drift (pi/2)*J * sum_k Z_k Z_{k+1}."""
    return _chain(n, J, (2,))


def heisenberg_chain(n: int, J: float = 1.0) -> QubitNetwork:
    """Nearest-neighbour chain with drift (pi/2)*J * sum_k (XX + YY)."""
    return _chain(n, J, (0, 1))


def star(n: int, J: float = 1.0) -> QubitNetwork:
    """Hub qubit 0 coupled to n-1 leaves by J*(XX + YY), leaves split by J
    along y; reduced control set (x/y on the hub, z on each leaf)."""
    if n < 2:
        raise DomainError("star needs n >= 2")
    g = np.zeros((3, 3))
    g[0, 0] = J
    g[1, 1] = J
    edges = {(0, k): g for k in range(1, n)}
    omega = np.zeros((n, 3))
    omega[1:, 1] = J
    return QubitNetwork(n=n, edges=edges, omega=omega, control_model="star_reduced")


_PRESETS = {
    "ising_chain": ising_chain,
    "heisenberg_chain": heisenberg_chain,
    "star": star,
}


# ---------------------------------------------------------------------------
# JSON form

def network_from_dict(data: dict) -> QubitNetwork:
    """Build a network from its JSON dict form or a preset shorthand.

    Full form::

        {"n": 3, "control_model": "full_local",
         "edges": [{"i": 0, "j": 1, "g": [[...3x3...]]}, ...],
         "omega": [[wx, wy, wz], ...]}            # optional

    Preset shorthand, with n at most ``MAX_PRESET_QUBITS``::

        {"preset": "ising_chain" | "heisenberg_chain" | "star",
         "n": 3, "J": 1.0}
    """
    if not isinstance(data, dict):
        raise ParseError("network description must be a JSON object")
    if "preset" in data:
        kind = data["preset"]
        if not isinstance(kind, str) or kind not in _PRESETS:
            raise ParseError(f"unknown preset {kind!r}")
        try:
            n, J = json_int(data["n"]), json_number(data.get("J", 1.0))
        except (KeyError, ValueError):
            raise ParseError("preset form needs an integer 'n' and a number 'J'") from None
        if n > MAX_PRESET_QUBITS:
            raise ResourceLimitError(
                f"preset n = {n} exceeds the {MAX_PRESET_QUBITS}-qubit preset cap")
        return _PRESETS[kind](n, J)
    try:
        n = json_int(data["n"])
        raw_edges = list(data["edges"])
        omega = data.get("omega")
        if omega is not None and not _numbers([omega]):
            raise ValueError("omega is not nested lists of numbers")
    except (KeyError, TypeError, ValueError):
        raise ParseError("network JSON needs integer 'n', 'edges', numeric 'omega'") from None
    edges = {}
    for entry in raw_edges:
        try:
            edge = (json_int(entry["i"]), json_int(entry["j"]))
            g = entry["g"]
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"malformed edge entry {entry!r}") from None
        if edge in edges:
            raise DomainError(f"edge {canonical_edge(*edge)} is given twice")
        edges[edge] = g
    if not _numbers(list(edges.values())):  # name the first malformed entry, if one is
        for entry in raw_edges:
            if not _numbers([entry["g"]]):
                raise ParseError(f"malformed edge entry {entry!r}")
    model = data.get("control_model", "full_local")
    return QubitNetwork(n=n, edges=edges, omega=omega, control_model=model)


def json_int(value) -> int:
    """A JSON integer as it is; a float, string or bool is a ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def json_number(value) -> float:
    """A JSON number as a float; a bool, a string or an out-of-range int is a ``ValueError``."""
    if type(value) not in (int, float) or abs(value) > float_info.max:
        raise ValueError(f"{value!r} is not a number in the float range")
    return float(value)


def _numbers(values: list) -> bool:
    """Whether the items are JSON numbers in the float range, or lists of one
    length nested to one depth whose leaves are; one pass per depth over all."""
    while (kinds := set(map(type, values))) == {list}:
        if len(set(map(len, values))) > 1:
            return False
        values = list(chain.from_iterable(values))
    ints = [v for v in values if type(v) is int] if int in kinds else ()
    return kinds <= {int, float} and max(map(abs, ints), default=0) <= float_info.max


def _finite_float(text: str) -> float:
    value = float(text)
    if not isfinite(value):  # NaN, Infinity, or a literal such as 1e999
        raise ValueError(f"number {text} is not finite")
    return value


def read_json(path):
    """Contents of a JSON file; unreadable content is a ``ParseError``."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_float=_finite_float,
                             parse_constant=_finite_float)
        except ValueError as exc:  # bad syntax, bad encoding, over-long integers
            raise ParseError(f"invalid JSON in {path}: {exc}") from None


def dump_json(payload) -> str:
    """The package's JSON form: one compact line; non-finite is a ``DomainError``."""
    try:
        return json.dumps(payload, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("result is not finite; inputs too large") from None


def load_network(path) -> QubitNetwork:
    return network_from_dict(read_json(path))

"""Constructive control schedules realizing exp(i * sum_i a_i P_i).

Primitives are zero-duration local rotations (unconstrained local controls
act instantaneously) and timed two-body evolutions.  A two-body evolution
on an edge realizes exp(+-i*k*s_a s_b) in time k/|g|, where |g| is the
strongest native coupling on that edge; the instantaneous interaction
selection and axis relabelling are abstracted into the surrounding
zero-time rotations.

A weight-w word is produced by a conjugation ladder along a shortest
grow/shrink witness: a core two-body rotation of angle |a| wrapped in one
pair of pi/4 two-body conjugators per witness step.  Each conjugator pair
costs at most pi/(2*J), so a depth-D word costs at most (D*pi/2 + |a|)/J.
A multi-term generator's schedule is one term-by-term pass with angles
a_i/m, stored once and run m times (``Schedule.repeat``), where m comes
from the first-order product-formula error bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain

from . import bounds
from .bounds import BoundReport, GeneratorSpec
from .depth import DepthResult, GROW
from .errors import DimensionError, DomainError, ParseError, require_qubit
from .network import (AXES, QubitNetwork, dump_json, json_int, json_number, read_json,
                      strongest_couplings)
from .pauli import PauliString, multiply, two_body

_UNIT = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
# Levi-Civita sign eps[a][b] such that s_a s_b = i*eps*s_c for distinct axes
_EPS = {("x", "y"): 1, ("y", "z"): 1, ("z", "x"): 1,
        ("y", "x"): -1, ("z", "y"): -1, ("x", "z"): -1}
# pi/2 - float(pi/2), to within 1e-33: the rounding a float pi/2 leaves out
_HALF_PI_LO = math.cos(math.pi / 2)


@dataclass(frozen=True)
class LocalRotation:
    """Zero-duration rotation exp(-i*angle*(axis . sigma)) on one qubit."""

    qubit: int
    axis: tuple[float, float, float]
    angle: float

    @property
    def duration(self) -> float:
        return 0.0


def _oriented(edge, alpha: str, beta: str, sign: int):
    """(edge as (min, max), alpha, beta), each axis kept on its own qubit; a
    sign other than +-1 or an axis label outside x, y, z is a ``DomainError``."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if alpha not in AXES or beta not in AXES:
        raise DomainError("axes must be one of x, y, z")
    u, v = edge
    return ((u, v), alpha, beta) if u <= v else ((v, u), beta, alpha)


@dataclass(frozen=True)
class TwoBodyEvolution:
    """Timed evolution exp(i*sign*angle*s_alpha s_beta) on one edge, stored
    as (min, max) with alpha on its smaller qubit whichever way it is given.
    ``duration = angle / |g_used|`` with g_used the native coupling it runs
    on (the strongest entry of the edge tensor); the drift runs it forward
    only, so sign = -sgn(g_used).
    """

    edge: tuple[int, int]
    alpha: str
    beta: str
    sign: int
    angle: float
    g_used: float

    def __post_init__(self):
        for name, value in zip(("edge", "alpha", "beta"),
                               _oriented(self.edge, self.alpha, self.beta, self.sign)):
            object.__setattr__(self, name, value)
        if not 0 <= self.angle < math.inf:  # NaN fails too
            raise DomainError(f"angle must be finite and >= 0 (flip the sign), got {self.angle}")
        if self.g_used == 0:
            raise DomainError("g_used must be nonzero")

    @property
    def duration(self) -> float:
        return self.angle / abs(self.g_used)


@dataclass(frozen=True)
class Schedule:
    """Ordered control primitives, run ``repeat`` times in a row; the first
    primitive acts first."""

    n: int
    primitives: tuple
    repeat: int = 1

    def __post_init__(self):
        # bool is an int subclass, but True is not a repetition count; past
        # the largest float, total_duration could not be formed
        if type(self.repeat) is not int or not 1 <= self.repeat <= sys.float_info.max:
            raise DomainError(f"repeat must be an integer from 1 to the largest float, "
                              f"got {self.repeat!r}")

    @property
    def total_duration(self) -> float:
        return self.repeat * sum((p.duration for p in self.primitives), 0.0)


def check_schedule(net: QubitNetwork, schedule: Schedule) -> None:
    """Refuse a schedule the network cannot run: one on another qubit count
    (``DimensionError``), or a primitive that is neither a rotation about a
    unit 3-vector axis on one of its qubits nor an evolution on a strongest
    coupling of one of its edges, on that entry's axes and with the sign the
    drift gives, or a rotation whose angle is not finite (``DomainError``)."""
    if schedule.n != net.n:
        raise DimensionError(
            f"schedule on {schedule.n} qubits does not match network of {net.n}"
        )
    for prim in schedule.primitives:
        if isinstance(prim, LocalRotation):
            norm = math.hypot(*prim.axis)
            if len(prim.axis) != 3 or not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
                raise DomainError(f"rotation axis must be a unit 3-vector, got {prim.axis}")
            require_qubit(prim.qubit, net.n)
            if not math.isfinite(prim.angle):  # an evolution's own constructor refuses it
                raise DomainError(f"angle {prim.angle} is not finite")
        elif isinstance(prim, TwoBodyEvolution):
            strongest = strongest_couplings(net, prim.edge)  # raises on unknown edges
            g_used = prim.g_used
            # the drift term g*s_a s_b only ever runs as exp(-i*t*g*s_a s_b)
            if (not (math.isfinite(g_used) and any(
                    (a, b) == (prim.alpha, prim.beta) and abs(g - g_used) <= 1e-9 * abs(g_used)
                    for a, b, g in strongest))
                    or prim.sign != (-1 if g_used > 0 else 1)):
                raise DomainError(
                    f"evolution {prim.alpha}{prim.beta} claims sign {prim.sign:+d} on "
                    f"coupling {g_used} of edge {prim.edge}, but the drift runs its "
                    f"strongest entries, +-{abs(strongest[0][2])}, on their own axes "
                    f"with sign -sgn(g) only")
        else:
            raise DomainError(f"unknown primitive {prim!r}")


# ---------------------------------------------------------------------------
# JSON form

def schedule_to_dict(s: Schedule) -> dict:
    prims = []
    for p in s.primitives:
        if isinstance(p, LocalRotation):
            prims.append({"kind": "local", "qubit": p.qubit,
                          "axis": list(p.axis), "angle": p.angle,
                          "duration": 0.0})
        else:
            prims.append({"kind": "two_body", "edge": list(p.edge),
                          "alpha": p.alpha, "beta": p.beta,
                          "sign": "+" if p.sign > 0 else "-",
                          "angle": p.angle, "duration": p.duration,
                          "g_used": p.g_used})
    return {"n": s.n, "repeat": s.repeat, "total_duration": s.total_duration,
            "primitives": prims}


def schedule_from_dict(data: dict) -> Schedule:
    """Schedule from its JSON form; a missing ``"repeat"`` means one run."""
    try:
        n = json_int(data["n"])
        raw = list(data["primitives"])
        repeat = data.get("repeat", 1)
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ParseError("schedule JSON needs an integer 'n' and 'primitives'") from None
    prims = []
    for entry in raw:
        try:
            kind = entry["kind"]
            if kind == "local":
                x, y, z = entry["axis"]
                prims.append(LocalRotation(
                    qubit=json_int(entry["qubit"]),
                    axis=(json_number(x), json_number(y), json_number(z)),
                    angle=json_number(entry["angle"]),
                ))
            elif kind == "two_body":
                u, v = entry["edge"]
                prims.append(TwoBodyEvolution(
                    edge=(json_int(u), json_int(v)),
                    alpha=entry["alpha"], beta=entry["beta"],
                    sign={"+": 1, "-": -1}[entry["sign"]],
                    angle=json_number(entry["angle"]),
                    g_used=json_number(entry["g_used"]),
                ))
            else:
                raise ParseError(f"unknown primitive kind {kind!r}")
        except (ParseError, DomainError):  # a parsed evolution the constructor refuses
            raise
        except (KeyError, TypeError, ValueError, IndexError):
            raise ParseError(f"malformed primitive {entry!r}") from None
    try:
        return Schedule(n, tuple(prims), repeat)
    except DomainError as exc:  # a bad repeat count
        raise ParseError(str(exc)) from None


def load_schedule(path) -> Schedule:
    return schedule_from_dict(read_json(path))


def save_schedule(s: Schedule, path) -> None:
    """Write the schedule as ``dump_json`` does, the same bytes as ``synth -o``.

    A non-finite value is a ``DomainError`` raised before the file is opened.
    """
    text = dump_json(schedule_to_dict(s))
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# axis relabelling

def _axis_map_rotation(qubit: int, source: str, target: str, eta: int):
    """Rotations R with R s_source R^dagger = eta * s_target on one qubit.

    Returns (pre, post) rotation lists: ``post`` conjugates from the left,
    ``pre`` is its inverse.  Empty lists when nothing needs doing.
    """
    if source == target:
        return ([], []) if eta > 0 else _flip(qubit, source, (math.pi / 2,))
    third = next(a for a in AXES if a not in (source, target))
    # exp(-i*t*s_third) s_source exp(i*t*s_third) = -i*sin(2t)*s_third*s_source
    # at t = +-pi/4; s_third s_source = i*eps*s_target
    theta = eta * _EPS[(third, source)] * math.pi / 4
    rot = LocalRotation(qubit, _UNIT[third], theta)
    inv = LocalRotation(qubit, _UNIT[third], -theta)
    return [inv], [rot]


def _flip(qubit: int, axis: str, angles: tuple):
    """(inverse, rotation) lists of a pi rotation about an axis orthogonal to
    ``axis``, which maps s_axis to -s_axis; ``angles`` sum to pi/2."""
    other = _UNIT[next(a for a in AXES if a != axis)]
    rot = [LocalRotation(qubit, other, t) for t in angles]
    return [LocalRotation(qubit, other, -t) for t in reversed(angles)], rot


def select_two_body(
    net: QubitNetwork,
    edge: tuple[int, int],
    alpha: str,
    beta: str,
    sign: int,
    k: float,
) -> Schedule:
    """Schedule implementing exp(sign*i*k*s_alpha s_beta) on an edge.

    The timed evolution runs on the strongest native coupling of the edge;
    zero-time rotations on the two endpoints map it onto (alpha, beta) with
    the requested sign.  Duration is exactly k/edge_best_coupling; an edge
    the network lacks is refused at every k, k = 0 included.
    """
    (u, v), alpha, beta = _oriented([require_qubit(q, net.n) for q in edge], alpha, beta, sign)
    a0, b0, g0 = strongest_couplings(net, (u, v))[0]
    if k == 0.0:
        return Schedule(net.n, ())
    native_sign = -1 if g0 > 0 else 1  # evolving exp(-i*t*g0*...) for t=k/|g0|
    evo = TwoBodyEvolution(edge=(u, v), alpha=a0, beta=b0,
                           sign=native_sign, angle=k, g_used=g0)
    # need R s_a0 s_b0 R^dagger = tau * s_alpha s_beta with
    # native_sign * tau = sign
    pre_u, post_u = _axis_map_rotation(u, a0, alpha, 1)
    pre_v, post_v = _axis_map_rotation(v, b0, beta, sign * native_sign)
    prims = tuple(pre_u + pre_v) + (evo,) + tuple(post_u + post_v)
    return Schedule(net.n, prims)


# ---------------------------------------------------------------------------
# conjugation ladders

def synth_pauli_term(net: QubitNetwork, a: float, word: PauliString) -> Schedule:
    """Schedule whose unitary is exactly exp(i*a*P) for one Pauli word: the
    one-term report's pass, so the checks and the walk are ``bound_report``'s.

    Weight-1 words are free local rotations.  Heavier words run the
    conjugation ladder along a shortest depth witness; total duration never
    exceeds (depth*pi/2 + |a|)/J.  A zero ``a`` is checked as a stand-in 1
    and gets no search and no primitives.
    """
    report = bounds.bound_report(GeneratorSpec(((a or 1.0, word),)), net, 1.0,
                                 use_exact_depths=a != 0.0)
    return Schedule(net.n, _term_schedule(net, a, word, report.walks[0]))


def _term_schedule(net: QubitNetwork, a: float, word: PauliString,
                   walk: DepthResult | None) -> tuple:
    """The primitives of exp(i*a*P) for a checked word, its ladder built along ``walk``."""
    if a == 0.0:
        return ()
    if word.weight == 1:
        qubit = word.support[0]
        axis = _UNIT[word.label(qubit).lower()]
        # exp(i*a*s) = exp(-i*(-a)*s)
        return (LocalRotation(qubit, axis, -a),)

    # one backward pass, word to core: each step's conjugator Q times the current
    # word C is i**e * P, P the word a level down; e is odd iff Q anticommutes with
    # C, and then Q's pi/4 wrap maps P to -i**(1-e) * C, a sign the core absorbs
    current, eta, wraps = word, 1, []
    for step in reversed(walk.witness):
        u, v = step.edge
        anchor = u if step.vertex == v else v
        # the smallest allowed label at each endpoint: the anchor's must
        # change; undoing a growth keeps the grown vertex's label so that it
        # cancels, and undoing a shrink reintroduces that vertex with any label
        label = {anchor: next(c for c in "XYZ" if c != current.label(anchor)),
                 step.vertex: current.label(step.vertex) if step.kind == GROW else "X"}
        product = multiply(two_body(net.n, u, label[u], v, label[v]), current)
        if product.phase_exp % 2 == 0:
            raise AssertionError("conjugation ladder construction broke")
        eta *= 1 if product.phase_exp == 3 else -1
        wraps.append(select_two_body(net, step.edge, label[u].lower(), label[v].lower(), 1,
                                     math.pi / 4).primitives)
        current = product.bare()
    u, v = walk.start_edge
    a_core = a * eta
    core = select_two_body(net, (u, v), current.label(u).lower(), current.label(v).lower(),
                           1 if a_core > 0 else -1, abs(a_core))
    # time order: outermost wrap first, then inner wraps, core, and unwinds
    return tuple(chain(*wraps, core.primitives, *map(_unwrap, reversed(wraps))))


def _unwrap(wrap: tuple) -> tuple:
    """The inverse of a wrap R E R^dagger as R (F E F^dagger) R^dagger: the
    wrap's own rotations R and native evolution E, turned backwards by a pi
    flip F (F s_b F^dagger = -s_b).  Only F differs from the wrap, so its
    angle is split into float pi/2 and _HALF_PI_LO to make it exact."""
    k = next(i for i, p in enumerate(wrap) if isinstance(p, TwoBodyEvolution))
    evo = wrap[k]
    f_inv, f = _flip(evo.edge[1], evo.beta, (math.pi / 2, _HALF_PI_LO))
    return wrap[:k] + tuple(f_inv) + (evo,) + tuple(f) + wrap[k + 1:]


def report_schedule(net: QubitNetwork, report: BoundReport) -> Schedule:
    """One term-by-term pass with angles a_i/m along the walks of a report
    built with exact depths, run m times."""
    if not report.exact_depths:
        raise DomainError("report_schedule needs a report built with use_exact_depths=True")
    for word, walk in zip(report.spec.words, report.walks):  # before any ladder is built
        end = set(walk.start_edge if walk else ())
        for step in walk.witness if walk else ():
            (end.add if step.kind == GROW else end.discard)(step.vertex)
        if word.weight > 1 and end != set(word.support):
            raise DomainError(f"the walk of term {word} does not end on its support")
    m = report.trotter_steps
    one_pass = (_term_schedule(net, a / m, word, walk)
                for (a, word), walk in zip(report.spec.terms, report.walks))
    return Schedule(net.n, tuple(chain(*one_pass)), repeat=m)


def synth_generator(
    net: QubitNetwork, spec: GeneratorSpec, epsilon: float
) -> tuple[Schedule, int]:
    """Schedule for exp(i * sum_i a_i P_i) with normalized error <= epsilon.

    One term-by-term pass with angles a_i/m, repeated m times, where m is
    the smallest step count whose product-formula error bound fits epsilon.
    Term order is the input order.
    """
    report = bounds.bound_report(spec, net, epsilon, use_exact_depths=True)
    return report_schedule(net, report), report.trotter_steps

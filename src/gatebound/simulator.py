"""Verification: exact unitaries and the two error metrics.

Schedules are simulated qubit-locally in two work arrays, U and one spare:
each primitive acts on U through its own one or two qubit axes, never as a
2**n x 2**n matrix, and a Pauli pair updates U in place by axis flips and
phases.  U spans only the qubits touched so far, with the full product's
bits.  A one-term target is cos(a)*I + i*sin(a)*P; several terms and the
drift are one dense Pauli sum, guarded against overflow, whose exponential
comes from an eigendecomposition.  No series is truncated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, ResourceLimitError
from .network import AXES, QubitNetwork
from .pauli import single, to_matrix, two_body
from .synthesis import LocalRotation, check_schedule

MAX_SIM_QUBITS = 10

# s_a s_b U with s_a on qubit i < j and s_b on j: U flipped along the axes of
# x and y factors, times _PAIR_PHASE[a, b][b_i, 0, b_j, 0] per index pair
_FLIP = {"x": slice(None, None, -1), "y": slice(None, None, -1), "z": slice(None)}
_PHASE = {"x": (1, 1), "y": (-1j, 1j), "z": (1, -1)}
_PAIR_PHASE = {(a, b): np.array([[[[x * y] for y in _PHASE[b]]] for x in _PHASE[a]])
               for a in AXES for b in AXES}


def _check_cap(n: int) -> None:
    if n > MAX_SIM_QUBITS:
        raise ResourceLimitError(
            f"dense simulation of {n} qubits exceeds the cap of {MAX_SIM_QUBITS}"
        )


def target_unitary(spec) -> np.ndarray:
    """exp(i * sum_i a_i P_i): cos(a)*I + i*sin(a)*P for one term (P**2 = I),
    else through an eigendecomposition of the Hermitian sum."""
    _check_cap(spec.n)
    if spec.l == 1:
        ((a, p),) = spec.terms
        U = to_matrix(p, 1j * math.sin(a))
        U.flat[::2 ** spec.n + 1] += math.cos(a)
        return U
    return expi_hermitian(_pauli_sum(spec.n, spec.terms,
                                     "target generator overflows: coefficients too large"))


def _pauli_sum(n: int, terms, overflow: str) -> np.ndarray:
    """Dense sum of a*P over the (a, P) terms, in order; inf or NaN is DomainError(overflow)."""
    H = np.zeros((2 ** n, 2 ** n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, p in terms:
            H += a * to_matrix(p)
    if not np.isfinite(H).all():
        raise DomainError(overflow)
    return H


def expi_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(i*H) for Hermitian H."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _on_qubit(U: np.ndarray, q: int, G: np.ndarray, out: np.ndarray) -> np.ndarray:
    """G (2 x 2) applied to axis q of U from the left into out, axis 0 leftmost."""
    return np.matmul(G, U.reshape(2 ** q, 2, -1), out=out.reshape(2 ** q, 2, -1)).reshape(U.shape)


def _widen(U: np.ndarray, W: np.ndarray, pos: dict, q: int):
    """(U with an identity factor on qubit q, written into W's buffer; the
    front of U's buffer as the new spare; the new qubit -> axis map)."""
    pos = {t: k for k, t in enumerate(sorted((*pos, q)))}
    d, wide = 2 ** pos[q], 2 * len(U)
    out = W.base[:wide * wide].reshape(d, 2, -1, d, 2, len(U) // d)
    out.fill(0)
    out[:, 0, :, :, 0] = out[:, 1, :, :, 1] = U.reshape(d, -1, d, len(U) // d)
    return out.reshape(wide, wide), U.base[:wide * wide].reshape(wide, wide), pos


def unitary_of_schedule(net: QubitNetwork, schedule) -> np.ndarray:
    """Ordered product of primitive exponentials (first primitive acts first),
    raised to the schedule's repeat count.  U covers only the qubits touched
    so far, in qubit order (``pos`` maps each to its axis), from [[1]] on
    none: a qubit joins as an identity factor, written into the spare W,
    when an evolution first touches it, and the rest join before the last
    flush.  U and W are views of the front of two full-size buffers.  A
    local rotation is a 2 x 2 matrix on its qubit's axis, applied from U
    into W; exp(i*sign*angle*s_a s_b) turns U in place into cos(angle)*U +
    i*sign*sin(angle)*Q with Q = (s_a on i)(s_b on j)*U, U flipped along
    its x and y factors' axes times a phase, first written into W.  The
    local rotations a qubit receives between two-body evolutions on it are
    multiplied into one 2 x 2 before they touch U.  Each entry meets the
    operands it meets in the full 2**n x 2**n product, whose entries off
    the touched qubits are exact 0s and 1s, so the bits are the same.
    ``check_schedule`` refuses what the network cannot run before anything
    is allocated."""
    _check_cap(schedule.n)
    check_schedule(net, schedule)
    U, W = (np.empty(4 ** schedule.n, dtype=complex)[:1].reshape(1, 1) for _ in range(2))
    U[0, 0] = 1
    pos = {}  # touched qubit -> its axis of U
    pending = {}  # qubit -> product of its local rotations not yet applied
    for prim in schedule.primitives:
        if isinstance(prim, LocalRotation):
            (x, y, z), c, s = prim.axis, math.cos(prim.angle), math.sin(prim.angle)
            # cos(angle)*I - i*sin(angle)*(x*X + y*Y + z*Z)
            G = np.array([[c - 1j * s * z, -s * (y + 1j * x)],
                          [s * (y - 1j * x), c + 1j * s * z]])
            before = pending.get(prim.qubit)
            pending[prim.qubit] = G if before is None else G @ before
        else:
            for q in prim.edge:
                if q not in pos:
                    U, W, pos = _widen(U, W, pos, q)
                if q in pending:
                    U, W = _on_qubit(U, pos[q], pending.pop(q), W), U
            (i, j), a, b = (pos[q] for q in prim.edge), prim.alpha, prim.beta
            V, W5 = (A.reshape(2 ** i, 2, 2 ** (j - i - 1), 2, -1) for A in (U, W))
            phase = (1j * prim.sign * math.sin(prim.angle)) * _PAIR_PHASE[a, b]
            np.multiply(V[:, _FLIP[a], :, _FLIP[b]], phase, out=W5)
            U *= math.cos(prim.angle)
            U += W
    for q in set(range(schedule.n)) - pos.keys():
        U, W, pos = _widen(U, W, pos, q)
    for q, G in pending.items():
        U, W = _on_qubit(U, q, G, W), U
    # a huge repeat count can overflow the rounding of U into inf/nan, which
    # unitarity_defect then reports; no warning is needed on the way
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.matrix_power(U, schedule.repeat)


def drift_matrix(net: QubitNetwork) -> np.ndarray:
    """Always-on Hamiltonian: splittings plus all edge coupling terms."""
    _check_cap(net.n)
    terms = [(w, single(net.n, q, AXES[a])) for (q, a), w in np.ndenumerate(net.omega) if w]
    terms += [(w, two_body(net.n, i, AXES[a], j, AXES[b])) for (i, j), g in net.edges.items()
              for (a, b), w in np.ndenumerate(g) if w]
    return _pauli_sum(net.n, terms,
                      "drift Hamiltonian overflows: splittings or couplings too large")


def normalized_error(U: np.ndarray, V: np.ndarray) -> float:
    """||U - V||_HS / sqrt(2**(n+1)); phase-sensitive, in [0, sqrt(2)] for
    unitaries."""
    if U.shape != V.shape:
        raise DimensionError(f"shape mismatch {U.shape} vs {V.shape}")
    dim = U.shape[0]
    return float(np.linalg.norm(U - V) / math.sqrt(2 * dim))


def gate_infidelity(U: np.ndarray, V: np.ndarray) -> float:
    """1 - min(|tr(U^dagger V)| / 2**n, 1); invariant under global phases.

    The overlap ratio is at most 1 for unitaries; the cap keeps the value
    at or above 0 when rounding has left U or V off unitary, as after a
    long repeat.
    """
    if U.shape != V.shape:
        raise DimensionError(f"shape mismatch {U.shape} vs {V.shape}")
    overlap = abs(np.vdot(U, V))  # = |tr(U^dagger V)|
    return float(1.0 - min(overlap / U.shape[0], 1.0))


def unitarity_defect(U: np.ndarray) -> float:
    """||U^dagger U - I||_HS, for sanity checks."""
    D = U.conj().T @ U
    D.flat[::U.shape[0] + 1] -= 1
    return float(np.linalg.norm(D))

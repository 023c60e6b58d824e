"""Verification: exact unitaries and the two error metrics.

Schedules are simulated qubit-locally, in work arrays allocated once per
call: each primitive acts on U through its own one or two qubit axes, never
as a 2**n x 2**n matrix, and a Pauli pair as axis flips and phases.  A
one-term target is cos(a)*I + i*sin(a)*P with P written from the word's bit
masks; several terms and the drift are dense Pauli sums, and a sum's
exponential comes from an eigendecomposition.  No series is truncated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, ResourceLimitError
from .network import AXES, QubitNetwork, strongest_couplings
from .pauli import single, to_matrix, two_body
from .synthesis import LocalRotation, TwoBodyEvolution

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
    dim = 2 ** spec.n
    if spec.l == 1:
        ((a, p),) = spec.terms
        # P|r> = i**#Y * (-1)**popcount(r & z) |r ^ x>, masks as index bits
        signs = np.ones(1)
        for q in range(spec.n):  # qubit 0 is the most significant index bit
            signs = np.kron(signs, (1, -1) if p.z_bits >> q & 1 else (1, 1))
        cols = np.arange(dim)
        U = np.zeros((dim, dim), dtype=complex)
        U[cols ^ int(f"{p.x_bits:0{spec.n}b}"[::-1], 2), cols] = (1j * math.sin(a)) * (
            1j ** ((p.x_bits & p.z_bits).bit_count() % 4) * signs)
        U[cols, cols] += math.cos(a)
        return U
    H = np.zeros((dim, dim), dtype=complex)
    for a, p in spec.terms:
        H += a * to_matrix(p)
    return expi_hermitian(H)


def expi_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(i*H) for Hermitian H."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _on_qubit(U: np.ndarray, q: int, G: np.ndarray, out: np.ndarray) -> np.ndarray:
    """G (2 x 2) applied to qubit q of U from the left into out, qubit 0 leftmost."""
    return np.matmul(G, U.reshape(2 ** q, 2, -1), out=out.reshape(2 ** q, 2, -1)).reshape(U.shape)


def unitary_of_schedule(net: QubitNetwork, schedule) -> np.ndarray:
    """Ordered product of primitive exponentials (first primitive acts first),
    raised to the schedule's repeat count.  A local rotation is a 2 x 2
    matrix on its qubit; exp(i*sign*angle*s_a s_b) applies to U as
    cos(angle)*U + i*sign*sin(angle)*(s_a on i)(s_b on j)*U, the Pauli pair
    as U flipped along its x and y factors' axes, times a phase.  The local
    rotations a qubit receives between two-body evolutions on it are
    multiplied into one 2 x 2 before they touch U."""
    _check_cap(schedule.n)
    if schedule.n != net.n:
        raise DimensionError(
            f"schedule on {schedule.n} qubits does not match network of {net.n}"
        )
    n = schedule.n
    U = np.eye(2 ** n, dtype=complex)
    W, T = np.empty_like(U), np.empty_like(U)
    pending = {}  # qubit -> product of its local rotations not yet applied
    for prim in schedule.primitives:
        if isinstance(prim, LocalRotation):
            norm = math.hypot(*prim.axis)
            if len(prim.axis) != 3 or not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
                raise DomainError(f"rotation axis must be a unit 3-vector, got {prim.axis}")
            if not 0 <= prim.qubit < n:
                raise DomainError(f"qubit {prim.qubit} outside 0..{n - 1}")
            (x, y, z), c, s = prim.axis, math.cos(prim.angle), math.sin(prim.angle)
            # cos(angle)*I - i*sin(angle)*(x*X + y*Y + z*Z)
            G = np.array([[c - 1j * s * z, -s * (y + 1j * x)],
                          [s * (y - 1j * x), c + 1j * s * z]])
            before = pending.get(prim.qubit)
            pending[prim.qubit] = G if before is None else G @ before
        elif isinstance(prim, TwoBodyEvolution):
            strongest = strongest_couplings(net, prim.edge)  # raises on unknown edges
            g_used = prim.g_used
            # the drift term g*s_a s_b only ever runs as exp(-i*t*g*s_a s_b)
            if (not (math.isfinite(g_used) and any(
                    abs(g - g_used) <= 1e-9 * abs(g_used) for _, _, g in strongest))
                    or prim.sign != (-1 if g_used > 0 else 1)):
                raise DomainError(
                    f"evolution claims sign {prim.sign:+d} on coupling {g_used} "
                    f"of edge {prim.edge}, but the drift runs its strongest "
                    f"entries, +-{abs(strongest[0][2])}, with sign -sgn(g) only")
            for q in prim.edge:
                if q in pending:
                    U, W = _on_qubit(U, q, pending.pop(q), W), U
            (i, a), (j, b) = sorted(zip(prim.edge, (prim.alpha, prim.beta)))
            V, W5, T5 = (A.reshape(2 ** i, 2, 2 ** (j - i - 1), 2, -1) for A in (U, W, T))
            phase = (1j * prim.sign * math.sin(prim.angle)) * _PAIR_PHASE[a, b]
            np.multiply(V[:, _FLIP[a], :, _FLIP[b]], phase, out=T5)
            np.add(np.multiply(V, math.cos(prim.angle), out=W5), T5, out=W5)
            U, W = W, U
        else:
            raise DomainError(f"unknown primitive {prim!r}")
    for q, G in pending.items():
        U, W = _on_qubit(U, q, G, W), U
    # a huge repeat count can overflow the rounding of U into inf/nan, which
    # unitarity_defect then reports; no warning is needed on the way
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.matrix_power(U, schedule.repeat)


def drift_matrix(net: QubitNetwork) -> np.ndarray:
    """Always-on Hamiltonian: splittings plus all edge coupling terms."""
    _check_cap(net.n)
    dim = 2 ** net.n
    H = np.zeros((dim, dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for q in range(net.n):
            for a, name in enumerate(AXES):
                w = net.omega[q, a]
                if w != 0.0:
                    H += w * to_matrix(single(net.n, q, name))
        for (i, j), g in net.edges.items():
            for a, aname in enumerate(AXES):
                for b, bname in enumerate(AXES):
                    if g[a, b] != 0.0:
                        H += g[a, b] * to_matrix(two_body(net.n, i, aname, j, bname))
    if not np.isfinite(H).all():
        raise DomainError("drift Hamiltonian overflows: splittings or couplings too large")
    return H


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
    dim = U.shape[0]
    return float(np.linalg.norm(U.conj().T @ U - np.eye(dim)))

"""Dense verification oracle: exact unitaries and the two error metrics.

Every generator handled here is i times a Hermitian matrix, so matrix
exponentials are computed from eigendecompositions (or from the closed
form cos + i*sin for involutory generators) and are exact to machine
precision; no series truncation is involved anywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, ResourceLimitError
from .network import AXES, QubitNetwork
from .pauli import PauliString, single, to_matrix, two_body

MAX_SIM_QUBITS = 10


def _check_cap(n: int, max_qubits: int) -> None:
    if n > max_qubits:
        raise ResourceLimitError(
            f"dense simulation of {n} qubits exceeds the cap of {max_qubits}"
        )


def target_unitary(spec, max_qubits: int = MAX_SIM_QUBITS) -> np.ndarray:
    """exp(i * sum_i a_i P_i) via eigendecomposition of the Hermitian sum."""
    _check_cap(spec.n, max_qubits)
    dim = 2 ** spec.n
    H = np.zeros((dim, dim), dtype=complex)
    for a, p in spec.terms:
        H += a * to_matrix(p, max_qubits=max_qubits)
    return expi_hermitian(H)


def expi_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(i*H) for Hermitian H."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def word_rotation(word: PauliString, angle: float, sign: int = 1) -> np.ndarray:
    """exp(i*sign*angle*W) for a phase-0 word W; exact since W**2 = I."""
    if word.phase_exp != 0:
        raise DomainError("rotation words must carry phase 0")
    M = to_matrix(word)
    dim = M.shape[0]
    return math.cos(angle) * np.eye(dim) + 1j * sign * math.sin(angle) * M


def axis_rotation(n: int, qubit: int, axis, angle: float) -> np.ndarray:
    """exp(-i*angle*(axis . sigma)) on one qubit, embedded on n qubits.

    ``axis`` must be a unit 3-vector, so the generator squares to the
    identity and the closed form is exact.
    """
    ax = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(ax)
    if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
        raise DomainError(f"rotation axis must be a unit vector, |axis| = {norm}")
    dim = 2 ** n
    A = np.zeros((dim, dim), dtype=complex)
    for component, name in zip(ax, AXES):
        if component != 0.0:
            A += component * to_matrix(single(n, qubit, name))
    return math.cos(angle) * np.eye(dim) - 1j * math.sin(angle) * A


def unitary_of_schedule(
    net: QubitNetwork, schedule, max_qubits: int = MAX_SIM_QUBITS
) -> np.ndarray:
    """Ordered product of primitive exponentials (first primitive acts first),
    raised to the schedule's repeat count."""
    from .synthesis import LocalRotation, TwoBodyEvolution

    _check_cap(schedule.n, max_qubits)
    if schedule.n != net.n:
        raise DimensionError(
            f"schedule on {schedule.n} qubits does not match network of {net.n}"
        )
    dim = 2 ** schedule.n
    U = np.eye(dim, dtype=complex)
    for prim in schedule.primitives:
        if isinstance(prim, LocalRotation):
            step = axis_rotation(schedule.n, prim.qubit, prim.axis, prim.angle)
        elif isinstance(prim, TwoBodyEvolution):
            from .network import edge_best_coupling

            best = edge_best_coupling(net, prim.edge)  # raises on unknown edges
            if not math.isclose(abs(prim.g_used), best, rel_tol=1e-9, abs_tol=0.0):
                raise DomainError(
                    f"evolution claims coupling {prim.g_used} on edge "
                    f"{prim.edge}, but the strongest native entry is {best}"
                )
            word = two_body(schedule.n, prim.edge[0], prim.alpha,
                            prim.edge[1], prim.beta)
            step = word_rotation(word, prim.angle, sign=prim.sign)
        else:
            raise DomainError(f"unknown primitive {prim!r}")
        U = step @ U
    # a huge repeat count can overflow the rounding of U into inf/nan, which
    # unitarity_defect then reports; no warning is needed on the way
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.matrix_power(U, schedule.repeat)


def drift_matrix(net: QubitNetwork, max_qubits: int = MAX_SIM_QUBITS) -> np.ndarray:
    """Always-on Hamiltonian: splittings plus all edge coupling terms."""
    _check_cap(net.n, max_qubits)
    dim = 2 ** net.n
    H = np.zeros((dim, dim), dtype=complex)
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
    return H


def normalized_error(U: np.ndarray, V: np.ndarray) -> float:
    """||U - V||_HS / sqrt(2**(n+1)); phase-sensitive, in [0, sqrt(2)] for
    unitaries."""
    if U.shape != V.shape:
        raise DimensionError(f"shape mismatch {U.shape} vs {V.shape}")
    dim = U.shape[0]
    return float(np.linalg.norm(U - V) / math.sqrt(2 * dim))


def gate_infidelity(U: np.ndarray, V: np.ndarray) -> float:
    """1 - |tr(U^dagger V)| / 2**n; invariant under global phases."""
    if U.shape != V.shape:
        raise DimensionError(f"shape mismatch {U.shape} vs {V.shape}")
    dim = U.shape[0]
    return float(1.0 - abs(np.trace(U.conj().T @ V)) / dim)


def unitarity_defect(U: np.ndarray) -> float:
    """||U^dagger U - I||_HS, for sanity checks."""
    dim = U.shape[0]
    return float(np.linalg.norm(U.conj().T @ U - np.eye(dim)))


def write_matrix_text(U: np.ndarray, fh) -> None:
    """Row-major real/imaginary pairs, one row per line, for external diffing."""
    for row in U:
        fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
        fh.write("\n")

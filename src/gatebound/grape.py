"""Piecewise-constant pulse optimization toward a target unitary.

The propagator over N slices of length dt is the ordered product of
exp(-i*dt*(H0 + sum_k u[j,k]*H_k)); the cost is the phase-invariant gate
infidelity 1 - |tr(Ug^dagger U(T))| / 2**n.  Gradients are exact: each
slice exponential is differentiated through its eigendecomposition
(divided-difference form), not by a small-dt approximation, so they match
finite differences to solver precision.

Control operators follow the network's control model: x and y on every
qubit for ``full_local``; x and y on the hub plus z on every leaf for
``star_reduced``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import DomainError, ResourceLimitError
from .network import QubitNetwork, min_coupling
from .pauli import single, to_matrix
from .simulator import drift_matrix

MAX_GRAPE_QUBITS = 8

DEFAULT_SLICES = 64
DEFAULT_RESTARTS = 10
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITERS = 500
DEFAULT_INIT_SCALE = 5.0  # initial amplitudes uniform in [-scale*J, scale*J]


@dataclass(frozen=True)
class PulseSet:
    """Piecewise-constant amplitudes (N slices x C controls) over time T."""

    T: float
    N: int
    amplitudes: np.ndarray
    achieved_infidelity: float
    iterations: int
    seed: int | None
    restart_index: int = 0

    def __post_init__(self):
        if self.T <= 0 or self.N < 1:
            raise DomainError("need T > 0 and N >= 1")
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.ndim != 2 or amps.shape[0] != self.N:
            raise DomainError(f"amplitudes must be N x C with N = {self.N}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dt(self) -> float:
        return self.T / self.N


def control_operators(net: QubitNetwork) -> list[np.ndarray]:
    """Dense control Hamiltonians determined by the network's control model."""
    if net.n > MAX_GRAPE_QUBITS:
        raise ResourceLimitError(
            f"pulse optimization capped at {MAX_GRAPE_QUBITS} qubits"
        )
    if net.control_model == "full_local":
        terms = [(q, a) for q in range(net.n) for a in "xy"]
    else:  # star_reduced: hub is qubit 0
        terms = [(0, "x"), (0, "y")] + [(q, "z") for q in range(1, net.n)]
    return [to_matrix(single(net.n, q, a)) for q, a in terms]


def _slice_propagators(H0, Hk, amplitudes, dt):
    """Eigendecompose every slice Hamiltonian and build its exponential.

    Returns (Us, vals, vecs) with Us[j] = exp(-i*dt*H_j).
    """
    H = H0[None, :, :] + np.tensordot(amplitudes, Hk, axes=(1, 0))
    vals, vecs = np.linalg.eigh(H)
    phases = np.exp(-1j * dt * vals)
    Us = (vecs * phases[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return Us, vals, vecs


def propagate(net: QubitNetwork, pulses: PulseSet) -> np.ndarray:
    """Total propagator of the pulse set (slice 0 acts first)."""
    Hk = control_operators(net)
    if pulses.amplitudes.shape[1] != len(Hk):
        raise DomainError(
            f"pulse set has {pulses.amplitudes.shape[1]} controls, "
            f"network provides {len(Hk)}"
        )
    H0 = drift_matrix(net)
    Us, _, _ = _slice_propagators(H0, np.array(Hk), pulses.amplitudes, pulses.dt)
    U = np.eye(H0.shape[0], dtype=complex)
    for j in range(pulses.N):
        U = Us[j] @ U
    return U


def _infidelity_and_gradient(H0, Hk, U_target, amplitudes, dt):
    """Gate infidelity and its exact gradient w.r.t. every amplitude."""
    N = amplitudes.shape[0]
    dim = H0.shape[0]
    Us, vals, vecs = _slice_propagators(H0, Hk, amplitudes, dt)

    forward = np.empty((N + 1, dim, dim), dtype=complex)
    forward[0] = np.eye(dim)
    for j in range(N):
        forward[j + 1] = Us[j] @ forward[j]
    backward = np.empty((N + 1, dim, dim), dtype=complex)
    backward[N] = np.eye(dim)
    for j in range(N - 1, -1, -1):
        backward[j] = backward[j + 1] @ Us[j]

    z = np.trace(U_target.conj().T @ forward[N])
    infid = 1.0 - abs(z) / dim
    if abs(z) == 0.0:
        return infid, np.zeros_like(amplitudes)

    # divided differences of f(x) = exp(-i*dt*x) over eigenvalue pairs,
    # smooth through degeneracies via the sinc form
    diff = vals[:, :, None] - vals[:, None, :]
    mean = 0.5 * (vals[:, :, None] + vals[:, None, :])
    gamma = -1j * dt * np.exp(-1j * dt * mean) * np.sinc(dt * diff / (2 * math.pi))

    # K[j,k] = V_j^dagger H_k V_j ;  A[j] = V_j^dagger M_j V_j with
    # M_j = forward[j] Ug^dagger backward[j+1]; then
    # dz[j,k] = tr(M_j dU_j/du_k) = sum_ab (A_j^T * gamma_j)_ab K[j,k]_ab
    Vh = vecs.conj().swapaxes(-1, -2)
    K = Vh[:, None] @ Hk[None] @ vecs[:, None]
    M = forward[:-1] @ U_target.conj().T @ backward[1:]
    A = Vh @ M @ vecs
    weights = A.swapaxes(-1, -2) * gamma
    dz = (weights[:, None, :, :] * K).sum(axis=(-1, -2))

    grad = -np.real(np.conj(z) * dz) / (dim * abs(z))
    return infid, grad


def gradient(net: QubitNetwork, pulses: PulseSet, U_target: np.ndarray) -> np.ndarray:
    """Exact infidelity gradient, shape (N, C)."""
    Hk = np.array(control_operators(net))
    H0 = drift_matrix(net)
    _, grad = _infidelity_and_gradient(H0, Hk, U_target, pulses.amplitudes, pulses.dt)
    return grad


class _Converged(Exception):
    pass


def optimize(
    net: QubitNetwork,
    U_target: np.ndarray,
    T: float,
    N: int = DEFAULT_SLICES,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int = 0,
    amplitude_bound: float | None = None,
    init_scale: float = DEFAULT_INIT_SCALE,
) -> PulseSet:
    """Best pulse set over seeded random restarts of L-BFGS-B.

    Deterministic for a given seed.  Each restart starts from amplitudes
    uniform in [-init_scale*J, init_scale*J] and stops once the infidelity
    drops below ``tol`` or after ``max_iters`` objective evaluations;
    remaining restarts are skipped after a success.  Non-convergence is a
    reported outcome, not an error.
    """
    if not (math.isfinite(T) and T > 0):
        raise DomainError(f"T must be finite and positive, got {T}")
    if N < 1 or restarts < 1:
        raise DomainError("need N >= 1 and restarts >= 1")
    if tol <= 0:
        raise DomainError("tol must be positive")
    Hk = np.array(control_operators(net))
    C = len(Hk)
    H0 = drift_matrix(net)
    dim = H0.shape[0]
    if U_target.shape != (dim, dim):
        raise DomainError(f"target must be {dim} x {dim}")
    dt = T / N
    J = min_coupling(net)
    span = init_scale * J
    bounds = None
    if amplitude_bound is not None:
        bounds = [(-amplitude_bound, amplitude_bound)] * (N * C)

    best = None  # (infidelity, restart, amplitudes, evals)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r] if seed is not None else None)
        x0 = rng.uniform(-span, span, size=N * C)
        state = {"best_f": np.inf, "best_x": x0.copy(), "evals": 0}

        def objective(x):
            state["evals"] += 1
            amps = x.reshape(N, C)
            f, g = _infidelity_and_gradient(H0, Hk, U_target, amps, dt)
            if f < state["best_f"]:
                state["best_f"] = f
                state["best_x"] = x.copy()
            if f < tol or state["evals"] >= max_iters:
                raise _Converged
            return f, g.ravel()

        try:
            scipy.optimize.minimize(
                objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                options={"maxiter": max_iters, "maxfun": max_iters},
            )
        except _Converged:
            pass
        candidate = (state["best_f"], r, state["best_x"], state["evals"])
        if best is None or candidate[0] < best[0]:
            best = candidate
        if best[0] < tol:
            break

    infid, r, x, evals = best
    return PulseSet(
        T=T,
        N=N,
        amplitudes=x.reshape(N, C),
        achieved_infidelity=float(infid),
        iterations=evals,
        seed=seed,
        restart_index=r,
    )


@dataclass(frozen=True)
class ScanRow:
    T: float
    best_infidelity: float
    iterations: int
    restart_index: int


def time_scan(net: QubitNetwork, U_target: np.ndarray, T_list, **kwargs) -> list[ScanRow]:
    """One optimize run per duration; rows are CSV-ready."""
    rows = []
    for T in T_list:
        pulses = optimize(net, U_target, T, **kwargs)
        rows.append(ScanRow(
            T=float(T),
            best_infidelity=pulses.achieved_infidelity,
            iterations=pulses.iterations,
            restart_index=pulses.restart_index,
        ))
    return rows


def write_pulse_csv(pulses: PulseSet, fh) -> None:
    """Header ``slice,t_start,u_1,...,u_C``; one row per slice."""
    C = pulses.amplitudes.shape[1]
    fh.write("slice,t_start," + ",".join(f"u_{k + 1}" for k in range(C)) + "\n")
    for j in range(pulses.N):
        amps = ",".join(f"{v:.12g}" for v in pulses.amplitudes[j])
        fh.write(f"{j},{j * pulses.dt:.12g},{amps}\n")


def write_scan_csv(rows, fh) -> None:
    fh.write("T,best_infidelity,iterations,restart_index\n")
    for row in rows:
        fh.write(f"{row.T:.12g},{row.best_infidelity:.12g},"
                 f"{row.iterations},{row.restart_index}\n")

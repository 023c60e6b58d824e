"""Piecewise-constant pulse optimization toward a target unitary.

The propagator over N slices of length dt is the ordered product of
exp(-i*dt*(H0 + sum_k u[j,k]*H_k)); the cost is the phase-invariant gate
infidelity 1 - |tr(Ug^dagger U(T))| / 2**n.  Gradients are exact: each
slice exponential is differentiated through its eigendecomposition
H_j = V_j diag(lambda) V_j^dagger (divided differences Gamma_j of
exp(-i*dt*x)), not by a small-dt approximation, so they match finite
differences to solver precision.  A forward and a backward product
recursion give each slice's cofactor M_j; every derivative is then
tr(G_j H_k) with G_j = V_j ((V_j^dagger M_j V_j) o Gamma_j) V_j^dagger,
one matrix product over all slices and controls.

Control operators follow the network's control model: x and y on every
qubit for ``full_local``; x and y on the hub plus z on every leaf for
``star_reduced``.

SciPy serves only ``optimize`` (L-BFGS-B) and is imported on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError, require_positive
from .network import QubitNetwork, min_coupling
from .pauli import single, to_matrix
from .simulator import drift_matrix

MAX_GRAPE_QUBITS = 8
MAX_GRAPE_ENTRIES = 64 * 4**MAX_GRAPE_QUBITS  # N * 4**n; one such array is 64 MB

DEFAULT_SLICES = 64
DEFAULT_RESTARTS = 10
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITERS = 500
INIT_SCALE = 5.0  # initial amplitudes uniform in [-INIT_SCALE*J, INIT_SCALE*J]


@dataclass(frozen=True, eq=False)
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
        require_positive("T", self.T)
        if self.N < 1:
            raise DomainError("need N >= 1")
        amps = np.array(self.amplitudes, dtype=float)
        if amps.ndim != 2 or amps.shape[0] != self.N:
            raise DomainError(f"amplitudes must be N x C with N = {self.N}")
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


def _operators(net: QubitNetwork, N: int, C: int | None = None, U_target=None):
    """The drift and the stacked controls of the network, (H0, Hk), once N
    slices fit the size cap, and a pulse set's C controls and a target's
    shape match them."""
    Hk = np.array(control_operators(net))
    if C is not None and C != len(Hk):
        raise DomainError(f"pulse set has {C} controls, network provides {len(Hk)}")
    H0 = drift_matrix(net)
    dim = len(H0)
    if N * dim * dim > MAX_GRAPE_ENTRIES:
        raise ResourceLimitError(f"{N} slices of {dim} x {dim} exceed the "
                                 f"pulse optimization cap of {MAX_GRAPE_ENTRIES} entries")
    if U_target is not None and U_target.shape != (dim, dim):
        raise DomainError(f"target must be {dim} x {dim}")
    return H0, Hk


def _slice_propagators(H0, Hk, amplitudes, dt):
    """Eigendecompose every slice Hamiltonian and build its exponential.

    Returns (Us, vals, vecs) with Us[j] = exp(-i*dt*H_j).
    """
    H = H0[None, :, :] + np.tensordot(amplitudes, Hk, axes=(1, 0))
    try:
        vals, vecs = np.linalg.eigh(H)
        # bounds each phase dt*lambda, each gap lambda_a - lambda_b and dt times it
        finite = math.isfinite(2 * max(dt, 1.0) * float(np.abs(vals).max()))
    except np.linalg.LinAlgError:  # entries near the float limit
        finite = False
    if not finite:
        raise DomainError("slice Hamiltonians too large to exponentiate")
    phases = np.exp(-1j * dt * vals)
    Us = (vecs * phases[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return Us, vals, vecs


def propagate(net: QubitNetwork, pulses: PulseSet) -> np.ndarray:
    """Total propagator of the pulse set (slice 0 acts first)."""
    H0, Hk = _operators(net, pulses.N, pulses.amplitudes.shape[1])
    Us, _, _ = _slice_propagators(H0, Hk, pulses.amplitudes, pulses.dt)
    U = np.eye(H0.shape[0], dtype=complex)
    for j in range(pulses.N):
        U = Us[j] @ U
    return U


def _infidelity_and_gradient(H0, Hk, U_target, amplitudes, dt):
    """Gate infidelity and its exact gradient w.r.t. every amplitude."""
    N, dim = len(amplitudes), len(H0)
    Us, vals, vecs = _slice_propagators(H0, Hk, amplitudes, dt)

    # F[j] = U_{j-1}...U_0 and Q[j] = Ug^dagger U_{N-1}...U_j: z = tr Q[0],
    # and M_j = F[j] Q[j+1] is slice j's cofactor, dz = tr(M_j dU_j)
    F = np.empty((N, dim, dim), dtype=complex)
    F[0] = np.eye(dim)
    for j in range(N - 1):
        np.matmul(Us[j], F[j], out=F[j + 1])
    Q = np.empty((N + 1, dim, dim), dtype=complex)
    Q[N] = U_target.conj().T
    for j in range(N - 1, -1, -1):
        np.matmul(Q[j + 1], Us[j], out=Q[j])

    z = np.trace(Q[0])
    infid = 1.0 - abs(z) / dim
    if abs(z) == 0.0:
        return infid, np.zeros_like(amplitudes)

    # G_j = V_j (A_j o Gamma_j) V_j^dagger with A_j = V_j^dagger M_j V_j and
    # Gamma_ab = -i*dt*h_a*h_b*sin(y)/y, y = dt*(l_a-l_b)/2, h = exp(-i*dt*l/2)
    # (smooth through degeneracies), scaled by conj(z)/(dim*|z|) for d(|z|/dim)
    h = np.exp(-0.5j * dt * vals)
    Vh = vecs.conj().swapaxes(-1, -2)
    G = np.matmul(F, Q[1:])
    np.matmul(Vh, G, out=F)
    np.matmul(F, vecs, out=G)
    G *= np.sinc(dt / (2 * math.pi) * (vals[:, :, None] - vals[:, None, :]))
    G *= (-1j * dt * np.conj(z) / (dim * abs(z)) * h)[:, :, None] * h[:, None, :]
    np.matmul(vecs, G, out=F)
    np.matmul(F, Vh, out=G)
    # Re tr(G_j H_k) for Hermitian H_k is the dot product of the two as real vectors
    grad = -(G.view(float).reshape(N, -1) @ Hk.view(float).reshape(len(Hk), -1).T)
    return infid, grad


def gradient(net: QubitNetwork, pulses: PulseSet, U_target: np.ndarray) -> np.ndarray:
    """Exact infidelity gradient, shape (N, C)."""
    H0, Hk = _operators(net, pulses.N, pulses.amplitudes.shape[1], U_target)
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
) -> PulseSet:
    """Best pulse set over seeded random restarts of unbounded L-BFGS-B.

    Deterministic for a given integer seed.  Restart r draws from the RNG
    seeded with [seed, r] and starts from amplitudes uniform in
    [-INIT_SCALE*J, INIT_SCALE*J]; it stops once the infidelity
    drops below ``tol`` or after ``max_iters`` objective evaluations;
    remaining restarts are skipped after a success.  Non-convergence is a
    reported outcome, not an error.
    """
    require_positive("T", T)
    if N < 1 or restarts < 1 or max_iters < 1 or seed < 0:
        raise DomainError("need N, restarts and max_iters >= 1 and seed >= 0")
    require_positive("tol", tol)
    H0, Hk = _operators(net, N, U_target=U_target)
    C, dt = len(Hk), T / N
    span = INIT_SCALE * min_coupling(net)
    if not math.isfinite(2 * span):  # the initial amplitudes need a finite range
        raise DomainError("couplings too large for pulse optimization")
    import scipy.optimize  # not at the top: it would triple every command's start-up

    best = None  # (infidelity, restart, amplitudes, evals)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        x0 = rng.uniform(-span, span, size=N * C)
        state = {"best_f": np.inf, "best_x": x0.copy(), "evals": 0}

        def objective(x):
            state["evals"] += 1
            f, g = _infidelity_and_gradient(H0, Hk, U_target, x.reshape(N, C), dt)
            if f < state["best_f"]:
                state["best_f"] = f
                state["best_x"] = x.copy()
            if f < tol or state["evals"] >= max_iters:
                raise _Converged
            return f, g.ravel()

        try:
            scipy.optimize.minimize(
                objective, x0, jac=True, method="L-BFGS-B",
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
    return PulseSet(T=T, N=N, amplitudes=x.reshape(N, C), iterations=evals,
                    achieved_infidelity=float(infid), seed=seed, restart_index=r)


def time_scan(net: QubitNetwork, U_target: np.ndarray, T_list, **kwargs) -> list[PulseSet]:
    """The best pulse set of one optimize run per duration, all checked before the first."""
    for T in T_list:
        require_positive("T", T)
    return [optimize(net, U_target, T, **kwargs) for T in T_list]


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
        fh.write(f"{row.T:.12g},{row.achieved_infidelity:.12g},"
                 f"{row.iterations},{row.restart_index}\n")

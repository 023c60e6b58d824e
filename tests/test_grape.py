"""Pulse optimization: propagation, exact gradients, determinism."""

import io
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from gatebound import (
    GeneratorSpec,
    QubitNetwork,
    control_operators,
    gradient,
    heisenberg_chain,
    ising_chain,
    optimize,
    propagate,
    star,
    target_unitary,
    time_scan,
)
from gatebound import grape
from gatebound.errors import DomainError, ResourceLimitError
from gatebound.grape import (
    PulseSet,
    _infidelity_and_gradient,
    _slice_propagators,
    write_pulse_csv,
    write_scan_csv,
)
from gatebound.pauli import parse_pauli
from gatebound.simulator import drift_matrix, gate_infidelity, unitarity_defect

from helpers import uniform_chain


def make_pulses(rng, T, N, C, scale=3.0):
    return PulseSet(T=T, N=N, amplitudes=rng.uniform(-scale, scale, (N, C)),
                    achieved_infidelity=1.0, iterations=0, seed=None)


ZZZ_TARGET = target_unitary(GeneratorSpec(((-math.pi / 4, parse_pauli("ZZZ")),)))
ZZZZ_TARGET = target_unitary(GeneratorSpec(((-math.pi / 4, parse_pauli("ZZZZ")),)))


def central_differences(H0, Hk, target, amps, dt, h=1e-6):
    fd = np.zeros_like(amps)
    for j in range(amps.shape[0]):
        for k in range(amps.shape[1]):
            up, dn = amps.copy(), amps.copy()
            up[j, k] += h
            dn[j, k] -= h
            fd[j, k] = (_infidelity_and_gradient(H0, Hk, target, up, dt)[0]
                        - _infidelity_and_gradient(H0, Hk, target, dn, dt)[0]) / (2 * h)
    return fd


def frechet_gradient(H0, Hk, target, amps, dt):
    """Independent oracle: d|tr(Ug^dagger U)|/du from scipy's Frechet
    derivative of expm, with the slice products formed one at a time."""
    dim = H0.shape[0]
    Us = [scipy.linalg.expm(-1j * dt * (H0 + np.tensordot(a, Hk, axes=(0, 0))))
          for a in amps]
    total = np.eye(dim, dtype=complex)
    for U in Us:
        total = U @ total
    z = np.trace(target.conj().T @ total)
    grad = np.zeros_like(amps)
    for j in range(len(Us)):
        before = np.eye(dim, dtype=complex)
        for U in Us[:j]:
            before = U @ before
        after = np.eye(dim, dtype=complex)
        for U in Us[j + 1:]:
            after = U @ after
        H = H0 + np.tensordot(amps[j], Hk, axes=(0, 0))
        for k in range(len(Hk)):
            dU = scipy.linalg.expm_frechet(-1j * dt * H, -1j * dt * Hk[k],
                                           compute_expm=False)
            dz = np.trace(target.conj().T @ after @ dU @ before)
            grad[j, k] = -np.real(np.conj(z) * dz) / (dim * abs(z))
    return grad


class TestControlOperators:
    def test_full_local_count_and_content(self):
        net = uniform_chain(3)
        ops = control_operators(net)
        assert len(ops) == 6
        from helpers import kron_word

        assert np.array_equal(ops[0], kron_word("XII"))
        assert np.array_equal(ops[1], kron_word("YII"))
        assert np.array_equal(ops[4], kron_word("IIX"))

    def test_star_reduced_count(self):
        net = star(5)
        ops = control_operators(net)
        assert len(ops) == 5 + 1  # x/y on the hub, z on each of 4 leaves

    def test_star_reduced_content(self):
        from helpers import kron_word

        words = ["XIII", "YIII", "IZII", "IIZI", "IIIZ"]
        ops = control_operators(star(4))
        assert len(ops) == len(words)
        for op, w in zip(ops, words):
            assert np.array_equal(op, kron_word(w))

    def test_qubit_cap(self):
        with pytest.raises(ResourceLimitError):
            control_operators(uniform_chain(9))


class TestPropagate:
    def test_zero_drift_zero_pulses_is_identity(self):
        # drift-free propagation over any horizon is the identity
        Us, _, _ = _slice_propagators(
            np.zeros((4, 4), dtype=complex), np.zeros((2, 4, 4), dtype=complex),
            np.zeros((8, 2)), 0.3,
        )
        for U in Us:
            assert np.allclose(U, np.eye(4), atol=1e-14)

    def test_zero_pulses_match_drift_exponential(self):
        net = ising_chain(3, J=1.0)
        T = 0.7
        pulses = PulseSet(T=T, N=16, amplitudes=np.zeros((16, 6)),
                          achieved_infidelity=1.0, iterations=0, seed=None)
        U = propagate(net, pulses)
        oracle = scipy.linalg.expm(-1j * T * drift_matrix(net))
        assert np.linalg.norm(U - oracle) < 1e-10

    def test_single_slice_is_one_exponential(self):
        net = ising_chain(2, J=1.0)
        rng = np.random.default_rng(3)
        amps = rng.uniform(-2, 2, (1, 4))
        pulses = PulseSet(T=0.4, N=1, amplitudes=amps,
                          achieved_infidelity=1.0, iterations=0, seed=None)
        H = drift_matrix(net) + sum(
            a * op for a, op in zip(amps[0], control_operators(net))
        )
        oracle = scipy.linalg.expm(-1j * 0.4 * H)
        assert np.linalg.norm(propagate(net, pulses) - oracle) < 1e-12

    def test_propagator_is_unitary(self):
        net = heisenberg_chain(3, J=1.0)
        rng = np.random.default_rng(9)
        pulses = make_pulses(rng, 1.1, 24, 6)
        assert unitarity_defect(propagate(net, pulses)) < 1e-10


class TestGradient:
    def test_matches_central_finite_differences(self):
        # x/y on every Ising spin, the star's hub x/y and leaf z controls,
        # and x/y on four Heisenberg spins
        cases = [(ising_chain(3, J=1.0), ZZZ_TARGET, 16, 5),
                 (star(4), ZZZZ_TARGET, 12, 3),
                 (heisenberg_chain(4, J=1.0), ZZZZ_TARGET, 12, 3)]
        for net, target, N, configs in cases:
            rng = np.random.default_rng(101)
            Hk = np.array(control_operators(net))
            H0 = drift_matrix(net)
            for _ in range(configs):
                amps = rng.uniform(-4, 4, (N, len(Hk)))
                dt = float(rng.uniform(0.02, 0.08))
                _, g = _infidelity_and_gradient(H0, Hk, target, amps, dt)
                fd = central_differences(H0, Hk, target, amps, dt)
                assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5

    @pytest.mark.parametrize("net, target", [(ising_chain(3, J=1.0), ZZZ_TARGET),
                                             (star(4), ZZZZ_TARGET),
                                             (heisenberg_chain(4, J=1.0), ZZZZ_TARGET)],
                             ids=["ising3", "star_reduced", "heisenberg4"])
    def test_matches_frechet_derivative_oracle(self, net, target):
        rng = np.random.default_rng(107)
        Hk = np.array(control_operators(net))
        H0 = drift_matrix(net)
        amps = rng.uniform(-4, 4, (6, len(Hk)))
        _, g = _infidelity_and_gradient(H0, Hk, target, amps, 0.07)
        oracle = frechet_gradient(H0, Hk, target, amps, 0.07)
        assert np.linalg.norm(g - oracle) / np.linalg.norm(oracle) < 1e-10

    def test_degenerate_spectrum_matches_central_differences(self):
        # no drift and one x amplitude per slice on every qubit: each slice
        # Hamiltonian a_j*(XII + IXI + IIX) has eigenvalues a_j*{-3,-1,1,3}
        # with multiplicities 1, 3, 3, 1, where the sinc form must stay exact
        net = ising_chain(3, J=1.0)
        Hk = np.array(control_operators(net))
        H0 = np.zeros_like(Hk[0])
        amps = np.zeros((8, len(Hk)))
        rng = np.random.default_rng(109)
        amps[:, 0::2] = rng.uniform(-4, 4, (8, 1))
        R = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        target = scipy.linalg.expm(-0.5j * (R + R.conj().T))
        _, g = _infidelity_and_gradient(H0, Hk, target, amps, 0.05)
        fd = central_differences(H0, Hk, target, amps, 0.05)
        assert np.linalg.norm(fd[:, 1::2]) > 1e-3  # the y controls matter here
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5

    def test_zero_gradient_at_perfect_fidelity(self):
        net = ising_chain(2, J=1.0)
        rng = np.random.default_rng(11)
        pulses = make_pulses(rng, 0.8, 12, 4)
        target = propagate(net, pulses)  # infidelity is exactly zero here
        g = gradient(net, pulses, target)
        assert np.linalg.norm(g) < 1e-8

    def test_negated_controls_mirror_gradient(self):
        # with H_k -> -H_k the landscape satisfies F'(u) = F(-u), so the
        # gradient at u equals minus the original gradient at -u
        net = ising_chain(2, J=1.0)
        Hk = np.array(control_operators(net))
        H0 = drift_matrix(net)
        rng = np.random.default_rng(13)
        target = target_unitary(GeneratorSpec(((0.9, parse_pauli("ZZ")),)))
        amps = rng.uniform(-2, 2, (8, 4))
        _, g_neg = _infidelity_and_gradient(H0, -Hk, target, amps, 0.05)
        _, g = _infidelity_and_gradient(H0, Hk, target, -amps, 0.05)
        assert np.allclose(g_neg, -g, atol=1e-12)


class TestOptimize:
    def test_seed_reproducibility(self):
        net = ising_chain(2, J=1.0)
        target = target_unitary(GeneratorSpec(((0.7, parse_pauli("ZZ")),)))
        a = optimize(net, target, T=0.8, N=8, restarts=2, tol=1e-4,
                     max_iters=60, seed=5)
        b = optimize(net, target, T=0.8, N=8, restarts=2, tol=1e-4,
                     max_iters=60, seed=5)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert a.achieved_infidelity == b.achieved_infidelity
        assert a.iterations == b.iterations and a.restart_index == b.restart_index
        c = optimize(net, target, T=0.8, N=8, restarts=2, tol=1e-4,
                     max_iters=60, seed=6)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    def test_reaches_easy_target(self):
        net = ising_chain(2, J=1.0)
        target = target_unitary(GeneratorSpec(((0.7, parse_pauli("ZZ")),)))
        p = optimize(net, target, T=1.0, N=16, restarts=3, tol=1e-6,
                     max_iters=300, seed=1)
        assert p.achieved_infidelity < 1e-6
        assert gate_infidelity(target, propagate(net, p)) == pytest.approx(
            p.achieved_infidelity, abs=1e-12
        )

    def test_rejects_bad_stopping_rule(self):
        net = ising_chain(2, J=1.0)
        target = np.eye(4, dtype=complex)
        for kwargs in ({"tol": math.nan}, {"tol": math.inf}, {"max_iters": 0},
                       {"max_iters": -5}):
            with pytest.raises(DomainError):
                optimize(net, target, T=1.0, N=4, seed=1, **kwargs)

    def test_size_cap(self, monkeypatch):
        # N * 4**n above the cap is refused before any slice array exists
        monkeypatch.setattr(grape, "MAX_GRAPE_ENTRIES", 16 * 16)
        net = ising_chain(2, J=1.0)
        target = np.eye(4, dtype=complex)
        with pytest.raises(ResourceLimitError):
            optimize(net, target, T=1.0, N=17, seed=1)
        pulses = make_pulses(np.random.default_rng(1), 1.0, 17, 4)
        with pytest.raises(ResourceLimitError):
            propagate(net, pulses)
        with pytest.raises(ResourceLimitError):
            gradient(net, pulses, target)
        propagate(net, make_pulses(np.random.default_rng(1), 1.0, 16, 4))

    def test_input_validation(self):
        net = ising_chain(2, J=1.0)
        target = np.eye(4, dtype=complex)
        with pytest.raises(DomainError):
            optimize(net, target, T=0.0, seed=1)
        with pytest.raises(DomainError):
            optimize(net, target, T=1.0, tol=0.0, seed=1)
        with pytest.raises(DomainError):
            optimize(net, np.eye(2, dtype=complex), T=1.0, seed=1)
        with pytest.raises(DomainError):
            optimize(net, target, T=1.0, seed=-1)

    @pytest.mark.parametrize("J, tiny, T", [(1e308, None, 1.0), (1e308, 5e-324, 1e-300),
                                            (1e300, None, 1e300), (1.0, None, 1e308)],
                             ids=["amplitude-range", "spectrum", "phase", "huge-time"])
    def test_unrepresentable_slice_exponentials_are_a_domain_error(self, J, tiny, T):
        # near the float limit the initial amplitude range, the slice spectra
        # or the phases dt*lambda overflow; none may end in a traceback, a
        # warning or an infinite infidelity
        edges = {(0, 1): np.diag([J, 0.0, 0.0]), (1, 2): np.diag([0.0, J, 0.0])}
        if tiny is not None:  # keeps the initial amplitudes small
            edges[(0, 2)] = np.diag([0.0, 0.0, tiny])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                optimize(QubitNetwork(n=3, edges=edges), np.eye(8, dtype=complex), T=T,
                         N=4, restarts=1, max_iters=5)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0])
    def test_pulse_set_needs_finite_positive_time(self, T):
        with pytest.raises(DomainError):
            PulseSet(T=T, N=4, amplitudes=np.zeros((4, 2)),
                     achieved_infidelity=1.0, iterations=0, seed=None)


class TestScanAndCsv:
    def test_scan_checks_every_time_first(self, monkeypatch):
        calls = []
        monkeypatch.setattr(grape, "optimize", lambda *a, **k: calls.append(a))
        net = ising_chain(2, J=1.0)
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(DomainError):
                time_scan(net, np.eye(4, dtype=complex), [0.5, bad])
        assert calls == []

    def test_empty_scan(self):
        net = ising_chain(2, J=1.0)
        assert time_scan(net, np.eye(4, dtype=complex), []) == []

    def test_successes_never_beat_the_exact_three_spin_minimum(self):
        from gatebound import exact_three_spin

        net = ising_chain(3, J=1.0)
        target = target_unitary(
            GeneratorSpec(((-math.pi / 4, parse_pauli("ZZZ")),))
        )
        tol = 1e-3
        rows = time_scan(net, target, [0.5, 0.7, 0.8, 1.0, 1.2],
                         N=32, restarts=4, tol=tol, max_iters=300, seed=11)
        minimum = exact_three_spin(1.0, 1.0)
        for row in rows:
            if row.best_infidelity < tol:
                assert row.T >= minimum
        assert any(row.best_infidelity < tol for row in rows)

    def test_scan_rows_and_csv(self):
        net = ising_chain(2, J=1.0)
        target = target_unitary(GeneratorSpec(((0.7, parse_pauli("ZZ")),)))
        rows = time_scan(net, target, [0.5, 1.0], N=8, restarts=1, tol=1e-4,
                         max_iters=40, seed=4)
        assert [r.T for r in rows] == [0.5, 1.0]
        buf = io.StringIO()
        write_scan_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "T,best_infidelity,iterations,restart_index"
        assert len(lines) == 3

    def test_pulse_csv_shape(self):
        rng = np.random.default_rng(15)
        p = make_pulses(rng, 1.0, 4, 3)
        buf = io.StringIO()
        write_pulse_csv(p, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "slice,t_start,u_1,u_2,u_3"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0

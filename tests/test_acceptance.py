"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is pinned here; none is deferred to runtime configuration.
"""

import math

import numpy as np
import pytest

import gatebound as gb
from gatebound.pauli import parse_pauli

from helpers import (
    complete_graph,
    random_connected_network,
    random_spec,
    random_word,
    star_full_local,
    string_depth_oracle,
    uniform_chain,
    word_rotation,
)


def _report(num, text, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {text}")
        raise
    print(f"criterion {num:2d}: PASS - {text}")


def test_criterion_01_three_spin_headline_numbers():
    def body():
        bound = gb.nbody_chain_bound(3, 1, math.pi / 2)
        exact = gb.exact_three_spin(1, 1)
        assert abs(bound - 1.5) <= 1e-12
        assert abs(exact - math.sqrt(3) / 2) <= 1e-12
        assert abs(bound / exact - math.sqrt(3)) <= 1e-12

    _report(1, "3-spin chain bound 3/2 vs exact sqrt(3)/2, ratio sqrt(3)", body)


def test_criterion_02_depth_reproduction():
    def body():
        assert gb.max_depth_table(uniform_chain(5)).max_depth == 6
        for n in range(3, 9):
            table = gb.max_depth_table(uniform_chain(n))
            assert table.support_depth(tuple(range(n))) == n - 2

    _report(2, "max depth 6 on the 5-path; full-weight depth n-2 on paths", body)


def test_criterion_03_depth_oracle_equivalence():
    def body():
        mismatches = 0
        for n in (2, 3, 4):
            for net in (uniform_chain(n), star_full_local(n), complete_graph(n)):
                oracle = string_depth_oracle(net)
                for x in range(1 << n):
                    for z in range(1 << n):
                        word = gb.PauliString(n, x, z)
                        if word.weight < 2:
                            continue
                        if gb.depth(net, word).depth != oracle[(x, z)]:
                            mismatches += 1
        assert mismatches == 0

    _report(3, "Steiner-tree depth equals string-level BFS on path/star/complete",
            body)


def test_criterion_04_synthesis_exactness_and_bound_compliance():
    def body():
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            word = random_word(rng, n, min_weight=1)
            a = float(rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0]))
            schedule = gb.synth_pauli_term(net, a, word)
            U = gb.unitary_of_schedule(net, schedule)
            target = gb.target_unitary(gb.GeneratorSpec(((a, word),)))
            assert gb.gate_infidelity(target, U) < 1e-9
            d = 0 if word.weight < 2 else gb.depth(net, word).depth
            bound = gb.single_term_bound(a, d, gb.min_coupling(net))
            assert schedule.total_duration <= bound + 1e-12
        exact_case = gb.synth_pauli_term(
            uniform_chain(3, g=1.0), math.pi / 4, parse_pauli("ZZZ")
        )
        assert exact_case.total_duration == 3 * math.pi / 4

    _report(4, "200 random single-term schedules exact and within the "
               "per-term bound; 3-path ZZZ case exactly 3*pi/4", body)


def test_criterion_05_trotter_theorem_check():
    def body():
        rng = np.random.default_rng(505)
        ms = (1, 2, 4, 8, 16, 32)
        for _ in range(100):
            l = int(rng.integers(2, 5))
            spec = random_spec(rng, 3, l, coeff_range=(0.2, 1.0),
                               require_noncommuting=True)
            U = gb.target_unitary(spec)
            errors = {}
            for m in ms:
                G = np.eye(8, dtype=complex)
                for a, p in spec.terms:
                    G = word_rotation(p, abs(a) / m, sign=1 if a > 0 else -1) @ G
                Gm = np.linalg.matrix_power(G, m)
                err = gb.normalized_error(Gm, U)
                assert err <= gb.trotter_error_bound(spec, m) + 1e-12
                errors[m] = err
            for m in (4, 8, 16):
                assert errors[2 * m] <= 0.75 * errors[m]

    _report(5, "measured product-formula error within the bound for "
               "m in {1..32}; first-order decay with slack 0.75", body)


def test_criterion_06_end_to_end_bound_compliance():
    def body():
        # coefficient magnitudes in [0.3, 1] keep every draw in the regime
        # where the coarse formula implies at least one product pass
        # (l*(l-1)*|a|_inf**2 >= 2*sqrt(2)*eps), which its derivation assumes
        rng = np.random.default_rng(2026)
        eps = 0.05
        for _ in range(100):
            n = int(rng.integers(2, 5))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            l = int(rng.integers(2, 5))
            spec = random_spec(rng, n, l, coeff_range=(0.3, 1.0))
            schedule, _ = gb.synth_generator(net, spec, eps)
            rep = gb.bound_report(spec, net, eps, use_exact_depths=False)
            run_bound = gb.run_time_bound(spec, net, eps)
            assert schedule.total_duration <= run_bound + 1e-12
            assert schedule.total_duration <= rep.schedule_bound + 1e-12
            assert rep.schedule_bound <= rep.coarse_bound + 1e-12

    _report(6, "synthesized duration <= schedule bound <= coarse bound on "
               "100 random generators at eps = 0.05", body)


def test_criterion_07_pulse_optimization_thresholds():
    def body():
        net3 = gb.ising_chain(3, J=1.0)
        target3 = gb.target_unitary(
            gb.GeneratorSpec(((-math.pi / 4, parse_pauli("ZZZ")),))
        )
        feasible = gb.optimize(net3, target3, T=0.9, N=64, restarts=10,
                               tol=1e-3, max_iters=500, seed=3)
        assert feasible.achieved_infidelity < 1e-3

        infeasible = gb.optimize(net3, target3, T=0.5, N=64, restarts=10,
                                 tol=1e-3, max_iters=500, seed=3)
        assert infeasible.achieved_infidelity > 1e-2

        net4 = gb.heisenberg_chain(4, J=1.0)
        target4 = gb.target_unitary(
            gb.GeneratorSpec(((-math.pi / 4, parse_pauli("ZZZZ")),))
        )
        four = gb.optimize(net4, target4, T=2.0, N=64, restarts=10,
                           tol=1e-3, max_iters=500, seed=3)
        assert four.achieved_infidelity < 1e-3

    _report(7, "pulse optimization: feasible at T=0.9 and T=2.0 (<1e-3), "
               "stuck above 1e-2 at T=0.5 below the exact minimum", body)


def test_criterion_08_gradient_correctness():
    def body():
        from gatebound.grape import _infidelity_and_gradient, control_operators
        from gatebound.simulator import drift_matrix

        net = gb.ising_chain(3, J=1.0)
        Hk = np.array(control_operators(net))
        H0 = drift_matrix(net)
        target = gb.target_unitary(
            gb.GeneratorSpec(((-math.pi / 4, parse_pauli("ZZZ")),))
        )
        rng = np.random.default_rng(808)
        N = 16
        h = 1e-6
        for _ in range(50):
            amps = rng.uniform(-4, 4, (N, Hk.shape[0]))
            dt = float(rng.uniform(0.02, 0.09))
            _, g = _infidelity_and_gradient(H0, Hk, target, amps, dt)
            fd = np.zeros_like(g)
            for j in range(N):
                for k in range(Hk.shape[0]):
                    up, dn = amps.copy(), amps.copy()
                    up[j, k] += h
                    dn[j, k] -= h
                    fup, _ = _infidelity_and_gradient(H0, Hk, target, up, dt)
                    fdn, _ = _infidelity_and_gradient(H0, Hk, target, dn, dt)
                    fd[j, k] = (fup - fdn) / (2 * h)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5

    _report(8, "analytic pulse gradient matches central differences to 1e-5 "
               "on 50 random configurations", body)


def test_criterion_09_pairwise_commutator_sum_inequality():
    def body():
        rng = np.random.default_rng(909)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            l = int(rng.integers(2, 6))
            if l > 4 ** n - 1:
                l = 4 ** n - 1
            spec = random_spec(rng, n, l)
            lhs = sum(
                abs(aj * ak) * gb.hs_norm_commutator(pj, pk)
                for j, (aj, pj) in enumerate(spec.terms)
                for k, (ak, pk) in enumerate(spec.terms)
                if j > k
            )
            rhs = l * (l - 1) * spec.norm_inf**2 * math.sqrt(2.0 ** n)
            if lhs > rhs + 1e-12:
                violations += 1
        assert violations == 0

    _report(9, "pairwise commutator sum below l*(l-1)*|a|_inf^2*sqrt(2^n) on "
               "1000 random generators", body)


def test_criterion_10_polynomial_membership_classes():
    def body():
        n = 4
        words = [gb.PauliString(n, 1 << q, 0) for q in range(n)]  # l = n
        spec = gb.GeneratorSpec(tuple((1.0, w) for w in words))
        rep = gb.poly_membership(spec, 2.0)
        assert rep.member and abs(rep.scaling_exponent - 4.0) <= 1e-12

        n = 2
        everything = [
            gb.PauliString(n, x, z)
            for x in range(1 << n)
            for z in range(1 << n)
            if x or z
        ]
        assert len(everything) == 2 ** (2 * n) - 1
        spec = gb.GeneratorSpec(tuple((1.0, w) for w in everything))
        rep = gb.poly_membership(spec, 2.0)
        assert not rep.member and rep.scaling_class == "exponential"

    _report(10, "polynomial gate-set membership: exponent 4 for l = n with "
                "unit coefficients; exponential class for l = 4^n - 1", body)

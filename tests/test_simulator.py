"""Qubit-local schedule simulator against independent dense matrix oracles."""

import cmath
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from gatebound import (
    GeneratorSpec,
    QubitNetwork,
    gate_infidelity,
    ising_chain,
    normalized_error,
    synth_pauli_term,
    target_unitary,
    unitary_of_schedule,
)
from gatebound.errors import DimensionError, DomainError, ResourceLimitError
from gatebound.network import AXES
from gatebound.pauli import parse_pauli, to_matrix
from gatebound.simulator import drift_matrix, expi_hermitian, unitarity_defect
from gatebound.synthesis import LocalRotation, Schedule, TwoBodyEvolution

from helpers import (
    all_strings,
    kron_word,
    matmul_schedule_unitary,
    random_connected_network,
    random_spec,
    random_word,
    uniform_chain,
    word_rotation,
)


def haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTargetUnitary:
    def test_diagonal_word_by_parity(self):
        spec = GeneratorSpec(((math.pi / 4, parse_pauli("ZZZ")),))
        U = target_unitary(spec)
        diag = np.diag(U)
        for basis_state in range(8):
            parity = (-1) ** bin(basis_state).count("1")
            assert diag[basis_state] == pytest.approx(
                cmath.exp(1j * math.pi / 4 * parity), abs=1e-12
            )
        assert np.allclose(U, np.diag(diag))

    def test_single_qubit_rotation_identity(self):
        spec = GeneratorSpec(((math.pi / 2, parse_pauli("X")),))
        U = target_unitary(spec)
        assert np.allclose(U, 1j * kron_word("X"), atol=1e-12)

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            spec = random_spec(rng, 3, int(rng.integers(1, 5)))
            H = sum(a * kron_word(str(p)) for a, p in spec.terms)
            assert np.allclose(target_unitary(spec), scipy.linalg.expm(1j * H), atol=1e-10)

    def test_single_term_matches_expm_oracle(self):
        rng = np.random.default_rng(22)
        for n in range(1, 7):
            for _ in range(5):
                a, w = float(rng.uniform(-4, 4)), random_word(rng, n)
                expected = scipy.linalg.expm(1j * a * kron_word(str(w)))
                assert np.allclose(target_unitary(GeneratorSpec(((a, w),))), expected,
                                   rtol=0, atol=1e-12)

    def test_single_term_matches_eigh_at_ten_qubits(self):
        rng = np.random.default_rng(23)
        a, p = 0.7, random_word(rng, 10, min_weight=10)
        U = target_unitary(GeneratorSpec(((a, p),)))
        assert np.allclose(U, expi_hermitian(a * to_matrix(p)), rtol=0, atol=1e-12)

    def test_single_term_needs_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called for a single-term target")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        spec = GeneratorSpec(((0.5, parse_pauli("XYZZYXXY")),))
        assert unitarity_defect(target_unitary(spec)) < 1e-12

    def test_cap(self):
        spec = GeneratorSpec(((1.0, parse_pauli("Z" * 11)),))
        with pytest.raises(ResourceLimitError):
            target_unitary(spec)

    def test_single_term_equals_kronecker_form_exactly(self):
        # the target is written from the word's bit masks; it must equal
        # cos(a)*I + i*sin(a)*P with P the Kronecker chain, entry for entry
        rng = np.random.default_rng(24)
        words = [w for n in range(1, 5) for w in all_strings(n, min_weight=1)]
        words += [random_word(rng, n) for n in (8, 10) for _ in range(3)]
        for w in words:
            for a in (0.7853981633974483, -1.3, 2.9):
                expected = (math.cos(a) * np.eye(2 ** w.n)
                            + (1j * math.sin(a)) * kron_word(str(w)))
                assert np.array_equal(target_unitary(GeneratorSpec(((a, w),))), expected), w


    def test_overflowing_sum_is_a_domain_error_without_warning(self):
        # 1e308 + 1e308 on the |00> diagonal entry is inf
        spec = GeneratorSpec(((1e308, parse_pauli("ZI")), (1e308, parse_pauli("IZ"))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                target_unitary(spec)


class TestScheduleUnitary:
    def test_empty_schedule_is_identity(self):
        net = uniform_chain(2)
        assert np.array_equal(unitary_of_schedule(net, Schedule(2, ())), np.eye(4))

    def test_calls_return_equal_arrays_that_share_no_memory(self):
        rng = np.random.default_rng(9)
        net = _signed_network(rng, 5)
        s = Schedule(5, _random_schedule(rng, net), repeat=1)
        U, V = unitary_of_schedule(net, s), unitary_of_schedule(net, s)
        assert np.array_equal(U, V) and not np.shares_memory(U, V)

    def test_single_two_body_evolution(self):
        # the drift -ZZ runs forward as exp(+i*t*ZZ)
        net = uniform_chain(2, g=-1.0)
        s = Schedule(2, (TwoBodyEvolution((0, 1), "z", "z", 1, math.pi / 4, -1.0),))
        U = unitary_of_schedule(net, s)
        oracle = scipy.linalg.expm(1j * math.pi / 4 * kron_word("ZZ"))
        assert np.linalg.norm(U - oracle) < 1e-12

    def test_zero_angle_word_rotation_is_identity(self):
        assert np.array_equal(word_rotation(parse_pauli("ZZ"), 0.0), np.eye(4))

    def test_axis_rotation_matches_expm(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            theta = float(rng.uniform(-3, 3))
            s = Schedule(2, (LocalRotation(1, tuple(axis), theta),))
            U = unitary_of_schedule(uniform_chain(2), s)
            G = sum(c * kron_word("I" + w) for c, w in zip(axis, "XYZ"))
            assert np.linalg.norm(U - scipy.linalg.expm(-1j * theta * G)) < 1e-12

    def test_rejects_mismatched_network(self):
        net = uniform_chain(3)
        with pytest.raises(DimensionError):
            unitary_of_schedule(net, Schedule(2, ()))

    @pytest.mark.parametrize("g", [np.diag([1.0, 1.0, 0.0]), np.diag([1.0, -1.0, 1.0]),
                                   np.array([[0.0, 0.2, 0.0], [0.0, 0.0, -0.75], [0.0] * 3])],
                             ids=["xx+yy", "diag-tie", "single"])
    def test_accepts_g_used_as_np_isclose_does(self, g):
        # the drift runs an evolution on axes (a, b) iff g[a, b] is a
        # strongest entry, g_used lies within 1e-9 relative of it (np.isclose
        # with rtol=1e-9, atol=0, which refuses infinities) and the sign is
        # -sgn(g_used); on the reversed edge (1, 0) the axes read as (b, a)
        net = QubitNetwork(n=2, edges={(0, 1): g})
        best = float(np.max(np.abs(g)))
        values = [sgn * best * (1 + d) for sgn in (1, -1)
                  for d in (0.0, 5e-10, -5e-10, 2e-9, -2e-9)]
        for (a, b), entry in np.ndenumerate(g):
            for g_used in values + [math.inf, -math.inf, math.nan]:
                runs = abs(entry) == best and bool(np.isclose(entry, g_used, rtol=1e-9, atol=0.0))
                for sign in (1, -1):
                    for edge, axes in (((0, 1), (a, b)), ((1, 0), (b, a))):
                        alpha, beta = (AXES[k] for k in axes)
                        schedule = Schedule(2, (TwoBodyEvolution(edge, alpha, beta, sign,
                                                                 0.3, g_used),))
                        if runs and sign == (-1 if g_used > 0 else 1):
                            unitary_of_schedule(net, schedule)
                        else:
                            with pytest.raises(DomainError):
                                unitary_of_schedule(net, schedule)

    def test_rejects_unrealizable_coupling(self):
        net = uniform_chain(2, g=1.0)
        s = Schedule(2, (TwoBodyEvolution((0, 1), "z", "z", 1, 0.5, 7.0),))
        with pytest.raises(DomainError):
            unitary_of_schedule(net, s)

    @pytest.mark.parametrize("prim", [
        LocalRotation(0, (1.0, 1.0, 0.0), 0.3),   # not a unit axis
        LocalRotation(0, (1.0, 0.0), 0.3),        # not a 3-vector
        LocalRotation(2, (1.0, 0.0, 0.0), 0.3),   # qubit outside 0..1
        LocalRotation(-1, (1.0, 0.0, 0.0), 0.3),
        TwoBodyEvolution((0, 2), "z", "z", -1, 0.3, 1.0),  # no such edge
        TwoBodyEvolution((0, 1), "z", "z", 1, 0.3, 1.0),   # drift +ZZ run backwards
        TwoBodyEvolution((0, 1), "z", "z", 1, 0.3, -1.0),  # no -ZZ drift on the edge
        LocalRotation(0, (0.0, 0.0, 1.0), math.inf),       # non-finite angle
        "not a primitive",
        LocalRotation(0.5, (1.0, 0.0, 0.0), 0.3),  # formerly a bare TypeError
    ])
    def test_rejects_bad_primitives(self, prim):
        with pytest.raises(DomainError):
            unitary_of_schedule(uniform_chain(2), Schedule(2, (prim,)))


def _signed_network(rng, n):
    """Random connected graph whose every edge couples all nine axis pairs
    with magnitude 2.0, signed by one random symmetric matrix S on the first
    sorted edge, -S on the second, and so on alternately.  S is symmetric, so
    every evolution also runs on its edge reversed; from n = 3 on, every axis
    pair runs with both signs on some edge."""
    net = random_connected_network(rng, n, extra_edges=1)
    S = np.triu(rng.choice([-1.0, 1.0], size=(3, 3)))
    S += np.triu(S, 1).T
    return QubitNetwork(n=n, edges={edge: 2.0 * (-1) ** k * S
                                    for k, edge in enumerate(sorted(net.edges))})


def _random_schedule(rng, net):
    """Every two-body axis pair with each sign some edge's drift gives, once,
    in random order, on a random such edge in a random orientation, each
    after a random local rotation.  g_used is the entry on the evolution's
    axes and the sign is -sgn(g_used), so the network can run every one."""
    edges = sorted(net.edges)
    pairs = [(a, b, s) for a in range(3) for b in range(3) for s in (1, -1)]
    prims = []
    for k in rng.permutation(len(pairs)):
        a, b, sign = pairs[k]
        runs = [e for e in edges if net.edge_tensor(e)[a, b] * sign < 0]
        if not runs:  # a single edge drives each axis pair with one sign
            continue
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        prims.append(LocalRotation(int(rng.integers(net.n)), tuple(axis),
                                   float(rng.uniform(-3, 3))))
        u, v = runs[int(rng.integers(len(runs)))]
        if rng.random() < 0.5:
            u, v = v, u
        # alpha sits on edge[0] and the tensor's rows on the smaller qubit
        g_used = float(net.edge_tensor((u, v))[(a, b) if u < v else (b, a)])
        prims.append(TwoBodyEvolution((u, v), AXES[a], AXES[b], sign,
                                      float(rng.uniform(0, 3)), g_used))
    return tuple(prims)


def _expm_oracle(n, primitives, repeat):
    """Ordered product of scipy expm over Kronecker-built generators."""
    U = np.eye(2 ** n, dtype=complex)
    for prim in primitives:
        if isinstance(prim, LocalRotation):
            G = sum(c * kron_word("".join(w if q == prim.qubit else "I"
                                          for q in range(n)))
                    for c, w in zip(prim.axis, "XYZ"))
            step = scipy.linalg.expm(-1j * prim.angle * G)
        else:
            labels = ["I"] * n
            labels[prim.edge[0]] = prim.alpha.upper()
            labels[prim.edge[1]] = prim.beta.upper()
            step = scipy.linalg.expm(1j * prim.sign * prim.angle * kron_word("".join(labels)))
        U = step @ U
    out = np.eye(2 ** n, dtype=complex)
    for _ in range(repeat):
        out = U @ out
    return out


class TestQubitLocalKernel:
    def test_random_schedules_match_expm_product(self):
        rng = np.random.default_rng(404)
        for n in range(2, 7):
            for trial in range(3):
                net = _signed_network(rng, n)
                prims = _random_schedule(rng, net)
                repeat = int(rng.integers(1, 4)) if trial else 3
                U = unitary_of_schedule(net, Schedule(n, prims, repeat=repeat))
                assert np.linalg.norm(U - _expm_oracle(n, prims, repeat)) < 1e-12

    def test_pauli_pair_step_equals_matmul_reference_to_the_bit(self):
        # every schedule also runs with each evolution's edge reversed, so
        # all nine axis pairs meet both orientations
        rng = np.random.default_rng(505)
        for n in range(2, 9):
            net = _signed_network(rng, n)
            for _ in range(2):
                prims = _random_schedule(rng, net)
                reversed_edges = tuple(
                    dataclasses.replace(p, edge=p.edge[::-1])
                    if isinstance(p, TwoBodyEvolution) else p for p in prims)
                for schedule in (prims, reversed_edges):
                    s = Schedule(n, schedule, repeat=int(rng.integers(1, 4)))
                    assert np.array_equal(unitary_of_schedule(net, s),
                                          matmul_schedule_unitary(s))

    def test_qubits_that_enter_out_of_order_match_the_reference_to_the_bit(self):
        # evolutions on (4, 5), then (1, 0) listed (v, u), then (2, 3): the
        # touched qubits grow at the back, then the front, then the middle
        net = QubitNetwork(n=6, edges={(k, k + 1): np.ones((3, 3)) for k in range(5)})
        prims = (LocalRotation(5, (0.6, 0.0, 0.8), 0.4),
                 TwoBodyEvolution((4, 5), "x", "y", -1, 0.7, 1.0),
                 LocalRotation(0, (0.48, 0.6, 0.64), -1.2),
                 TwoBodyEvolution((1, 0), "z", "x", -1, 0.3, 1.0),
                 LocalRotation(3, (0.0, 1.0, 0.0), 0.9),
                 LocalRotation(4, (0.8, 0.0, 0.6), 2.1),
                 TwoBodyEvolution((2, 3), "y", "z", -1, 1.1, 1.0),
                 TwoBodyEvolution((3, 4), "x", "x", -1, 0.5, 1.0),
                 LocalRotation(2, (0.6, 0.8, 0.0), -0.3))
        for repeat in (1, 2):
            s = Schedule(6, prims, repeat=repeat)
            assert np.array_equal(unitary_of_schedule(net, s), matmul_schedule_unitary(s))

    def test_rotation_on_a_qubit_no_evolution_touches(self):
        net = uniform_chain(4)
        for prims in ((LocalRotation(3, (0.48, 0.6, 0.64), 0.8),
                       TwoBodyEvolution((1, 2), "z", "z", -1, 0.6, 1.0),
                       LocalRotation(1, (1.0, 0.0, 0.0), -0.5)),
                      (LocalRotation(2, (0.0, 0.6, 0.8), 1.7),)):
            s = Schedule(4, prims)
            assert np.array_equal(unitary_of_schedule(net, s), matmul_schedule_unitary(s))

    def test_one_evolution_on_an_eight_qubit_chain_is_its_kronecker_form(self):
        net = QubitNetwork(n=8, edges={(k, k + 1): -np.ones((3, 3)) for k in range(7)})
        s = Schedule(8, (TwoBodyEvolution((3, 4), "x", "y", 1, 0.6, -1.0),))
        U = unitary_of_schedule(net, s)
        pair = math.cos(0.6) * np.eye(4) + (1j * math.sin(0.6)) * kron_word("XY")
        assert np.array_equal(U, matmul_schedule_unitary(s))
        assert np.array_equal(U, np.kron(np.kron(np.eye(8), pair), np.eye(8)))

    def test_a_ten_qubit_certificate_flushes_before_every_qubit_has_joined(self, monkeypatch):
        # a ladder touches its qubits one by one, so its first rotation flush
        # runs on a U over fewer than all ten qubits
        import gatebound.simulator as sim

        sizes, on_qubit = [], sim._on_qubit

        def record(U, q, G, out):
            sizes.append(U.size)
            return on_qubit(U, q, G, out)

        monkeypatch.setattr(sim, "_on_qubit", record)
        net, word = ising_chain(10), parse_pauli("XYZZYXXYZX")
        U = unitary_of_schedule(net, synth_pauli_term(net, 0.5, word))
        assert sizes[0] < 4 ** 10 and U.shape == (2 ** 10, 2 ** 10)

    def test_no_dense_embedding_per_primitive(self, monkeypatch):
        import gatebound.simulator as sim

        def refuse(*args, **kwargs):
            raise AssertionError("to_matrix called while simulating a schedule")

        rng = np.random.default_rng(8)
        net = _signed_network(rng, 8)
        prims = _random_schedule(rng, net)
        monkeypatch.setattr(sim, "to_matrix", refuse)
        U = unitary_of_schedule(net, Schedule(8, prims, repeat=2))
        assert U.shape == (256, 256) and unitarity_defect(U) < 1e-12

    def test_a_ten_qubit_certificate_runs_in_two_work_arrays(self):
        # U and one spare, 16 * 4**n bytes each: a Pauli pair updates U in
        # place, where a third array once held its flipped-and-phased copy
        net, word = ising_chain(10), parse_pauli("XYZZYXXYZX")
        schedule = synth_pauli_term(net, 0.5, word)
        tracemalloc.start()
        try:
            U = unitary_of_schedule(net, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16 * 4 ** 10
        assert normalized_error(U, target_unitary(GeneratorSpec(((0.5, word),)))) < 1e-12


class TestErrorMetrics:
    def test_equal_inputs(self):
        U = np.eye(4, dtype=complex)
        assert normalized_error(U, U) == 0.0
        assert gate_infidelity(U, U) == 0.0

    def test_global_phase_flip(self):
        rng = np.random.default_rng(4)
        U = haar_unitary(rng, 8)
        assert normalized_error(U, -U) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert gate_infidelity(U, -U) == pytest.approx(0.0, abs=1e-12)

    def test_matches_high_precision_oracle(self):
        # explicit elementwise sums with python complex arithmetic
        rng = np.random.default_rng(6)
        U = haar_unitary(rng, 4)
        V = haar_unitary(rng, 4)
        sq = math.fsum(abs(U[i, j] - V[i, j]) ** 2 for i in range(4) for j in range(4))
        expected_err = math.sqrt(sq) / math.sqrt(2 * 4)
        assert normalized_error(U, V) == pytest.approx(expected_err, rel=1e-13)
        tr = sum(complex(U[i, j]).conjugate() * complex(V[i, j])
                 for i in range(4) for j in range(4))
        assert gate_infidelity(U, V) == pytest.approx(1 - abs(tr) / 4, rel=1e-13)

    def test_ranges_on_random_unitaries(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(2 ** rng.integers(1, 4))
            U = haar_unitary(rng, dim)
            V = haar_unitary(rng, dim)
            e = normalized_error(U, V)
            f = gate_infidelity(U, V)
            assert -1e-12 <= e <= math.sqrt(2) + 1e-12
            assert -1e-12 <= f <= 1 + 1e-12

    def test_infidelity_stays_in_unit_interval_off_unitarity(self):
        # a rounded long repeat is slightly off unitary; |tr(U^dagger V)|
        # over 2**n can then pass 1, and the cap keeps the value at 0
        rng = np.random.default_rng(9)
        for _ in range(200):
            dim = int(2 ** rng.integers(1, 6))
            U = haar_unitary(rng, dim)
            V = U * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * (1 + rng.uniform(0, 1e-6))
            assert 0.0 <= gate_infidelity(U, V) <= 1e-15
            assert 0.0 <= gate_infidelity(U, haar_unitary(rng, dim)) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            normalized_error(np.eye(2), np.eye(4))
        with pytest.raises(DimensionError):
            gate_infidelity(np.eye(2), np.eye(4))


class TestDriftMatrix:
    @pytest.mark.parametrize("n, edges, omega", [
        (2, {(0, 1): np.full((3, 3), 1e308)}, None),
        (3, {(0, 1): np.diag([0.0, 0.0, 1e308]), (1, 2): np.diag([0.0, 0.0, 1e308])}, None),
        (3, {(0, 1): np.eye(3), (1, 2): np.eye(3)}, [[0.0, 0.0, 1e308]] * 3)],
        ids=["one-edge", "two-edges", "omega"])
    def test_overflow_is_a_domain_error_without_warning(self, n, edges, omega):
        net = QubitNetwork(n=n, edges=edges, omega=omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                drift_matrix(net)


class TestUnitarity:
    def test_produced_matrices_are_unitary(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            spec = random_spec(rng, 3, int(rng.integers(1, 4)))
            assert unitarity_defect(target_unitary(spec)) < 1e-10


class TestTrotterProductTheorem:
    def test_error_within_bound_for_random_specs(self):
        from gatebound import trotter_error_bound

        rng = np.random.default_rng(40)
        for _ in range(10):
            spec = random_spec(rng, 3, int(rng.integers(2, 5)))
            U = target_unitary(spec)
            for m in (1, 2, 4, 8, 16, 32):
                G = np.eye(8, dtype=complex)
                for a, p in spec.terms:
                    G = word_rotation(p, abs(a) / m, sign=1 if a > 0 else -1) @ G
                Gm = np.linalg.matrix_power(G, m)
                assert normalized_error(Gm, U) <= trotter_error_bound(spec, m) + 1e-12

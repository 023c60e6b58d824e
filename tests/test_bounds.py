"""Closed-form bound formulas and the aggregated report."""

import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatebound import (
    GeneratorSpec,
    PauliString,
    QubitNetwork,
    bound_report,
    cnot_bound,
    commutator_weight,
    concatenation_bounds,
    exact_three_spin,
    min_coupling,
    min_trotter_steps,
    nbody_chain_bound,
    poly_membership,
    run_time_bound,
    single_term_bound,
    star_term_bound,
    trotter_error_bound,
    two_qubit_bound,
)
from gatebound import bounds
from gatebound.bounds import spec_from_list
from gatebound.cli import main
from gatebound.depth import max_depth_table
from gatebound.errors import DomainError
from gatebound.grape import PulseSet, optimize, time_scan
from gatebound.network import ising_chain, star
from gatebound.pauli import parse_pauli

from helpers import (
    all_strings,
    commutator_weight_oracle,
    grid_graph,
    kron_word,
    random_connected_network,
    random_spec,
    random_word,
    spec_to_list,
    uniform_chain,
)


def spec_of(*terms):
    return GeneratorSpec(tuple((a, parse_pauli(w)) for a, w in terms))


XY_SPEC = spec_of((1.0, "XI"), (1.0, "YI"))  # one anticommuting pair on n = 2


class TestGeneratorSpec:
    def test_derived_quantities(self):
        s = spec_of((0.5, "XX"), (-2.0, "ZI"), (1.0, "YZ"))
        assert s.l == 3
        assert s.norm_inf == 2.0
        assert s.norm_1 == 3.5
        assert s.n == 2
        assert s.coefficients.dtype == np.float64
        assert s.coefficients.tolist() == [a for a, _ in s.terms] == [0.5, -2.0, 1.0]
        for array in (s.coefficients, s.bits):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert s == GeneratorSpec(s.terms) and hash(s) == hash(GeneratorSpec(s.terms))
        # a pairwise sum of these |a| rounds to 1 + 3 ulp, the sum in term order does not
        words = ("XI", "YI", "ZI", "IX", "IY", "IZ", "XX", "YY", "ZZ")
        tiny = spec_of(*zip((1.0,) + (-1e-16, 1e-16) * 4, words))
        assert tiny.norm_1 == sum(abs(a) for a, _ in tiny.terms) != np.abs(tiny.coefficients).sum()

    def test_bits_match_the_masks(self):
        rng = np.random.default_rng(31)
        for n in (1, 7, 8, 9, 64, 130):
            words = []
            while len(words) < min(5, 4**n - 1):
                p = random_word(rng, n)
                if p not in words:
                    words.append(p)
            bits = GeneratorSpec(tuple((1.0, p) for p in words)).bits
            assert bits.shape == (len(words), 2, n) and bits.dtype == np.uint8
            for j, p in enumerate(words):
                for i in range(n):
                    assert bits[j, 0, i] == p.x_bits >> i & 1
                    assert bits[j, 1, i] == p.z_bits >> i & 1

    def test_validation(self):
        with pytest.raises(DomainError):
            spec_of((0.0, "X"))
        with pytest.raises(DomainError):
            spec_of((1.0, "II"))
        with pytest.raises(DomainError):
            spec_of((1.0, "X"), (2.0, "X"))
        with pytest.raises(DomainError):
            spec_of((1.0, "X"), (1.0, "XX"))
        with pytest.raises(DomainError):
            GeneratorSpec(())
        with pytest.raises(DomainError, match="phase 0"):
            GeneratorSpec(((1.0, PauliString(2, 1, 0, 2)),))  # -XI
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                spec_of((bad, "X"))

    def test_json_round_trip(self):
        s = spec_of((0.25, "ZZI"), (-1.5, "XYZ"))
        back = spec_from_list(spec_to_list(s))
        assert back == s


class TestSingleTermBound:
    def test_examples(self):
        assert single_term_bound(math.pi / 4, 1, 1.0) == pytest.approx(3 * math.pi / 4)
        assert single_term_bound(0.0, 0, 2.0) == 0.0
        # fallback depth 2*(n-2) on three qubits is 2
        assert single_term_bound(math.pi / 4, 2, 1.0) == pytest.approx(5 * math.pi / 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            single_term_bound(1.0, 1, 0.0)
        with pytest.raises(DomainError):
            single_term_bound(1.0, -1, 1.0)


class TestTrotterError:
    def test_commuting_is_exact(self):
        s = spec_of((1.0, "ZZ"), (0.7, "ZI"))
        for m in (1, 2, 5):
            assert trotter_error_bound(s, m) == 0.0
        assert min_trotter_steps(s, 1e-6) == 1

    def test_norm_pair_example(self):
        # ||[XI, YI]|| = 4 by the matrix oracle, so the m = 1 error bound is
        # 4 / (2*sqrt(8)) = 1/sqrt(2)
        oracle = np.linalg.norm(
            kron_word("XI") @ kron_word("YI") - kron_word("YI") @ kron_word("XI")
        )
        assert oracle == pytest.approx(4.0, abs=1e-12)
        assert trotter_error_bound(XY_SPEC, 1) == pytest.approx(1 / math.sqrt(2))
        assert trotter_error_bound(XY_SPEC, 2) == pytest.approx(0.5 / math.sqrt(2))

    def test_inverse_proportional_to_m(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = random_spec(rng, 3, int(rng.integers(2, 5)))
            e1 = trotter_error_bound(s, 1)
            for m in (2, 3, 7, 16):
                assert trotter_error_bound(s, m) == pytest.approx(e1 / m, rel=1e-12)

    def test_min_steps_examples(self):
        assert min_trotter_steps(XY_SPEC, 0.1) == 8
        assert trotter_error_bound(XY_SPEC, 8) <= 0.1 < trotter_error_bound(XY_SPEC, 7)
        assert min_trotter_steps(XY_SPEC, 1 / math.sqrt(2)) == 1
        assert min_trotter_steps(XY_SPEC, 0.9) == 1
        with pytest.raises(DomainError):
            min_trotter_steps(XY_SPEC, 0.0)
        with pytest.raises(DomainError, match="unboundedly many steps"):
            min_trotter_steps(XY_SPEC, 5e-324)  # e1 / epsilon overflows
        with pytest.raises(DomainError):
            trotter_error_bound(XY_SPEC, 0)

    def test_thousands_of_qubits(self):
        # K = 2*|a_1 a_2| for one anticommuting pair, whatever n is
        n = 1100
        s = GeneratorSpec(((0.5, PauliString(n, 1, 0)), (0.25, PauliString(n, 0, 1))))
        assert commutator_weight(s) == 0.25
        assert trotter_error_bound(s, 1) == pytest.approx(0.25 / (2 * math.sqrt(2)))
        assert min_trotter_steps(s, 1e-3) == math.ceil(0.25 / (2 * math.sqrt(2) * 1e-3))

    def test_overflowing_weight_is_a_domain_error(self):
        s = spec_of((1e300, "XI"), (1e300, "YI"))
        with pytest.raises(DomainError):
            commutator_weight(s)
        with pytest.raises(DomainError):
            bound_report(s, uniform_chain(2), 0.1)

    def test_min_steps_is_minimal(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = random_spec(rng, 3, int(rng.integers(2, 5)))
            eps = float(rng.uniform(0.01, 1.0))
            m = min_trotter_steps(s, eps)
            assert trotter_error_bound(s, m) <= eps
            if m > 1:
                assert trotter_error_bound(s, m - 1) > eps


class TestBoundReport:
    def test_single_term_routes_to_per_term(self):
        net = uniform_chain(3)
        s = spec_of((math.pi / 4, "ZZZ"))
        rep = bound_report(s, net, 0.05, use_exact_depths=True)
        assert rep.coarse_bound is None
        assert rep.trotter_bound is None
        assert rep.schedule_bound is None
        assert rep.depths == (1,)
        assert rep.per_term_bounds[0] == pytest.approx(3 * math.pi / 4)

    def test_commutator_weight_example(self):
        assert commutator_weight(XY_SPEC) == pytest.approx(2.0)

    def test_weight_one_terms_cost_nothing(self):
        net = uniform_chain(3)
        s = spec_of((0.5, "ZZI"), (0.5, "IXI"))
        rep = bound_report(s, net, 0.05, use_exact_depths=True)
        assert rep.depths == (0, 0)
        assert rep.per_term_bounds[1] == pytest.approx(0.5)

    def test_small_coefficient_limit(self):
        # as a -> 0 the schedule bound approaches one depth pass and the
        # coarse bound approaches zero
        net = uniform_chain(3)
        J = min_coupling(net)
        scale = 1e-9
        s = spec_of((scale, "ZIZ"), (scale, "XIZ"))
        rep = bound_report(s, net, 0.05, use_exact_depths=True)
        depth_pass = math.pi / 2 * sum(rep.depths) / J
        assert rep.schedule_bound == pytest.approx(depth_pass, rel=1e-6)
        assert rep.coarse_bound < 1e-6
        assert rep.trotter_steps == 1

    def test_exact_depths_never_exceed_fallback(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            s = random_spec(rng, n, int(rng.integers(2, 5)))
            exact = bound_report(s, net, 0.05, use_exact_depths=True)
            fallback = bound_report(s, net, 0.05, use_exact_depths=False)
            assert all(e <= f for e, f in zip(exact.depths, fallback.depths))
            assert exact.schedule_bound <= fallback.schedule_bound + 1e-12

    def test_bound_ordering(self):
        # trotter <= schedule always; schedule <= coarse in the regime where
        # the coarse formula implies at least one product pass
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            s = random_spec(rng, n, int(rng.integers(2, 5)), coeff_range=(0.3, 1.0))
            rep = bound_report(s, net, 0.05)
            assert rep.trotter_bound <= rep.schedule_bound + 1e-12
            assert rep.trotter_bound <= rep.coarse_bound + 1e-12
            if s.l * (s.l - 1) * s.norm_inf**2 >= 2 * math.sqrt(2) * 0.05:
                assert rep.schedule_bound <= rep.coarse_bound + 1e-12

    def test_schedule_bound_is_never_below_trotter_bound(self):
        # strictly, with no slack: above one product pass the two bounds are
        # the same quantity and must not differ in their last bits
        ring = QubitNetwork(n=6, edges={(i, (i + 1) % 6): np.diag([0.0, 0.0, 1.0])
                                        for i in range(6)})
        cases = [(spec_of((0.4, "XIIZII"), (-0.3, "ZZIIIY")), ring)]
        rng = np.random.default_rng(15)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            cases.append((random_spec(rng, n, int(rng.integers(2, 5))), net))
        for s, net in cases:
            for eps in (0.3, 0.05, 1e-3):
                for exact in (False, True):
                    rep = bound_report(s, net, eps, use_exact_depths=exact)
                    assert rep.trotter_bound <= rep.schedule_bound, (s, eps, exact)

    def test_run_time_bound_uses_integer_steps(self):
        net = uniform_chain(3)
        s = spec_of((0.8, "ZIZ"), (0.7, "XIZ"))
        rep = bound_report(s, net, 0.05, use_exact_depths=True)
        J = min_coupling(net)
        expected = (s.norm_1 + rep.trotter_steps * math.pi / 2 * sum(rep.depths)) / J
        assert run_time_bound(s, net, 0.05, use_exact_depths=True) == pytest.approx(expected)

    def test_report_serialization(self):
        net = uniform_chain(3)
        rep = bound_report(spec_of((0.4, "ZZI"), (0.3, "XZI")), net, 0.05)
        data = rep.to_dict()
        assert set(data) == {
            "coarse_bound", "trotter_bound", "schedule_bound",
            "per_term_bounds", "commutator_weight", "trotter_steps",
            "epsilon", "depths", "exact_depths", "j_coupling",
        }

    def test_report_carries_its_walks_outside_the_dict(self):
        keys = ["coarse_bound", "trotter_bound", "schedule_bound", "per_term_bounds",
                "commutator_weight", "trotter_steps", "epsilon", "depths", "exact_depths",
                "j_coupling"]
        rng = np.random.default_rng(14)
        cases = [(uniform_chain(3), spec_of((0.5, "ZIZ"), (0.5, "IXI")))]
        for _ in range(30):
            n = int(rng.integers(2, 6))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            cases.append((net, random_spec(rng, n, int(rng.integers(1, 5)))))
        for net, s in cases:
            for exact in (False, True):
                rep = bound_report(s, net, 0.05, use_exact_depths=exact)
                assert list(rep.to_dict()) == keys
                json.dumps(rep.to_dict())
                assert rep.spec == s
                for word, walk, d in zip(s.words, rep.walks, rep.depths):
                    if exact and word.weight > 1:
                        assert walk.depth == d
                    else:  # weight 1, or the 2*(n-2) fallback
                        assert walk is None
                assert rep.run_time_bound == run_time_bound(s, net, 0.05, exact)

    def test_epsilon_validation(self):
        net = uniform_chain(3)
        with pytest.raises(DomainError):
            bound_report(XY_SPEC, net, 0.05)  # n mismatch
        with pytest.raises(DomainError):
            bound_report(spec_of((1.0, "ZZI")), net, 0.0)
        for eps in (math.nan, math.inf):
            with pytest.raises(DomainError):
                bound_report(spec_of((1.0, "ZZI")), net, eps)
            with pytest.raises(DomainError):
                min_trotter_steps(XY_SPEC, eps)


class TestPairSumChain:
    def test_three_line_inequality_chain(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            l = int(rng.integers(2, 6))
            if l > 4 ** n - 1:
                continue
            s = random_spec(rng, n, l)
            pairs = [
                (abs(aj * ak), pj, pk)
                for j, (aj, pj) in enumerate(s.terms)
                for k, (ak, pk) in enumerate(s.terms)
                if j > k
            ]
            from gatebound import hs_norm_commutator

            total = sum(w * hs_norm_commutator(pj, pk) for w, pj, pk in pairs)
            m1 = max((w * hs_norm_commutator(pj, pk) for w, pj, pk in pairs))
            step1 = l * (l - 1) / 2 * m1
            # ||Bj Bk|| = sqrt(2**n) exactly for Pauli words
            m2 = max(w for w, _, _ in pairs)
            step2 = l * (l - 1) * m2 * math.sqrt(2.0 ** n)
            step3 = l * (l - 1) * s.norm_inf**2 * math.sqrt(2.0 ** n)
            assert total <= step1 + 1e-12
            assert step1 <= step2 + 1e-12
            assert step2 <= step3 + 1e-12
            assert commutator_weight(s) * math.sqrt(2.0 ** n) == pytest.approx(total)


def majoranas(n: int, coeffs) -> GeneratorSpec:
    """The 2n Jordan-Wigner words Z..Z X_i and Z..Z Y_i: every pair anticommutes."""
    words = [PauliString(n, 1 << i, (1 << (i + y)) - 1) for i in range(n) for y in (0, 1)]
    return GeneratorSpec(tuple(zip(coeffs, words)))


class TestCommutatorKernel:
    """commutator_weight against the pair loop it replaced, compared with ==."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 65, 130, 1100])
    def test_matches_pair_loop_on_seeded_specs(self, n):
        rng = np.random.default_rng(6000 + n)
        for l in (1, 2, 3, 5, 17, 60):
            s = random_spec(rng, n, min(l, 4**n - 1), coeff_range=(1e-3, 10.0))
            assert commutator_weight(s) == commutator_weight_oracle(s)

    @pytest.mark.parametrize("l", [1, 90, 91, 92, 300])
    def test_matches_pair_loop_at_block_edges(self, l):
        # the first block holds rows 1..90 (90 * 90 <= 8192 < 91 * 91), so
        # l = 91 fills exactly one block; l = 300 spans seven
        rng = np.random.default_rng(7000 + l)
        s = random_spec(rng, 20, l, coeff_range=(1e-3, 10.0))
        assert commutator_weight(s) == commutator_weight_oracle(s)

    def test_matches_pair_loop_when_rows_split(self, monkeypatch):
        # with 7-pair blocks every row past the seventh is a block of its own
        monkeypatch.setattr(bounds, "_PAIR_BLOCK", 7)
        rng = np.random.default_rng(7001)
        for n, l in [(3, 20), (8, 40), (65, 30)]:
            s = random_spec(rng, n, l, coeff_range=(1e-3, 10.0))
            assert commutator_weight(s) == commutator_weight_oracle(s)

    def test_all_commuting_is_zero(self):
        for x_or_z in (0, 1):
            words = [PauliString(8, m * (1 - x_or_z), m * x_or_z) for m in range(1, 200)]
            s = GeneratorSpec(tuple((0.5 + 0.01 * k, w) for k, w in enumerate(words)))
            assert commutator_weight(s) == commutator_weight_oracle(s) == 0.0

    def test_all_anticommuting(self):
        rng = np.random.default_rng(7002)
        for n in (1, 3, 65):
            a = rng.uniform(0.1, 1.0, size=2 * n) * rng.choice([-1.0, 1.0], size=2 * n)
            s = majoranas(n, a)
            K = commutator_weight(s)
            assert K == commutator_weight_oracle(s)
            assert K == pytest.approx(np.sum(np.abs(a)) ** 2 - np.sum(a**2))

    def test_overflow_is_a_domain_error_without_warnings(self):
        cases = [
            spec_of((1e200, "XI"), (1e200, "YI")),  # a product overflows
            majoranas(1, [1e154, 1e154]),  # the sum is finite, 2 * sum is not
            spec_of((1e154, "XI"), (1e154, "YI"), (1e154, "ZI")),  # the sum overflows
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in cases:
                with pytest.raises(DomainError):
                    commutator_weight(s)
                with pytest.raises(DomainError):
                    commutator_weight_oracle(s)
            # an overflowing product on a commuting pair is never formed
            s = spec_of((1e200, "ZI"), (1e200, "IZ"), (1.0, "XI"))
            assert commutator_weight(s) == commutator_weight_oracle(s) == 2e200

    @settings(derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_matches_pair_loop_at_any_block_size(self, data):
        n = data.draw(st.integers(1, 70))
        l = data.draw(st.integers(1, min(60, 4**n - 1)))
        word = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
        keys = data.draw(st.lists(word.filter(any), min_size=l, max_size=l, unique=True))
        coeffs = data.draw(st.lists(st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3),
                                    min_size=l, max_size=l))
        s = GeneratorSpec(tuple((a, PauliString(n, x, z)) for a, (x, z) in zip(coeffs, keys)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_PAIR_BLOCK", data.draw(st.integers(1, 300)))
            assert commutator_weight(s) == commutator_weight_oracle(s)

    def test_masked_products_never_reach_the_sum(self, monkeypatch):
        # with 50-pair blocks, rows 8..11 form the second block and its strip
        # is columns 7..10: (8, 8) and (9, 9) are diagonal entries there, (8, 9)
        # has k > j, and rows 8 and 9 meet the commuting ZZ word 2 in the
        # rectangle; all of these products overflow and all are dropped
        monkeypatch.setattr(bounds, "_PAIR_BLOCK", 50)
        words = ["XIIIII", "YXIIII", "ZZIIII", "IYXIII", "IIYXII", "IIIYXI", "IIIIYX",
                 "XIIIIY", "IZZIII", "IIZZII", "XXIIII", "IIIIXX", "YIIIIY"]
        big = {2: 1e200, 8: 1e200, 9: 1e300}
        s = spec_of(*((big.get(j, 1.0), w) for j, w in enumerate(words)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = commutator_weight(s)
            assert math.isfinite(K) and K == commutator_weight_oracle(s)
            # an anticommuting pair of the same size in the same place overflows
            words[9] = "IIXZII"
            s = spec_of(*((big.get(j, 1.0), w) for j, w in enumerate(words)))
            with pytest.raises(DomainError):
                commutator_weight(s)

    def test_scratch_memory_at_five_thousand_terms(self):
        s = random_spec(np.random.default_rng(7003), 20, 5000)
        tracemalloc.start()
        try:
            commutator_weight(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_cli_bound_on_eight_thousand_terms(self, tmp_path, capsys):
        s = random_spec(np.random.default_rng(7004), 20, 8000)
        target = tmp_path / "target.json"
        target.write_text(json.dumps(spec_to_list(s)))
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"preset": "ising_chain", "n": 20, "J": 1.0}))
        t0 = time.perf_counter()
        rc = main(["bound", str(net), str(target), "--epsilon", "0.01"])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["commutator_weight"] == commutator_weight(s)
        assert elapsed < 2.0


class TestNamedBounds:
    def test_cnot_and_two_qubit(self):
        net = uniform_chain(4)
        assert cnot_bound(net, 0, 1) == pytest.approx(math.pi / 4)
        assert cnot_bound(net, 0, 3) == pytest.approx(9 * math.pi / 4)
        for (i, j) in ((0, 1), (0, 3), (1, 3)):
            assert two_qubit_bound(net, i, j) == pytest.approx(3 * cnot_bound(net, i, j))
        with pytest.raises(DomainError):
            cnot_bound(net, 2, 2)

    def test_cnot_bound_is_the_single_word_bound_at_the_table_depth(self):
        # the subset table is a depth engine that shares no search with cnot_bound
        rng = np.random.default_rng(17)
        for trial in range(40):
            n = int(rng.integers(2, 11))
            extra = int(rng.integers(1, 4)) if trial % 2 else 0  # trees, then not
            net = random_connected_network(rng, n, extra_edges=extra)
            table, J = max_depth_table(net), min_coupling(net)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        depth = table.support_depth((i, j))
                        assert cnot_bound(net, i, j) == single_term_bound(math.pi / 4, depth, J)

    def test_cnot_bound_on_grid_corners_is_fast(self):
        net = grid_graph(45, 45)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            bound = cnot_bound(net, 0, 2024)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1
        assert bound == single_term_bound(math.pi / 4, 2 * (88 - 1), min_coupling(net))

    def test_reduced_control_networks_are_refused(self):
        # the full-local formulas do not hold for the star's reduced controls
        net = star(4)
        spec = GeneratorSpec(((0.5, parse_pauli("ZZZZ")),))
        for call in (lambda: bound_report(spec, net, 0.1),
                     lambda: run_time_bound(spec, net, 0.1),
                     lambda: cnot_bound(net, 0, 1),
                     lambda: two_qubit_bound(net, 1, 2)):
            with pytest.raises(DomainError, match="star_term_bound"):
                call()

    def test_nbody_chain(self):
        assert nbody_chain_bound(3, 1, math.pi / 2) == pytest.approx(1.5)
        assert nbody_chain_bound(3, 1, 1.0) == pytest.approx(3 * math.pi / 4)
        assert nbody_chain_bound(4, 1, math.pi / 2) == pytest.approx(2.5)
        with pytest.raises(DomainError):
            nbody_chain_bound(2, 1, 1.0)

    def test_exact_three_spin(self):
        assert exact_three_spin(1, 1) == pytest.approx(math.sqrt(3) / 2)
        assert exact_three_spin(0, 1) == 0.0
        # kappa = 2 is the local gate -i*ZZZ, and kappa ~ kappa + 2 ~ -kappa
        assert exact_three_spin(2, 1) == 0.0
        assert exact_three_spin(1.5, 1) == exact_three_spin(0.5, 1) == pytest.approx(
            math.sqrt(7) / 4)
        with pytest.raises(DomainError):
            exact_three_spin(4.5, 1)

    def test_bound_to_exact_ratio(self):
        # same physical chain: the bound takes the drift coupling pi/2 * J,
        # the exact result is stated in terms of J itself
        for kappa in (0.5, 1.0, 3.0):
            for J in (0.5, 1.0, 2.0):
                ratio = nbody_chain_bound(3, kappa, math.pi / 2 * J) / exact_three_spin(kappa, J)
                assert ratio == pytest.approx((2 + kappa) / math.sqrt(kappa * (4 - kappa)))
        for J in (0.5, 1.0, 2.0):  # kappa = 2 is local: the minimum is 0
            assert exact_three_spin(2.0, J) == 0.0
        assert nbody_chain_bound(3, 1, math.pi / 2) / exact_three_spin(1, 1) == pytest.approx(
            math.sqrt(3)
        )

    def test_concatenation(self):
        s = spec_of((1.0, "XI"), (0.5, "YI"))
        tau, T = concatenation_bounds(1.0, 2, s, 0.1)
        assert tau == pytest.approx(13.0)
        tau, _ = concatenation_bounds(1.0, 1, s, 0.1)
        assert tau == pytest.approx(5.0)
        _, T1 = concatenation_bounds(1.0, 2, s, 0.1)
        _, T2 = concatenation_bounds(1.0, 2, s, 0.2)
        assert T1 == pytest.approx(2 * T2)
        with pytest.raises(DomainError, match="at least one qubit"):
            concatenation_bounds(1.0, 0, s, 0.1)
        with pytest.raises(DomainError, match="at least two terms"):
            concatenation_bounds(1.0, 2, spec_of((1.0, "XI")), 0.1)

    def test_star_bound(self):
        assert star_term_bound(3, 1.0, 0.0) == pytest.approx(13 * math.pi / 2)
        assert star_term_bound(3, 1.0, math.pi / 4) == pytest.approx(
            13 * math.pi / 2 + math.pi / 4
        )
        for n in (3, 5, 9):
            inc = star_term_bound(n + 1, 2.0, 0.3) - star_term_bound(n, 2.0, 0.3)
            assert inc == pytest.approx(6 * math.pi / 2.0)
        with pytest.raises(DomainError, match="n >= 3"):
            star_term_bound(2, 1.0, 0.3)

    def test_ising_preset_matches_chain_bound_inputs(self):
        # the preset's smallest coupling is the chain-bound J
        net = ising_chain(3, J=1.0)
        assert min_coupling(net) == pytest.approx(math.pi / 2)


class TestPolyMembership:
    def test_linear_class_for_single_terms(self):
        s = spec_of((1.0, "ZZZZ"))
        rep = poly_membership(s, 1.0)
        assert rep.member and rep.scaling_class == "linear"
        assert rep.scaling_exponent == 1.0
        with pytest.raises(DomainError, match="n >= 2"):
            poly_membership(spec_of((1.0, "Z")), 1.0)  # log n is 0 on one qubit

    def test_polynomial_exponent_four(self):
        n = 4
        words = ["XIII", "IXII", "IIXI", "IIIX"]
        s = GeneratorSpec(tuple((1.0, parse_pauli(w)) for w in words))
        rep = poly_membership(s, 2.0)
        assert rep.member
        assert rep.scaling_exponent == pytest.approx(4.0)
        # 10.0**400 overflows a float: the cap is +inf, and every finite l fits
        s = spec_of((1.0, "XXXXXXXXXX"), (0.5, "ZIIIIIIIII"))
        for budget in (400.0, 1e6):
            assert poly_membership(s, budget).member

    def test_exponential_class(self):
        n = 2
        words = [p for p in all_strings(n, min_weight=1)]
        assert len(words) == 2 ** (2 * n) - 1
        s = GeneratorSpec(tuple((1.0, w) for w in words))
        rep = poly_membership(s, 2.0)
        assert not rep.member
        assert rep.scaling_class == "exponential"
        assert rep.scaling_exponent is None


_NET2, _EYE4 = ising_chain(2), np.eye(4)
_POSITIVE_PARAMETERS = {
    "single_term_bound-J": lambda v: single_term_bound(0.5, 1, v),
    "single_term_bound-a": lambda v: single_term_bound(v, 1, 1.0),
    "nbody_chain_bound-kappa": lambda v: nbody_chain_bound(4, v, 1.0),
    "nbody_chain_bound-J_chain": lambda v: nbody_chain_bound(4, 1.0, v),
    "exact_three_spin-J": lambda v: exact_three_spin(1.0, v),
    "concatenation_bounds-T_c": lambda v: concatenation_bounds(v, 2, XY_SPEC, 0.1),
    "concatenation_bounds-epsilon": lambda v: concatenation_bounds(1.0, 2, XY_SPEC, v),
    "star_term_bound-J": lambda v: star_term_bound(4, v, 0.5),
    "star_term_bound-a": lambda v: star_term_bound(4, 1.0, v),
    "poly_membership-degree_budget": lambda v: poly_membership(XY_SPEC, v),
    "optimize-T": lambda v: optimize(_NET2, _EYE4, v),
    "optimize-tol": lambda v: optimize(_NET2, _EYE4, 1.0, tol=v),
    "PulseSet-T": lambda v: PulseSet(T=v, N=1, amplitudes=np.zeros((1, 4)),
                                     achieved_infidelity=1.0, iterations=0, seed=None),
    "time_scan-T": lambda v: time_scan(_NET2, _EYE4, [1.0, v]),
    "time_scan-tol": lambda v: time_scan(_NET2, _EYE4, [1.0], tol=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_POSITIVE_PARAMETERS))
def test_non_finite_parameters_are_a_domain_error(name, value):
    # a NaN or infinite parameter would turn a bound into NaN or 0.0, or a
    # degree budget into "exponential" or "member"; each is refused instead
    with pytest.raises(DomainError):
        _POSITIVE_PARAMETERS[name](value)

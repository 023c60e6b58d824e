"""Constructive schedules: exactness, durations, and bound compliance."""

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from gatebound import (
    GeneratorSpec,
    QubitNetwork,
    depth,
    edge_best_coupling,
    gate_infidelity,
    min_coupling,
    normalized_error,
    run_time_bound,
    select_two_body,
    single_term_bound,
    star,
    synth_generator,
    synth_pauli_term,
    target_unitary,
    trotter_error_bound,
    unitary_of_schedule,
)
from gatebound.bounds import bound_report
from gatebound.depth import GROW
from gatebound.errors import DomainError, ParseError
from gatebound.pauli import multiply, parse_pauli, two_body
from gatebound.synthesis import (
    LocalRotation,
    Schedule,
    TwoBodyEvolution,
    _build_ladder,
    load_schedule,
    report_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)

from helpers import (
    complete_graph,
    conjugator_choices_oracle,
    grid_graph,
    kron_word,
    random_connected_network,
    random_spec,
    random_word,
    star_full_local,
    uniform_chain,
)


class TestScheduleType:
    def test_durations(self):
        evo = TwoBodyEvolution((0, 1), "z", "z", 1, math.pi / 4, 2.0)
        assert evo.duration == pytest.approx(math.pi / 8)
        rot = LocalRotation(0, (0.0, 0.0, 1.0), 1.2)
        assert rot.duration == 0.0
        s = Schedule(2, (rot, evo))
        assert s.total_duration == pytest.approx(evo.duration)

    def test_validation(self):
        with pytest.raises(DomainError):
            TwoBodyEvolution((0, 1), "z", "z", 2, 1.0, 1.0)
        with pytest.raises(DomainError):
            TwoBodyEvolution((0, 1), "z", "z", 1, -1.0, 1.0)
        with pytest.raises(DomainError):
            TwoBodyEvolution((0, 1), "w", "z", 1, 1.0, 1.0)
        with pytest.raises(DomainError, match="g_used"):
            TwoBodyEvolution((0, 1), "z", "z", 1, 1.0, 0.0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_angle_is_refused_when_built(self, angle):
        # check_schedule no longer looks at an evolution's angle; the
        # constructor is the one guard, on every path that makes one
        with pytest.raises(DomainError, match="must be finite"):
            TwoBodyEvolution((0, 1), "z", "z", -1, angle, 1.0)
        with pytest.raises(DomainError, match="must be finite"):
            replace(TwoBodyEvolution((0, 1), "z", "z", -1, 0.3, 1.0), angle=angle)

    def test_an_evolution_listed_either_way_round_is_one_evolution(self):
        # stored as (min, max) with each axis on its own qubit, as edges are
        vu = TwoBodyEvolution((1, 0), "x", "z", -1, 0.5, 1.0)
        uv = TwoBodyEvolution((0, 1), "z", "x", -1, 0.5, 1.0)
        assert vu == uv
        assert (json.dumps(schedule_to_dict(Schedule(2, (vu,))))
                == json.dumps(schedule_to_dict(Schedule(2, (uv,)))))

    def test_json_round_trip(self, tmp_path):
        net = uniform_chain(3)
        s = synth_pauli_term(net, 0.7, parse_pauli("ZYX"))
        back = schedule_from_dict(schedule_to_dict(s))
        assert back == s
        path = tmp_path / "schedule.json"
        save_schedule(s, path)
        assert load_schedule(path) == s
        with pytest.raises(ParseError):
            schedule_from_dict({"n": 2, "primitives": [{"kind": "nope"}]})

    def test_saved_file_is_one_compact_line(self, tmp_path):
        net = uniform_chain(3)
        spec = random_spec(np.random.default_rng(41), 3, 3, require_noncommuting=True)
        s, m = synth_generator(net, spec, 1e-2)
        assert m > 1
        path = tmp_path / "schedule.json"
        save_schedule(s, path)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert text == json.dumps(schedule_to_dict(s)) + "\n"
        assert load_schedule(path) == s

    def test_non_finite_schedule_leaves_the_file_alone(self, tmp_path):
        # a 5e-324 coupling runs 0.5*ZZ in 0.5/5e-324 = inf time
        g = np.zeros((3, 3))
        g[2, 2] = 5e-324
        net = QubitNetwork(n=2, edges={(0, 1): g})
        s = synth_pauli_term(net, 0.5, parse_pauli("ZZ"))
        assert math.isinf(s.total_duration)
        path = tmp_path / "schedule.json"
        path.write_text("earlier contents\n")
        with pytest.raises(DomainError, match="not finite"):
            save_schedule(s, path)
        assert path.read_text() == "earlier contents\n"


class TestSelectTwoBody:
    def test_zero_angle(self):
        net = uniform_chain(2)
        s = select_two_body(net, (0, 1), "z", "z", 1, 0.0)
        assert s.primitives == () and s.total_duration == 0.0

    @pytest.mark.parametrize("k", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_k_is_refused(self, k):
        # formerly a schedule whose total_duration was nan or inf
        with pytest.raises(DomainError, match="must be finite"):
            select_two_body(uniform_chain(3), (0, 1), "z", "z", 1, k)

    def test_native_axis_negative_angle_example(self):
        # native ZZ with g = 1: exp(-i*(pi/4)*ZZ) takes time pi/4
        net = uniform_chain(2, g=1.0)
        s = select_two_body(net, (0, 1), "z", "z", -1, math.pi / 4)
        assert s.total_duration == pytest.approx(math.pi / 4)
        U = unitary_of_schedule(net, s)
        oracle = scipy.linalg.expm(-1j * math.pi / 4 * kron_word("ZZ"))
        assert np.linalg.norm(U - oracle) < 1e-10

    def test_relabelled_axis_example(self):
        # native XX with g = 2: exp(+i*(pi/4)*ZY) takes time pi/8 and needs
        # conjugating local rotations
        g = np.zeros((3, 3))
        g[0, 0] = 2.0
        net = QubitNetwork(n=2, edges={(0, 1): g})
        s = select_two_body(net, (0, 1), "z", "y", 1, math.pi / 4)
        assert s.total_duration == pytest.approx(math.pi / 8)
        assert any(isinstance(p, LocalRotation) for p in s.primitives)
        U = unitary_of_schedule(net, s)
        oracle = scipy.linalg.expm(1j * math.pi / 4 * kron_word("ZY"))
        assert np.linalg.norm(U - oracle) < 1e-10

    def test_all_axis_pairs_and_signs(self):
        rng = np.random.default_rng(61)
        g = rng.uniform(0.5, 1.5, (3, 3)) * rng.choice([-1.0, 1.0], (3, 3))
        net = QubitNetwork(n=2, edges={(0, 1): g})
        k = 0.8
        for alpha in "xyz":
            for beta in "xyz":
                for sign in (1, -1):
                    s = select_two_body(net, (0, 1), alpha, beta, sign, k)
                    # the reversed edge names its axes the other way round
                    assert select_two_body(net, (1, 0), beta, alpha, sign, k) == s
                    assert s.total_duration == pytest.approx(
                        k / edge_best_coupling(net, (0, 1))
                    )
                    U = unitary_of_schedule(net, s)
                    word = kron_word((alpha + beta).upper())
                    oracle = scipy.linalg.expm(1j * sign * k * word)
                    assert np.linalg.norm(U - oracle) < 1e-10

    def test_unknown_edge_and_negative_angle(self):
        net = uniform_chain(3)
        for k in (1.0, 0.0):
            with pytest.raises(DomainError, match="no edge"):
                select_two_body(net, (0, 2), "z", "z", 1, k)
        with pytest.raises(DomainError):
            select_two_body(net, (0, 1), "z", "z", 1, -0.5)
        for alpha, beta in (("Z", "z"), ("x", "q")):
            with pytest.raises(DomainError, match="axes"):
                select_two_body(net, (0, 1), alpha, beta, 1, 0.5)
        with pytest.raises(DomainError, match="sign"):
            select_two_body(net, (0, 1), "z", "z", 2, 0.5)


class TestConjugationIdentity:
    def test_partial_angle_sweep(self):
        # wrapping exp(-i*k*ZY(0,1)) with exp(-+i*k1*XZ(1,2)) rotates the
        # generator continuously between the two-body word and ZZZ
        net = uniform_chain(3)
        k = 0.37
        for k1 in (0.0, math.pi / 8, math.pi / 4):
            wrap_in = select_two_body(net, (1, 2), "x", "z", -1, k1)
            core = select_two_body(net, (0, 1), "z", "y", -1, k)
            wrap_out = select_two_body(net, (1, 2), "x", "z", 1, k1)
            U = unitary_of_schedule(net, Schedule(
                3, wrap_in.primitives + core.primitives + wrap_out.primitives))
            gen = math.cos(2 * k1) * kron_word("ZYI") - math.sin(2 * k1) * kron_word("ZZZ")
            oracle = scipy.linalg.expm(-1j * k * gen)
            assert np.linalg.norm(U - oracle) < 1e-10

    def test_quarter_angle_gives_three_body_word(self):
        net = uniform_chain(3)
        k = 0.37
        wrap_in = select_two_body(net, (1, 2), "x", "z", -1, math.pi / 4)
        core = select_two_body(net, (0, 1), "z", "y", -1, k)
        wrap_out = select_two_body(net, (1, 2), "x", "z", 1, math.pi / 4)
        U = unitary_of_schedule(net, Schedule(
            3, wrap_in.primitives + core.primitives + wrap_out.primitives))
        oracle = scipy.linalg.expm(1j * k * kron_word("ZZZ"))
        assert np.linalg.norm(U - oracle) < 1e-10


class TestSynthPauliTerm:
    def test_three_path_ladder_matches_per_term_bound_exactly(self):
        net = uniform_chain(3)
        s = synth_pauli_term(net, math.pi / 4, parse_pauli("ZZZ"))
        assert s.total_duration == 3 * math.pi / 4
        evolutions = [p for p in s.primitives if isinstance(p, TwoBodyEvolution)]
        assert len(evolutions) == 3  # one core + one conjugator pair
        U = unitary_of_schedule(net, s)
        oracle = scipy.linalg.expm(1j * math.pi / 4 * kron_word("ZZZ"))
        assert np.linalg.norm(U - oracle) < 1e-10

    def test_weight_one_is_free(self):
        net = uniform_chain(3)
        s = synth_pauli_term(net, 0.9, parse_pauli("IXI"))
        assert s.total_duration == 0.0
        U = unitary_of_schedule(net, s)
        oracle = scipy.linalg.expm(1j * 0.9 * kron_word("IXI"))
        assert np.linalg.norm(U - oracle) < 1e-12

    def test_edge_supported_word_has_no_conjugators(self):
        net = uniform_chain(3, g=1.0)
        s = synth_pauli_term(net, 1.3, parse_pauli("XYI"))
        # support {0, 1} is an edge: single evolution of angle 1.3
        evolutions = [p for p in s.primitives if isinstance(p, TwoBodyEvolution)]
        assert len(evolutions) == 1
        assert s.total_duration == pytest.approx(1.3)
        U = unitary_of_schedule(net, s)
        oracle = scipy.linalg.expm(1j * 1.3 * kron_word("XYI"))
        assert np.linalg.norm(U - oracle) < 1e-10

    def test_zero_coefficient(self, monkeypatch):
        import gatebound.bounds

        def refuse(*args, **kwargs):
            raise AssertionError("searched a walk for a zero coefficient")

        monkeypatch.setattr(gatebound.bounds, "depth_of_support", refuse)
        net = uniform_chain(3)
        s = synth_pauli_term(net, 0.0, parse_pauli("ZZZ"))
        assert s.primitives == ()
        # a zero coefficient gets every input check all the same
        for net, word in ((net, "III"), (net, "ZZ"), (star(4), "ZZZZ")):
            with pytest.raises(DomainError):
                synth_pauli_term(net, 0.0, parse_pauli(word))

    def test_random_terms_are_exact_and_within_bound(self):
        rng = np.random.default_rng(71)
        J_cache = {}
        for _ in range(60):
            n = int(rng.integers(2, 6))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            word = random_word(rng, n, min_weight=1)
            a = float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]))
            s = synth_pauli_term(net, a, word)
            U = unitary_of_schedule(net, s)
            target = scipy.linalg.expm(1j * a * kron_word(str(word)))
            assert gate_infidelity(target, U) < 1e-9
            # phase is exact too, not just the projective gate
            assert normalized_error(target, U) < 1e-9
            d = 0 if word.weight < 2 else depth(net, word).depth
            assert s.total_duration <= single_term_bound(a, d, min_coupling(net)) + 1e-12

    def test_every_unwrap_is_the_inverse_of_its_wrap(self):
        # the ladder is wraps, core, unwraps: the k-th two-body evolution
        # from either end is the same native evolution, and with every
        # evolution from the j-th to the j-th last idled (angle 0) the
        # outer j wrap/unwrap pairs multiply to the identity
        rng = np.random.default_rng(72)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(3, 7))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            word = random_word(rng, n, min_weight=2)
            s = synth_pauli_term(net, float(rng.uniform(-2, 2)), word)
            prims = s.primitives
            cuts = [i for i, p in enumerate(prims) if isinstance(p, TwoBodyEvolution)]
            D = depth(net, word).depth
            assert len(cuts) == 2 * D + 1
            for k in range(D):
                assert prims[cuts[k]] == prims[cuts[-1 - k]]
            for j in range(1, D + 1):
                idle = set(cuts[j:len(cuts) - j])
                shell = Schedule(n, tuple(replace(p, angle=0.0) if i in idle else p
                                          for i, p in enumerate(prims)))
                U = unitary_of_schedule(net, shell)
                assert np.linalg.norm(U - np.eye(2 ** n)) < 1e-12
            checked += D
        assert checked > 60

    def test_ladder_picks_the_first_allowed_conjugator(self):
        # every conjugator is the lexicographically first label pair the
        # oracle enumerates for its witness step
        rng = np.random.default_rng(73)
        nets = []
        for n in range(3, 12):
            nets += [uniform_chain(n), star_full_local(n),
                     random_connected_network(rng, n, extra_edges=int(rng.integers(0, 4)))]
        nets += [grid_graph(2, 2), grid_graph(2, 3), grid_graph(3, 3), grid_graph(2, 5),
                 complete_graph(5)]
        steps = 0
        for net in nets:
            for _ in range(8):
                word = random_word(rng, net.n, min_weight=2)
                result = depth(net, word)
                _, conjugators, _ = _build_ladder(net, word, result)
                assert len(conjugators) == len(result.witness)
                current = word.bare()
                for step, q in zip(reversed(result.witness), reversed(conjugators)):
                    u, v = step.edge
                    anchor = u if step.vertex == v else v
                    grown = current.label(step.vertex) if step.kind == GROW else None
                    lu, lv = conjugator_choices_oracle(step.edge, grown, anchor, step.vertex,
                                                       current.label(anchor))[0]
                    assert q == two_body(net.n, u, lu, v, lv)
                    current = multiply(q, current).bare()
                    steps += 1
        assert steps > 500

    def test_rejects_bad_inputs(self):
        net = uniform_chain(3)
        with pytest.raises(DomainError):
            synth_pauli_term(net, 1.0, parse_pauli("III"))
        with pytest.raises(DomainError):
            synth_pauli_term(net, 1.0, parse_pauli("ZZ"))
        with pytest.raises(DomainError):
            synth_pauli_term(star(4), 1.0, parse_pauli("ZZZZ"))

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_is_refused(self, a):
        with pytest.raises(DomainError, match="not finite"):
            synth_pauli_term(uniform_chain(3), a, parse_pauli("ZZZ"))


class TestSynthGenerator:
    def test_single_term_reduces_to_term_synthesis(self):
        net = uniform_chain(3)
        spec = GeneratorSpec(((0.6, parse_pauli("ZZZ")),))
        schedule, m = synth_generator(net, spec, 0.05)
        assert m == 1
        assert schedule == synth_pauli_term(net, 0.6, parse_pauli("ZZZ"))
        # one path from a term to its schedule: the one-term exact report's pass
        rng = np.random.default_rng(84)
        for i in range(40):
            n = int(rng.integers(2, 7))
            net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
            word = random_word(rng, n, min_weight=1 if i % 4 == 0 else 2)
            a = float(rng.uniform(-2.0, 2.0))
            report = bound_report(GeneratorSpec(((a, word),)), net, 0.05, use_exact_depths=True)
            assert synth_pauli_term(net, a, word) == report_schedule(net, report)

    def test_report_without_exact_depths_is_refused(self):
        net = uniform_chain(3)
        spec = GeneratorSpec(((0.6, parse_pauli("ZZZ")), (0.3, parse_pauli("XII"))))
        with pytest.raises(DomainError, match="use_exact_depths=True"):
            report_schedule(net, bound_report(spec, net, 0.05))

    def test_commuting_terms_are_exact(self):
        net = uniform_chain(3)
        spec = GeneratorSpec(((0.4, parse_pauli("ZZI")), (0.7, parse_pauli("IZZ"))))
        schedule, m = synth_generator(net, spec, 0.05)
        assert m == 1
        U = unitary_of_schedule(net, schedule)
        assert normalized_error(target_unitary(spec), U) < 1e-9

    def test_noncommuting_spec_meets_error_and_bounds(self):
        net = uniform_chain(3)
        spec = GeneratorSpec((
            (math.pi / 4, parse_pauli("ZZI")),
            (0.8, parse_pauli("XZI")),
            (0.3, parse_pauli("IXI")),
        ))
        eps = 0.05
        schedule, m = synth_generator(net, spec, eps)
        U = unitary_of_schedule(net, schedule)
        err = normalized_error(target_unitary(spec), U)
        assert err <= trotter_error_bound(spec, m) + 1e-9
        assert trotter_error_bound(spec, m) <= eps
        assert schedule.total_duration <= run_time_bound(spec, net, eps) + 1e-12

    def test_random_generators_meet_bounds(self):
        rng = np.random.default_rng(81)
        for _ in range(15):
            n = int(rng.integers(2, 4))
            net = random_connected_network(rng, n, extra_edges=1)
            spec = random_spec(rng, n, int(rng.integers(2, 4)), coeff_range=(0.3, 1.0))
            eps = 0.1
            schedule, m = synth_generator(net, spec, eps)
            U = unitary_of_schedule(net, schedule)
            err = normalized_error(target_unitary(spec), U)
            assert err <= trotter_error_bound(spec, m) + 1e-9
            assert schedule.total_duration <= run_time_bound(spec, net, eps) + 1e-12
            rep = bound_report(spec, net, eps)
            assert schedule.total_duration <= rep.schedule_bound + 1e-12

    def test_epsilon_validation(self):
        net = uniform_chain(2)
        spec = GeneratorSpec(((1.0, parse_pauli("ZZ")),))
        with pytest.raises(DomainError):
            synth_generator(net, spec, 0.0)


class TestRepeatForm:
    SPEC = GeneratorSpec(((0.6, parse_pauli("ZZI")), (0.4, parse_pauli("XZI"))))

    def test_power_matches_unrolled_product(self):
        net = uniform_chain(3)
        for eps in (0.05, 1e-2, 1e-3, 3e-5):
            schedule, m = synth_generator(net, self.SPEC, eps)
            assert schedule.repeat == m
            one_pass = Schedule(3, schedule.primitives)
            U_pass = unitary_of_schedule(net, one_pass)
            unrolled = np.eye(8)
            for _ in range(m):
                unrolled = U_pass @ unrolled
            assert np.linalg.norm(unitary_of_schedule(net, schedule) - unrolled) < 1e-12
        assert m > 5000
        # the repeat count means the primitives run again, in order
        three = Schedule(3, schedule.primitives, repeat=3)
        assert np.linalg.norm(unitary_of_schedule(net, three) - unitary_of_schedule(
            net, Schedule(3, schedule.primitives * 3))) < 1e-12

    def test_size_does_not_grow_with_m(self):
        net = uniform_chain(3)
        coarse, m_coarse = synth_generator(net, self.SPEC, 1e-2)
        fine, m_fine = synth_generator(net, self.SPEC, 2e-3)
        assert m_fine >= 4 * m_coarse
        assert len(coarse.primitives) == len(fine.primitives)
        size = [len(json.dumps(schedule_to_dict(s))) for s in (coarse, fine)]
        assert abs(size[0] - size[1]) <= 16  # only the digits of numbers differ
        assert fine.total_duration == pytest.approx(
            m_fine * sum(p.duration for p in fine.primitives))

    def test_file_without_repeat_is_one_run(self, tmp_path):
        net = uniform_chain(3)
        schedule, m = synth_generator(net, self.SPEC, 0.05)
        assert m > 1
        data = schedule_to_dict(schedule)
        del data["repeat"]
        data["primitives"] = data["primitives"] * m
        path = tmp_path / "unrolled.json"
        path.write_text(json.dumps(data))
        unrolled = load_schedule(path)
        assert unrolled.repeat == 1 and len(unrolled.primitives) == m * len(schedule.primitives)
        assert unrolled.total_duration == pytest.approx(schedule.total_duration)
        assert np.linalg.norm(unitary_of_schedule(net, unrolled)
                              - unitary_of_schedule(net, schedule)) < 1e-12

    def test_bad_repeat_is_rejected(self):
        for bad in (0, -1, 2.5, True, "3"):
            with pytest.raises(DomainError):
                Schedule(2, (), repeat=bad)

    def test_repeat_reaches_the_largest_float_and_no_further(self):
        top = int(sys.float_info.max)
        rotation = LocalRotation(0, (1.0, 0.0, 0.0), 0.1)
        assert Schedule(2, (rotation,), repeat=top).total_duration == 0.0
        with pytest.raises(DomainError):
            Schedule(2, (rotation,), repeat=top + 1)


def _mp_unitary(primitives, n, repeat):
    """The schedule's unitary in mpmath at the working precision, from the
    float angles as stored: cos + i*sin on Kronecker-built words, then the
    power by repeated squaring."""
    import mpmath

    def word(labels):
        return mpmath.matrix(kron_word("".join(labels)).tolist())

    dim = 2 ** n
    U = mpmath.eye(dim)
    for p in primitives:
        theta = mpmath.mpf(p.angle)
        if isinstance(p, LocalRotation):
            A = mpmath.zeros(dim)
            for c, name in zip(p.axis, "XYZ"):
                A += mpmath.mpf(c) * word([name if q == p.qubit else "I" for q in range(n)])
            step = mpmath.cos(theta) * mpmath.eye(dim) - 1j * mpmath.sin(theta) * A
        else:
            labels = ["I"] * n
            labels[p.edge[0]], labels[p.edge[1]] = p.alpha.upper(), p.beta.upper()
            step = (mpmath.cos(theta) * mpmath.eye(dim)
                    + (1j * p.sign) * mpmath.sin(theta) * word(labels))
        U = step * U
    out = mpmath.eye(dim)
    while repeat:
        if repeat & 1:
            out = U * out
        U = U * U
        repeat >>= 1
    return out


def test_long_repeat_certificate_holds_in_forty_digits():
    # a wrap and an unwrap that are not exact inverses leave a per-pass
    # error that m = 8.5e7 repeats amplify past epsilon (1.1e-8 here); a pi
    # flip of angle float(pi/2), 6e-17 short of pi/2, does the same
    import mpmath

    words = ("ZZI", "XIY", "IYZ", "ZXX")
    spec = GeneratorSpec(tuple((0.3, parse_pauli(w)) for w in words))
    eps = 3e-9
    schedule, m = synth_generator(uniform_chain(3), spec, eps)
    assert m > 8e7
    with mpmath.workdps(40):
        U = _mp_unitary(schedule.primitives, 3, schedule.repeat)
        H = mpmath.zeros(8)
        for w in words:
            H += mpmath.mpf(0.3) * mpmath.matrix(kron_word(w).tolist())
        V = mpmath.expm(1j * H)
        err = mpmath.mnorm(U - V, "f") / mpmath.sqrt(16)
        assert err <= eps

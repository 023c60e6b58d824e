"""Coupling graph model, presets, and the JSON form."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from gatebound import (
    PulseSet,
    QubitNetwork,
    edge_best_coupling,
    heisenberg_chain,
    ising_chain,
    min_coupling,
    star,
)
from gatebound.errors import DomainError, ParseError, ResourceLimitError
from gatebound.network import (
    distances,
    dump_json,
    load_network,
    network_from_dict,
    strongest_couplings,
)
from gatebound.simulator import drift_matrix
from gatebound.synthesis import schedule_to_dict, synth_pauli_term

from helpers import (kron_word, network_to_dict, random_connected_network, random_word,
                     uniform_chain)


def test_min_coupling_uniform_chain():
    net = uniform_chain(4, g=2.0)
    assert min_coupling(net) == 2.0


def test_min_coupling_ising_preset():
    assert min_coupling(ising_chain(5, J=1.0)) == pytest.approx(math.pi / 2)


def test_min_coupling_ignores_zeros_and_uses_abs():
    g1 = np.zeros((3, 3))
    g1[0, 0] = -0.1
    g1[1, 2] = 1.0
    g2 = np.zeros((3, 3))
    g2[2, 2] = 0.5
    net = QubitNetwork(n=3, edges={(0, 1): g1, (1, 2): g2})
    assert min_coupling(net) == pytest.approx(0.1)


def test_edge_best_coupling():
    net = uniform_chain(3, g=1.0)
    assert edge_best_coupling(net, (0, 1)) == 1.0
    g = np.zeros((3, 3))
    g[0, 1] = 0.1
    g[2, 0] = -1.0
    net = QubitNetwork(n=2, edges={(0, 1): g})
    assert edge_best_coupling(net, (0, 1)) == 1.0
    with pytest.raises(DomainError):
        edge_best_coupling(net, (0, 5))


def test_heisenberg_preset_edge_entries():
    net = heisenberg_chain(3, J=1.0)
    g = net.edge_tensor((0, 1))
    assert g[0, 0] == pytest.approx(math.pi / 2)
    assert g[1, 1] == pytest.approx(math.pi / 2)
    assert edge_best_coupling(net, (1, 2)) == pytest.approx(math.pi / 2)


def _geodesic(net, i, j):
    adj = [net.adjacency[v] for v in range(net.n)]
    return distances(adj, (i,), range(net.n))[j]


def test_geodesic_distance():
    net = uniform_chain(3)
    assert _geodesic(net, 0, 2) == 2
    assert _geodesic(net, 1, 1) == 0
    st = star(5, J=1.0)
    assert _geodesic(st, 0, 3) == 1
    assert _geodesic(st, 2, 4) == 2


def test_geodesic_is_a_metric_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
        d = [[_geodesic(net, i, j) for j in range(n)] for i in range(n)]
        for i in range(n):
            assert d[i][i] == 0
            for j in range(n):
                assert d[i][j] == d[j][i]
                for k in range(n):
                    assert d[i][k] <= d[i][j] + d[j][k]


def test_too_few_edges_are_refused_before_n_sizes_anything():
    # a connected graph needs n - 1 edges; n = 10**6 once built omega and
    # the adjacency (a 217 MB tracemalloc peak) before refusing one edge
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="the coupling graph must be connected"):
            QubitNetwork(n=10**6, edges={(0, 1): np.eye(3)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_faults_on_two_edges_report_the_first_check_that_fails_on_any_edge():
    # each check runs over every edge before the next check: an all-zero
    # tensor listed first and a non-finite one listed second report the
    # non-finite one, and a self-loop listed last is found before either
    zero, nan = np.zeros((3, 3)), np.full((3, 3), np.nan)
    with pytest.raises(DomainError, match=r"^edge \(2,1\) has non-finite couplings$"):
        QubitNetwork(n=3, edges={(0, 1): zero, (2, 1): nan})
    with pytest.raises(DomainError, match=r"^self-loop on qubit 2$"):
        QubitNetwork(n=3, edges={(0, 1): zero, (1, 2): np.eye(3), (2, 2): np.eye(3)})


def test_a_preset_n_above_the_cap_is_refused_before_anything_is_built():
    # a preset builds n - 1 edges from one number; n = 100,000 once took 7.9 s
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="10001 exceeds the 10000-qubit preset cap"):
            network_from_dict({"preset": "ising_chain", "n": 10_001})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_networks_and_pulse_sets_compare_and_hash_by_identity():
    # both hold numpy arrays, so field-wise equality would raise
    nets = (ising_chain(3), ising_chain(3))
    pulses = tuple(PulseSet(1.0, 2, np.zeros((2, 4)), 0.5, 1, 0) for _ in range(2))
    for a, b in (nets, pulses):
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, b, a}) == 2


def test_ising_drift_matrix_oracle():
    # drift must equal (pi/2) J sum_k Z_k Z_{k+1} exactly
    for n in (2, 3, 4):
        net = ising_chain(n, J=1.0)
        H = drift_matrix(net)
        expected = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for k in range(n - 1):
            text = "I" * k + "ZZ" + "I" * (n - k - 2)
            expected += math.pi / 2 * kron_word(text)
        assert np.linalg.norm(H - expected) < 1e-12


def test_star_drift_matrix_oracle():
    net = star(3, J=1.0)
    H = drift_matrix(net)
    expected = (
        kron_word("XXI") + kron_word("YYI") + kron_word("XIX") + kron_word("YIY")
        + kron_word("IYI") + kron_word("IIY")
    ).astype(complex)
    assert np.linalg.norm(H - expected) < 1e-12
    assert net.control_model == "star_reduced"


def test_validation_errors():
    g = np.zeros((3, 3))
    g[2, 2] = 1.0
    with pytest.raises(DomainError):  # self loop
        QubitNetwork(n=2, edges={(0, 0): g})
    with pytest.raises(DomainError):  # disconnected
        QubitNetwork(n=4, edges={(0, 1): g, (2, 3): g.copy()})
    with pytest.raises(DomainError, match="must be connected"):  # n - 1 edges, disconnected
        QubitNetwork(n=5, edges={(0, 1): g, (1, 2): g, (0, 2): g, (3, 4): g})
    with pytest.raises(DomainError):  # all-zero tensor
        QubitNetwork(n=2, edges={(0, 1): np.zeros((3, 3))})
    with pytest.raises(DomainError, match="must be connected"):  # no edges
        QubitNetwork(n=2, edges={})
    for preset, n in ((ising_chain, 1), (heisenberg_chain, 0)):  # refused by QubitNetwork
        with pytest.raises(DomainError, match="at least two qubits"):
            preset(n)
    with pytest.raises(DomainError):  # NaN coupling
        QubitNetwork(n=2, edges={(0, 1): np.full((3, 3), np.nan)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_splittings_are_refused_when_built(bad):
    # formerly accepted, then reported by drift_matrix as an overflow
    zz = np.zeros((3, 3))
    zz[2, 2] = 1.0
    with pytest.raises(DomainError, match="splittings"):
        QubitNetwork(n=2, edges={(0, 1): zz}, omega=[[bad, 0, 0], [0, 0, 0]])
    with pytest.raises(DomainError, match="splittings"):
        network_from_dict({"n": 2, "edges": [{"i": 0, "j": 1, "g": zz.tolist()}],
                           "omega": [[0, 0, 0], [0, 0, bad]]})


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    net = random_connected_network(rng, 4, extra_edges=2)
    data = network_to_dict(net)
    back = network_from_dict(json.loads(json.dumps(data)))
    assert back.n == net.n
    assert sorted(back.edges) == sorted(net.edges)
    for e in sorted(net.edges):
        assert np.allclose(back.edge_tensor(e), net.edge_tensor(e))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    assert sorted(load_network(path).edges) == sorted(net.edges)


def test_preset_shorthand_and_parse_errors(tmp_path):
    net = network_from_dict({"preset": "ising_chain", "n": 3, "J": 2.0})
    assert min_coupling(net) == pytest.approx(math.pi)
    with pytest.raises(ParseError):
        network_from_dict({"preset": "nope", "n": 3})
    with pytest.raises(ParseError):
        network_from_dict({"n": 3})
    with pytest.raises(ParseError):
        network_from_dict({"preset": "ising_chain", "n": 3, "J": "abc"})
    with pytest.raises(ParseError):
        network_from_dict({"n": 2, "edges": [{"i": 0, "j": 1, "g": "abc"}]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_network(bad)


def reversed_listing(net):
    """The same network with every edge listed as (j, i) and its tensor
    transposed, so that g[a][b] still couples axis a of i to axis b of j."""
    return QubitNetwork(n=net.n, edges={(j, i): g.T for (i, j), g in net.edges.items()},
                        omega=net.omega, control_model=net.control_model)


class TestEdgeOrientation:
    def test_reversed_edge_couples_the_documented_axes(self):
        # g[0][2] on edge (1, 0) is X on qubit 1 and Z on qubit 0
        g = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        net = network_from_dict({"n": 2, "edges": [{"i": 1, "j": 0, "g": g}]})
        assert list(net.edges) == [(0, 1)]
        assert net.edge_tensor((1, 0)).tolist() == np.array(g).T.tolist()
        assert np.array_equal(drift_matrix(net), kron_word("ZX"))
        assert strongest_couplings(net, (1, 0)) == [("z", "x", 1.0)]

    def test_reversed_listing_is_the_same_network(self):
        rng = np.random.default_rng(61)
        for n in range(3, 9):
            net = random_connected_network(rng, n, extra_edges=2, entries_per_edge=4)
            assert any(not np.array_equal(g, g.T) for g in net.edges.values())
            rev = reversed_listing(net)
            assert list(rev.edges) == list(net.edges)
            for edge, g in net.edges.items():
                assert np.array_equal(rev.edges[edge], g)
            # one read-only (E, 3, 3) array, rows in input order, each row
            # the memory its edge's tensor reads; a (v, u) row is transposed
            for network in (net, rev):
                couplings = network.couplings
                assert couplings.shape == (len(net.edges), 3, 3)
                assert not couplings.flags.writeable
                for row, g in zip(couplings, network.edges.values()):
                    assert np.shares_memory(row, g)
            assert np.array_equal(rev.couplings, net.couplings)
            # every other edge listed (v, u), in reverse order
            mixed = QubitNetwork(n=n, edges={(j, i) if k % 2 else (i, j): g.T if k % 2 else g
                                             for k, ((i, j), g) in enumerate(
                                                 reversed(net.edges.items()))})
            assert list(mixed.edges) == list(reversed(net.edges))
            assert np.array_equal(mixed.couplings, net.couplings[::-1])
            assert np.array_equal(drift_matrix(rev), drift_matrix(net))
            assert network_to_dict(rev) == network_to_dict(net)
            for _ in range(4):
                word = random_word(rng, n, min_weight=2)
                a = float(rng.uniform(-2, 2))
                assert (dump_json(schedule_to_dict(synth_pauli_term(rev, a, word)))
                        == dump_json(schedule_to_dict(synth_pauli_term(net, a, word))))
        for preset in (ising_chain(5), heisenberg_chain(5), star(5)):  # one tensor, every row
            assert preset.couplings.shape == (4, 3, 3)
            assert (preset.couplings == preset.couplings[0]).all()

    def test_a_pair_given_twice_is_a_domain_error(self):
        g = np.eye(3)
        with pytest.raises(DomainError, match=r"edge \(0, 1\) is given twice"):
            QubitNetwork(n=2, edges={(0, 1): g, (1, 0): g})
        entry = {"i": 1, "j": 0, "g": g.tolist()}
        for repeat in (entry, {"i": 0, "j": 1, "g": g.tolist()}):
            with pytest.raises(DomainError, match=r"edge \(0, 1\) is given twice"):
                network_from_dict({"n": 2, "edges": [entry, repeat]})


def max_abs_pick(g):
    """First largest-|g| entry in row-major order, picked by max(key=abs)."""
    a, b = max(((a, b) for a in range(3) for b in range(3)), key=lambda ab: abs(g[ab]))
    return "xyz"[a], "xyz"[b], float(g[a, b])


class TestStrongestCouplings:
    def test_first_is_the_max_abs_pick(self):
        tensors = []
        for slot in range(9):
            for value in (1.0, -0.5):
                g = np.zeros((3, 3))
                g.flat[slot] = value
                tensors.append(g)
        tensors += [np.diag([1.0, 1.0, 0.0]), np.diag([1.0, -1.0, 1.0])]
        rng = np.random.default_rng(71)
        # entries from a small set, so most tensors have tied maxima
        tensors += [g for g in rng.choice([0.0, 0.5, -0.5, 1.0, -1.0], size=(200, 3, 3))
                    if np.any(g)]
        for g in tensors:
            net = QubitNetwork(n=2, edges={(0, 1): g})
            strongest = strongest_couplings(net, (0, 1))
            assert strongest[0] == max_abs_pick(g)
            best = np.max(np.abs(g))
            assert [(a, b) for a, b, _ in strongest] == [
                ("xyz"[a], "xyz"[b]) for a, b in zip(*np.nonzero(np.abs(g) == best))]
            assert edge_best_coupling(net, (1, 0)) == float(best)

    def test_unknown_edge_is_a_domain_error(self):
        with pytest.raises(DomainError):
            strongest_couplings(uniform_chain(3), (0, 2))

"""Steiner-tree depth against the subset-search and string-level oracles."""

import time

import numpy as np
import pytest

from gatebound import (PauliString, QubitNetwork, cnot_bound, depth, depth_of_support,
                       depth_upper_bound, ising_chain, max_depth_table)
from gatebound.errors import DomainError, ResourceLimitError
from gatebound.pauli import parse_pauli

from helpers import (
    complete_graph,
    grid_graph,
    lexicographic_depth_oracle,
    random_connected_network,
    replay_witness,
    star_full_local,
    string_depth_oracle,
    uniform_chain,
)


def test_three_path_examples():
    net = uniform_chain(3)
    assert depth(net, parse_pauli("ZZZ")).depth == 1
    assert depth(net, parse_pauli("ZZI")).depth == 0  # an edge support
    res = depth(net, parse_pauli("ZIZ"))
    assert res.depth == 2
    kinds = [s.kind for s in res.witness]
    assert kinds == ["grow", "shrink"]


def test_witness_tie_break_is_lexicographic():
    # two shortest witnesses reach {0, 2} on the 3-path; the one whose step
    # sequence compares smaller starts from edge (1, 2) and grows vertex 0
    net = uniform_chain(3)
    res = depth(net, parse_pauli("ZIZ"))
    assert res.start_edge == (1, 2)
    assert [(s.kind, s.edge, s.vertex) for s in res.witness] == [
        ("grow", (0, 1), 0),
        ("shrink", (0, 1), 1),
    ]
    again = depth(net, parse_pauli("XIY"))  # same support, same witness
    assert again.witness == res.witness


def test_witness_replay_on_random_networks():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
        mask = 0
        while mask.bit_count() < 2:
            mask = int(rng.integers(1, 1 << n))
        word = PauliString(n, mask, mask)  # all-Y word with that support
        res = depth(net, word)
        assert res.depth == len(lexicographic_depth_oracle(net)[mask][1])
        assert replay_witness(res.start_edge, res.witness) == frozenset(word.support)
        assert len(res.witness) == res.depth


def test_depth_upper_bound_values():
    assert depth_upper_bound(5) == 6
    assert depth_upper_bound(2) == 0
    assert depth_upper_bound(3) == 2
    with pytest.raises(DomainError):
        depth_upper_bound(1)


def test_depth_below_analytic_bound():
    rng = np.random.default_rng(13)
    nets = [uniform_chain(5), star_full_local(6), complete_graph(4)]
    for _ in range(10):
        n = int(rng.integers(3, 9))
        nets.append(random_connected_network(rng, n, extra_edges=int(rng.integers(0, 4))))
    for net in nets:
        table = max_depth_table(net)
        assert table.max_depth <= depth_upper_bound(net.n)


def test_weight_rules():
    net = uniform_chain(3)
    with pytest.raises(DomainError):
        depth(net, parse_pauli("IXI"))
    with pytest.raises(DomainError):
        depth(net, parse_pauli("III"))


def test_max_depth_table_five_path():
    table = max_depth_table(uniform_chain(5))
    assert table.max_depth == 6
    # the deepest supports are sparse pairs near the ends, e.g. {0, 4}
    assert table.support_depth((0, 4)) == 6
    for support in [(), (2,), (3, 3), (0, 5), (-1, 2), (0.5, 2), (1.0, 3), ("1", 2)]:
        with pytest.raises(DomainError):
            table.support_depth(support)
    net = ising_chain(4)
    for qubit in (0.5, 1.0, "1"):  # formerly a bare TypeError
        with pytest.raises(DomainError, match="not an integer"):
            depth_of_support(net, [qubit, 2])
        with pytest.raises(DomainError, match="not an integer"):
            cnot_bound(net, qubit, 2)
    # numpy integers and bools keep counting as the qubits they equal
    assert depth_of_support(net, [np.int64(0), 3]) == depth_of_support(net, [0, 3])
    assert table.support_depth((np.int64(0), True)) == table.support_depth((0, 1))


def test_full_weight_on_paths():
    for n in range(3, 9):
        table = max_depth_table(uniform_chain(n))
        assert table.support_depth(tuple(range(n))) == n - 2


def test_complete_graph_weight_two():
    table = max_depth_table(complete_graph(4))
    assert table.per_weight[2] == 0


def test_table_matches_targeted_search():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        net = random_connected_network(rng, n, extra_edges=int(rng.integers(0, 3)))
        table = max_depth_table(net)
        for mask in range(1 << n):
            if mask.bit_count() < 2:
                continue
            support = tuple(q for q in range(n) if mask >> q & 1)
            assert table.support_depth(support) == depth_of_support(net, support).depth


@pytest.mark.parametrize("maker", [uniform_chain, star_full_local, complete_graph])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_matches_string_level_oracle(maker, n):
    net = maker(n)
    oracle = string_depth_oracle(net)
    for x in range(1 << n):
        for z in range(1 << n):
            word = PauliString(n, x, z)
            if word.weight < 2:
                continue
            assert depth(net, word).depth == oracle[(x, z)], str(word)


def test_string_oracle_on_random_network():
    rng = np.random.default_rng(47)
    net = random_connected_network(rng, 4, extra_edges=1)
    oracle = string_depth_oracle(net)
    for x in range(16):
        for z in range(16):
            word = PauliString(4, x, z)
            if word.weight < 2:
                continue
            assert depth(net, word).depth == oracle[(x, z)]


def test_star_reduced_model_is_rejected():
    from gatebound import star

    with pytest.raises(DomainError):
        depth(star(4), parse_pauli("ZZZZ"))


def _oracle_networks():
    nets = [uniform_chain(n) for n in range(2, 9)]
    nets += [star_full_local(n) for n in range(3, 9)]
    nets += [complete_graph(n) for n in range(3, 8)]
    nets += [grid_graph(2, k) for k in range(2, 5)]
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        nets.append(random_connected_network(rng, n, extra_edges=int(rng.integers(0, 5))))
    return nets


def _steps(res):
    return tuple((s.kind, s.edge, s.vertex) for s in res.witness)


@pytest.mark.parametrize("net", _oracle_networks())
def test_steiner_depth_matches_subset_searches(net):
    oracle = lexicographic_depth_oracle(net)
    table = max_depth_table(net)
    is_tree = len(net.edges) == net.n - 1
    full = (1 << net.n) - 1
    per_weight = {}
    for mask, (_, steps) in oracle.items():
        w = mask.bit_count()
        if w >= 2:
            per_weight[w] = max(per_weight.get(w, 0), len(steps))
    assert table.per_weight == per_weight
    assert table.max_depth == max(per_weight.values())
    for mask in range(1 << net.n):
        if mask.bit_count() < 2:
            continue
        support = tuple(q for q in range(net.n) if mask >> q & 1)
        res = depth_of_support(net, support)
        start, steps = oracle[mask]
        assert res.depth == len(steps) == table.support_depth(support), support
        assert replay_witness(res.start_edge, res.witness) == frozenset(support)
        assert len(res.witness) == res.depth
        if is_tree or mask == full:
            # the minimal Steiner set is unique: same witness step for step
            assert (res.start_edge, _steps(res)) == (start, steps), support


# Where several minimal Steiner sets exist, the witness follows the
# Dreyfus-Wagner reconstruction (or the two-component walk-back), taking the
# first minimizer in contracted node order.  These are all the supports of
# _oracle_networks() where that differs from the lexicographically smallest
# shortest walk: (network index, support) -> start edge, then each step as
# +v (grow v) or -v (shrink v), a colon, and its edge.
_TIE_BROKEN_WITNESSES = {
    (20, (0, 3, 4, 6)): "45 +0:04 +6:56 +2:26 +3:23 -2:23 -5:45",
    (20, (1, 3, 4, 6)): "23 +1:12 +5:15 +6:26 +4:45 -2:12 -5:15",
    (20, (0, 3, 5, 7)): "15 +0:01 +6:56 +7:67 +3:37 -1:01 -6:56",
    (21, (0, 1, 2)): "03 +2:02 +1:13 -3:03",
    (21, (0, 3, 6)): "13 +0:03 +6:16 -1:13",
    (21, (3, 4, 6)): "16 +3:13 +2:26 +4:24 -1:13 -2:24",
    (21, (3, 5, 6)): "13 +0:03 +5:05 +6:16 -0:03 -1:13",
    (21, (0, 3, 5, 6)): "13 +0:03 +5:05 +6:16 -1:13",
    (21, (3, 4, 5, 6)): "16 +3:13 +2:26 +4:24 +5:25 -1:13 -2:24",
    (26, (1, 2, 5, 6)): "15 +2:12 +3:35 +6:36 -3:35",
    (26, (0, 1, 6, 7)): "03 +1:01 +6:36 +4:46 +7:47 -3:03 -4:46",
    (26, (0, 2, 6, 7)): "36 +0:03 +4:46 +2:24 +7:47 -3:03 -4:24",
    (26, (1, 5, 6, 7)): "35 +1:15 +6:36 +4:46 +7:47 -3:35 -4:46",
    (26, (0, 1, 5, 6, 7)): "15 +0:01 +3:03 +6:36 +4:46 +7:47 -3:03 -4:46",
    (26, (0, 2, 5, 6, 7)): "35 +0:03 +6:36 +4:46 +2:24 +7:47 -3:03 -4:24",
    (30, (1, 4)): "25 +1:12 +4:45 -2:12 -5:45",
    (30, (0, 1, 2, 4)): "12 +0:01 +5:25 +4:45 -5:25",
    (30, (1, 3, 4)): "23 +1:12 +5:25 +4:45 -2:12 -5:45",
    (30, (0, 1, 2, 3, 4)): "12 +0:01 +3:13 +5:25 +4:45 -5:25",
    (30, (0, 3, 4, 5)): "13 +0:01 +6:06 +4:46 +5:45 -1:01 -6:06",
    (30, (0, 3, 5, 6)): "13 +0:01 +6:06 +4:46 +5:45 -1:01 -4:45",
    (34, (0, 1, 2, 4)): "17 +0:07 +4:47 +5:45 +2:25 -7:07 -5:25",
    (34, (3, 4)): "25 +3:23 +4:45 -2:23 -5:45",
    (34, (0, 2, 3, 4)): "23 +0:03 +5:25 +4:45 -5:25",
    (34, (1, 2, 3, 4)): "46 +1:16 +5:45 +2:25 +3:23 -6:16 -5:25",
    (34, (0, 1, 2, 3, 5)): "23 +0:03 +5:25 +6:56 +1:16 -6:16",
    (34, (1, 3, 4, 5)): "46 +1:16 +5:45 +2:25 +3:23 -6:16 -2:23",
    (34, (0, 1, 2, 3, 4, 5)): "23 +0:03 +5:25 +4:45 +6:46 +1:16 -6:16",
    (34, (0, 3, 6)): "07 +3:03 +1:17 +6:16 -7:07 -1:16",
    (34, (0, 1, 2, 3, 6)): "23 +0:03 +5:25 +6:56 +1:16 -5:25",
    (34, (3, 4, 6)): "25 +3:23 +4:45 +6:46 -2:23 -5:45",
    (34, (0, 2, 3, 4, 6)): "23 +0:03 +5:25 +4:45 +6:46 -5:25",
    (34, (0, 1, 2, 3, 4, 6)): "23 +0:03 +5:25 +4:45 +6:46 +1:16 -5:25",
    (34, (0, 5, 6)): "17 +0:07 +6:16 +5:56 -7:07 -1:16",
    (34, (1, 5, 7)): "47 +1:17 +5:45 -4:45",
    (34, (0, 1, 5, 7)): "17 +0:07 +4:47 +5:45 -4:45",
    (34, (1, 2, 5, 7)): "47 +1:17 +5:45 +2:25 -4:45",
    (34, (1, 3, 5, 7)): "07 +3:03 +1:17 +4:47 +5:45 -0:03 -4:45",
    (34, (2, 3, 6, 7)): "23 +0:03 +7:07 +5:25 +6:56 -0:03 -5:25",
    (34, (0, 2, 5, 6, 7)): "17 +0:07 +6:16 +5:56 +2:25 -1:16",
    (34, (0, 3, 5, 6, 7)): "07 +3:03 +1:17 +6:16 +5:56 -1:16",
    (36, (0, 5)): "13 +0:03 +5:15 -3:03 -1:15",
    (36, (0, 1, 2, 5)): "03 +2:02 +1:13 +5:15 -3:03",
    (36, (0, 2, 3, 5)): "03 +2:02 +1:13 +5:15 -1:13",
    (36, (0, 2, 4, 5)): "04 +2:02 +1:14 +5:15 -1:14",
    (36, (0, 2, 3, 4, 5)): "03 +2:02 +4:04 +1:13 +5:15 -1:13",
    (36, (0, 5, 6)): "13 +0:03 +6:06 +5:15 -3:03 -1:15",
    (36, (0, 1, 2, 5, 6)): "03 +2:02 +6:06 +1:13 +5:15 -3:03",
    (36, (0, 2, 3, 5, 6)): "03 +2:02 +6:06 +1:13 +5:15 -1:13",
    (36, (0, 2, 4, 5, 6)): "04 +2:02 +6:06 +1:14 +5:15 -1:14",
    (36, (0, 2, 3, 4, 5, 6)): "03 +2:02 +4:04 +6:06 +1:13 +5:15 -1:13",
    (36, (0, 4, 5, 7)): "14 +0:04 +5:15 +7:57 -1:14",
    (36, (1, 4, 6, 7)): "13 +0:03 +4:04 +6:06 +7:37 -0:03 -3:13",
    (36, (4, 5, 6, 7)): "14 +0:04 +6:06 +5:15 +7:57 -0:04 -1:14",
    (36, (0, 4, 5, 6, 7)): "14 +0:04 +6:06 +5:15 +7:57 -1:14",
}


def _walk(text):
    start, *steps = text.split()
    return (int(start[0]), int(start[1])), tuple(
        ("grow" if s[0] == "+" else "shrink", (int(s[3]), int(s[4])), int(s[1]))
        for s in steps)


def test_witnesses_between_several_minimal_steiner_sets_are_pinned():
    for i, net in enumerate(_oracle_networks()):
        for mask, smallest in lexicographic_depth_oracle(net).items():
            if mask.bit_count() < 2:
                continue
            support = tuple(q for q in range(net.n) if mask >> q & 1)
            res = depth_of_support(net, support)
            pinned = _TIE_BROKEN_WITNESSES.get((i, support))
            expected = smallest if pinned is None else _walk(pinned)
            assert (res.start_edge, _steps(res)) == expected, (i, support)


def test_long_chain_end_to_end_support():
    n = 200
    res = depth_of_support(uniform_chain(n), (0, n - 1))
    assert res.depth == 2 * (n - 2) == 396
    assert replay_witness(res.start_edge, res.witness) == {0, n - 1}
    assert len(res.witness) == res.depth


def _tree_span(net, support):
    """Vertices on the tree paths from the first terminal to the others."""
    root = support[0]
    parent = {root: None}
    order = [root]
    for u in order:
        for w in net.adjacency[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    span = set()
    for t in support:
        while t is not None and t not in span:
            span.add(t)
            t = parent[t]
    return span


def test_random_tree_of_120_qubits():
    rng = np.random.default_rng(120)
    net = random_connected_network(rng, 120, extra_edges=0)
    for weight in (2, 3, 5, 8, 20, 60):
        support = tuple(sorted(int(q) for q in rng.choice(120, size=weight, replace=False)))
        res = depth_of_support(net, support)
        assert res.depth == 2 * len(_tree_span(net, support)) - weight - 2
        assert res.depth <= depth_upper_bound(net.n)
        assert replay_witness(res.start_edge, res.witness) == frozenset(support)
        assert len(res.witness) == res.depth


def test_grid_corners_need_an_h_shaped_tree():
    # the four corners of a 10x10 grid join through 27 edges (an H), so
    # st = 28 and depth = 2*28 - 4 - 2
    net = grid_graph(10, 10)
    res = depth_of_support(net, (0, 9, 90, 99))
    assert res.depth == 50
    assert replay_witness(res.start_edge, res.witness) == {0, 9, 90, 99}


def test_supports_on_thousands_of_qubits_take_a_breadth_first_search():
    # a spanning tree plus 5 chords on 2,000 qubits, and a 45x45 grid; these
    # supports once took seconds to minutes in an all-pairs distance pass.
    # The ends of a 2,000-qubit chain, and of a 1,000-qubit chain numbered at
    # random, once took a second and minutes in a shrink phase that rescanned
    # every edge and component after each step
    sparse = random_connected_network(np.random.default_rng(2000), 2000, extra_edges=5)
    grid = grid_graph(45, 45)
    order = np.random.default_rng(1000).permutation(1000).tolist()
    shuffled = QubitNetwork(n=1000, edges={(order[k], order[k + 1]): np.diag([0, 0, 1.0])
                                           for k in range(999)})
    for net, support in ((sparse, (0, 1999)), (sparse, (0, 1000, 1999)),
                         (grid, (0, 44, 2024)), (uniform_chain(2000), (0, 1999)),
                         (shuffled, (order[0], order[-1])), (grid, (0, 2024))):
        start = time.perf_counter()
        res = depth_of_support(net, support)
        assert time.perf_counter() - start < 1.0, support
        # a BFS tree's span is a shortest path for two terminals, else an upper bound
        spanned = 2 * len(_tree_span(net, support)) - len(support) - 2
        assert res.depth == spanned if len(support) == 2 else res.depth <= spanned
        assert replay_witness(res.start_edge, res.witness) == frozenset(support)
    assert res.depth == 2 * (88 - 1)  # the grid corners are 88 edges apart


def test_too_many_support_components_is_a_resource_error():
    net = grid_graph(2, 30)  # a ladder: not a tree
    with pytest.raises(ResourceLimitError):
        depth_of_support(net, tuple(range(0, 30, 2)))

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmat import INF, Graph, build_structure
from netmat.generators import GenConfig, gen_digraph
from netmat.matrices import BinaryMatrix, binarize, ew_sub, hadamard
from netmat.structure import build_adjacency, distance_matrix, external_matrix

from oracles import ew_leq, floyd_warshall_distance_matrix, is_zero, mutually_exclusive


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(("a", "b"), frozenset({(0, 0)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(("a", "b"), frozenset({(0, 2)}))

    def test_rejects_duplicate_or_bad_labels(self):
        with pytest.raises(ValueError):
            Graph(("a", "a"), frozenset())
        with pytest.raises(ValueError):
            Graph(("a", "b c"), frozenset())
        with pytest.raises(ValueError):
            Graph((), frozenset())

    def test_successors_sorted(self):
        g = Graph(("a", "b", "c"), frozenset({(0, 2), (0, 1)}))
        assert g.successors() == {0: (1, 2)}

    def test_index_of(self, shortcut_graph):
        assert shortcut_graph.index_of("C") == 2
        with pytest.raises(KeyError):
            shortcut_graph.index_of("Z")


class TestAdjacency:
    def test_shortcut_graph_has_exactly_four_edges(self, shortcut_graph):
        a = build_adjacency(shortcut_graph)
        ones = {(i, j) for i in range(4) for j in range(4) if a[i, j]}
        assert ones == {(0, 1), (1, 2), (2, 3), (1, 3)}

    def test_empty_edge_set(self):
        g = Graph(("a", "b"), frozenset())
        assert build_adjacency(g) == BinaryMatrix.zeros(2)

    def test_single_edge(self):
        g = Graph(("a", "b"), frozenset({(0, 1)}))
        assert build_adjacency(g) == BinaryMatrix(((0, 1), (0, 0)))

    def test_directed_not_symmetric(self):
        g = Graph(("a", "b"), frozenset({(0, 1)}))
        a = build_adjacency(g)
        assert a[0, 1] == 1 and a[1, 0] == 0


class TestDistance:
    def test_two_hop_chain(self):
        a = build_adjacency(Graph(("a", "b", "c"), frozenset({(0, 1), (1, 2)})))
        p = distance_matrix(a)
        assert p[0, 2] == 2
        assert p[2, 0] is INF

    def test_shortcut_graph_values(self, shortcut_graph):
        p = distance_matrix(build_adjacency(shortcut_graph))
        assert p[0, 2] == 2
        assert p[0, 3] == 2
        assert p[1, 3] == 1
        assert p[1, 0] is INF

    def test_edgeless(self):
        p = distance_matrix(BinaryMatrix.zeros(3))
        for i in range(3):
            for j in range(3):
                assert p[i, j] == 0 if i == j else p[i, j] is INF

    def test_diagonal_zero_even_on_cycle(self):
        a = build_adjacency(Graph(("a", "b"), frozenset({(0, 1), (1, 0)})))
        p = distance_matrix(a)
        assert p[0, 0] == 0 and p[1, 1] == 0

    def test_edge_cells_are_one(self, shortcut_graph):
        a = build_adjacency(shortcut_graph)
        p = distance_matrix(a)
        for i, j in shortcut_graph.edges:
            assert p[i, j] == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_floyd_warshall_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = gen_digraph(GenConfig(n=n, edge_prob=rng.random(), max_traj=0, max_len=0, seed=seed))
        a = build_adjacency(g)
        assert distance_matrix(a) == floyd_warshall_distance_matrix(a)


class TestExternal:
    def test_shortcut_graph_values(self, shortcut_structure):
        e = shortcut_structure.E
        assert e[0, 2] == 2
        assert e[0, 3] == 2
        assert e[0, 1] == 0
        assert e[1, 0] is INF

    def test_shortcut_graph_binarization(self, shortcut_structure):
        ehat = shortcut_structure.Ehat
        ones = {(i, j) for i in range(4) for j in range(4) if ehat[i, j]}
        assert ones == {(0, 2), (0, 3)}
        assert ehat[1, 3] == 0

    def test_complete_digraph_has_no_external_pairs(self):
        n = 4
        g = Graph(
            tuple(f"x{i}" for i in range(n)),
            frozenset((i, j) for i in range(n) for j in range(n) if i != j),
        )
        s = build_structure(g)
        assert is_zero(s.Ehat)

    def test_matches_ew_sub(self, shortcut_structure):
        s = shortcut_structure
        assert external_matrix(s.P, s.A) == ew_sub(s.P, s.A)


class TestBundle:
    def test_shortcut_graph_exclusivity(self, shortcut_structure):
        s = shortcut_structure
        assert is_zero(hadamard(s.A, s.Ehat))

    def test_edgeless_bundle(self):
        s = build_structure(Graph(("a", "b"), frozenset()))
        assert is_zero(s.A) and is_zero(s.Phat) and is_zero(s.Ehat)

    def test_chain_external_single_cell(self):
        s = build_structure(Graph(("a", "b", "c"), frozenset({(0, 1), (1, 2)})))
        assert s.Ehat == BinaryMatrix(((0, 0, 1), (0, 0, 0), (0, 0, 0)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_graph_invariants(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        g = gen_digraph(GenConfig(n=n, edge_prob=rng.random(), max_traj=0, max_len=0, seed=seed))
        s = build_structure(g)
        assert ew_leq(s.A, s.Phat)
        assert hadamard(s.Phat, s.Ehat) == s.Ehat
        assert hadamard(s.Phat, s.A) == s.A
        assert mutually_exclusive(s.A, s.Ehat)
        assert is_zero(hadamard(s.A, s.Ehat))
        # Both routes to the binarized external matrix agree.
        assert binarize(ew_sub(s.P, s.A)) == ew_sub(s.Phat, s.A)
        # Reachability meaning of the binarized distance matrix.
        oracle = floyd_warshall_distance_matrix(s.A)
        for i in range(n):
            for j in range(n):
                reachable = oracle[i, j] is not INF and oracle[i, j] > 0
                assert s.Phat[i, j] == (1 if reachable else 0)

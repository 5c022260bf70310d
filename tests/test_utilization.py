import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmat import (
    Dataset,
    Graph,
    Trajectory,
    build_structure,
    build_utilization,
    gen_dataset,
)
from netmat.errors import CrossCheckFailure, MissingEdge, RepeatedNode, TooShort
from netmat.generators import GenConfig
from netmat.matrices import CountMatrix, ew_add, hadamard
from netmat.utilization import is_fully_utilized, validate_trajectory

from oracles import (
    alternative_route_matrix,
    ew_leq,
    flow_matrix,
    indirect_flow_matrix,
    is_zero,
    mutually_exclusive,
    od_matrix,
    substitute_route_matrix,
)


def dataset_from_seed(seed, max_n=10, max_traj=20):
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    cfg = GenConfig(
        n=n,
        edge_prob=rng.random(),
        max_traj=rng.randint(0, max_traj),
        max_len=n if n < 2 else rng.randint(2, n),
        allow_duplicates=True,
        seed=seed,
    )
    return gen_dataset(cfg)


seeds = st.integers(0, 2**32 - 1)


class TestValidation:
    def test_valid_path(self, shortcut_graph):
        validate_trajectory(Trajectory((0, 1, 2, 3)), shortcut_graph)

    def test_too_short(self):
        with pytest.raises(TooShort):
            Trajectory((0,))

    def test_repeated_node(self):
        with pytest.raises(RepeatedNode):
            Trajectory((0, 1, 0))

    def test_missing_edge(self, shortcut_graph):
        with pytest.raises(MissingEdge) as exc:
            validate_trajectory(Trajectory((0, 2)), shortcut_graph)
        assert exc.value.src == "A" and exc.value.dst == "C"

    def test_node_out_of_range(self, shortcut_graph):
        with pytest.raises(Exception):
            validate_trajectory(Trajectory((0, 9)), shortcut_graph)

    def test_dataset_validates_on_build(self, shortcut_graph):
        with pytest.raises(MissingEdge):
            Dataset(shortcut_graph, (Trajectory((0, 2)),))


class TestFlow:
    def test_single_path(self, shortcut_dataset):
        f = flow_matrix(shortcut_dataset)
        assert f[0, 1] == 1 and f[1, 2] == 1 and f[2, 3] == 1
        assert f[1, 3] == 0

    def test_no_trajectories(self, shortcut_graph):
        assert is_zero(flow_matrix(Dataset(shortcut_graph, ())))

    def test_duplicates_add(self, shortcut_graph):
        d = Dataset(shortcut_graph, (Trajectory((0, 1, 2, 3)),) * 2)
        f = flow_matrix(d)
        assert f[0, 1] == 2 and f[1, 2] == 2 and f[2, 3] == 2


class TestOd:
    def test_single_path_covers_all_ordered_pairs(self, shortcut_dataset):
        d = od_matrix(shortcut_dataset)
        ones = {(i, j) for i in range(4) for j in range(4) if d[i, j]}
        assert ones == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert all(d[i, j] == 1 for i, j in ones)

    def test_no_trajectories(self, shortcut_graph):
        assert is_zero(od_matrix(Dataset(shortcut_graph, ())))

    def test_single_edge_trajectory(self, shortcut_graph):
        d = od_matrix(Dataset(shortcut_graph, (Trajectory((1, 3)),)))
        assert d[1, 3] == 1
        assert sum(v for row in d.cells for v in row) == 1


class TestIndirect:
    def test_single_path(self, shortcut_dataset):
        l = indirect_flow_matrix(shortcut_dataset)
        ones = {(i, j) for i in range(4) for j in range(4) if l[i, j]}
        assert ones == {(0, 2), (0, 3), (1, 3)}
        assert l[1, 3] == 1

    def test_single_edge_trajectory_has_no_indirect_pairs(self, shortcut_graph):
        assert is_zero(indirect_flow_matrix(Dataset(shortcut_graph, (Trajectory((1, 3)),))))

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_chain_pair_combinatorics(self, k):
        g = Graph(
            tuple(f"x{i}" for i in range(k)),
            frozenset((i, i + 1) for i in range(k - 1)),
        )
        l = indirect_flow_matrix(Dataset(g, (Trajectory(tuple(range(k))),)))
        nonzero = sum(1 for row in l.cells for v in row if v)
        assert nonzero == math.comb(k, 2) - (k - 1)


class TestAlternativeAndSubstitute:
    def test_single_path(self, shortcut_dataset, shortcut_structure):
        t = alternative_route_matrix(shortcut_dataset, shortcut_structure)
        assert t[1, 3] == 1
        assert sum(v for row in t.cells for v in row) == 1
        tc = substitute_route_matrix(shortcut_dataset, shortcut_structure)
        ones = {(i, j) for i in range(4) for j in range(4) if tc[i, j]}
        assert ones == {(0, 2), (0, 3)}

    def test_no_shortcut_edges_means_zero(self, chain3_graph):
        s = build_structure(chain3_graph)
        d = Dataset(chain3_graph, (Trajectory((0, 1, 2)),))
        assert is_zero(alternative_route_matrix(d, s))

    def test_repeat_trajectories_accumulate(self, shortcut_graph, shortcut_structure):
        d = Dataset(
            shortcut_graph,
            (Trajectory((0, 1, 2, 3)), Trajectory((1, 2, 3)), Trajectory((1, 2, 3))),
        )
        t = alternative_route_matrix(d, shortcut_structure)
        assert t[1, 3] == 3

    def test_complete_digraph_has_no_substitutes(self):
        n = 3
        g = Graph(
            tuple(f"x{i}" for i in range(n)),
            frozenset((i, j) for i in range(n) for j in range(n) if i != j),
        )
        s = build_structure(g)
        d = Dataset(g, (Trajectory((0, 1, 2)),))
        assert is_zero(substitute_route_matrix(d, s))

    def test_duplicate_chain_doubles_substitute_count(self, chain3_graph):
        s = build_structure(chain3_graph)
        d = Dataset(chain3_graph, (Trajectory((0, 1, 2)),) * 2)
        assert substitute_route_matrix(d, s)[0, 2] == 2


class TestBundle:
    def test_shortcut_bundle_invariants(self, shortcut_utilization, shortcut_structure):
        u, s = shortcut_utilization, shortcut_structure
        assert u.D == ew_add(u.F, ew_add(u.T, u.Tc))
        assert u.L == ew_add(u.T, u.Tc)
        assert ew_leq(u.F, u.D)
        assert ew_leq(u.Fhat, s.A)
        assert mutually_exclusive(s.A, u.Tchat)

    def test_empty_trajectory_list_gives_zero_bundle(self, shortcut_graph, shortcut_structure):
        u = build_utilization(Dataset(shortcut_graph, ()), shortcut_structure)
        for m in (u.F, u.D, u.L, u.T, u.Tc, u.Fhat, u.Dhat, u.Lhat, u.That, u.Tchat):
            assert is_zero(m)

    def test_mismatched_structure_trips_cross_check(self, shortcut_graph, chain3_graph):
        # Structure from a different graph: the algebraic reconstruction of T
        # and Tc cannot match the counted matrices.
        d = Dataset(shortcut_graph, (Trajectory((0, 1, 2, 3)),))
        wrong = build_structure(
            Graph(("A", "B", "C", "D"), frozenset({(0, 1), (1, 2), (2, 3)}))
        )
        with pytest.raises(CrossCheckFailure) as exc:
            build_utilization(d, wrong)
        assert "cell" in str(exc.value)

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_cross_checks_pass_on_random_datasets(self, seed):
        d = dataset_from_seed(seed)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        assert u.T == hadamard(s.A, u.L)
        assert u.Tc == hadamard(s.Ehat, u.D)

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_table_invariants_on_random_datasets(self, seed):
        d = dataset_from_seed(seed)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        assert ew_leq(u.Fhat, s.A)
        assert u.F == hadamard(s.A, u.F)
        assert ew_leq(u.Dhat, s.Phat)
        assert u.D == hadamard(s.Phat, u.D)
        assert ew_leq(u.F, u.D)
        assert ew_leq(u.Fhat, u.Dhat)

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_definitional_equals_algebraic(self, seed):
        d = dataset_from_seed(seed)
        s = build_structure(d.graph)
        assert alternative_route_matrix(d, s) == hadamard(s.A, indirect_flow_matrix(d))
        assert substitute_route_matrix(d, s) == hadamard(s.Ehat, od_matrix(d))

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_counts_match_per_pair_oracles(self, seed):
        d = dataset_from_seed(seed)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        assert u.F == flow_matrix(d)
        assert u.D == od_matrix(d)
        assert u.L == indirect_flow_matrix(d)
        assert u.T == alternative_route_matrix(d, s)
        assert u.Tc == substitute_route_matrix(d, s)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_per_trajectory_additivity(self, seed):
        d = dataset_from_seed(seed, max_n=8, max_traj=8)
        s = build_structure(d.graph)
        whole = build_utilization(d, s)
        parts = [
            build_utilization(Dataset(d.graph, (t,)), s) for t in d.trajectories
        ]
        for field in ("F", "D", "L", "T", "Tc"):
            total = CountMatrix.zeros(d.graph.n)
            for p in parts:
                total = ew_add(total, getattr(p, field))
            assert total == getattr(whole, field)

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_zero_diagonals(self, seed):
        d = dataset_from_seed(seed)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        for m in (u.F, u.D, u.L, u.T, u.Tc):
            assert all(m[i, i] == 0 for i in range(d.graph.n))


def _matrix(n, counts):
    return CountMatrix(
        tuple(tuple(counts.get((i, j), 0) for j in range(n)) for i in range(n))
    )


class TestFieldWidth:
    # Counts are packed into 8-, 16-, 32- or 64-bit fields sized by the
    # number of trajectories; each count sits at the top of one width or
    # just past it, with a zero column on either side to catch a carry.
    chain4 = Graph(("A", "B", "C", "D"), frozenset({(0, 1), (1, 2), (2, 3)}))

    @pytest.mark.parametrize("copies", [255, 256])
    def test_three_node_path(self, copies):
        d = Dataset(self.chain4, (Trajectory((0, 1, 2)),) * copies)
        u = build_utilization(d, build_structure(self.chain4))
        c = copies
        assert u.F == _matrix(4, {(0, 1): c, (1, 2): c})
        assert u.D == _matrix(4, {(0, 1): c, (0, 2): c, (1, 2): c})
        assert u.L == _matrix(4, {(0, 2): c})
        assert u.T == _matrix(4, {})
        assert u.Tc == _matrix(4, {(0, 2): c})

    @pytest.mark.parametrize("copies", [65535, 65536])
    def test_two_node_path(self, copies):
        d = Dataset(self.chain4, (Trajectory((1, 2)),) * copies)
        u = build_utilization(d, build_structure(self.chain4))
        assert u.F == u.D == _matrix(4, {(1, 2): copies})
        assert u.L == u.T == u.Tc == _matrix(4, {})


class TestFullyUtilized:
    def test_single_path_leaves_shortcut_unused(
        self, shortcut_utilization, shortcut_structure
    ):
        assert not is_fully_utilized(shortcut_utilization, shortcut_structure)

    def test_covering_second_trajectory(self, shortcut_graph, shortcut_structure):
        d = Dataset(shortcut_graph, (Trajectory((0, 1, 2, 3)), Trajectory((1, 3))))
        u = build_utilization(d, shortcut_structure)
        assert is_fully_utilized(u, shortcut_structure)

    def test_edgeless_graph_is_vacuously_fully_utilized(self):
        g = Graph(("a", "b"), frozenset())
        s = build_structure(g)
        u = build_utilization(Dataset(g, ()), s)
        assert is_fully_utilized(u, s)

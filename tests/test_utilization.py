import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmat import (
    INF,
    Dataset,
    Graph,
    Trajectory,
    build_structure,
    build_utilization,
    gen_dataset,
    utilization,
)
from netmat.errors import (
    CrossCheckFailure,
    DimensionMismatch,
    MissingEdge,
    RepeatedNode,
    TooShort,
    TrajectoryError,
)
from netmat.generators import GenConfig
from netmat.matrices import CountMatrix, ew_add, hadamard
from netmat.utilization import is_fully_utilized, validate_trajectory

from oracles import (
    alternative_route_matrix,
    binarize_cells,
    bundle_matrices,
    ew_leq,
    flow_matrix,
    indirect_flow_matrix,
    is_zero,
    mutually_exclusive,
    od_matrix,
    substitute_route_matrix,
    trajectory_fault,
    zeros,
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


# Each hat with the count matrix it binarizes.
HATS = {"Phat": "P", "Ehat": "E", "Fhat": "F", "Dhat": "D", "Lhat": "L",
        "That": "T", "Tchat": "Tc"}


def assert_bundle_cells(s, u):
    """The invariants the validating constructor would enforce, checked on
    every matrix of both bundles; A and the hats hold only 0 and 1, and each
    hat matches the per-cell oracle."""
    n = s.A.n
    env = bundle_matrices(s, u)
    assert set(env) == {"A", "P", "E", "F", "D", "L", "T", "Tc", *HATS}
    for name, m in env.items():
        assert type(m.cells) is tuple and len(m.cells) == n, name
        for row in m.cells:
            assert type(row) is tuple and len(row) == n, name
            for v in row:
                if name == "A" or name in HATS:
                    assert type(v) is int and v in (0, 1), (name, v)
                else:
                    assert v is INF or (type(v) is int and v >= 0), (name, v)
        assert type(m)(m.cells) == m, name
    for hat, count in HATS.items():
        assert env[hat] == binarize_cells(env[count]), hat


configs = st.builds(
    lambda n, p, max_traj, max_len, seed: GenConfig(
        n=n, edge_prob=p, max_traj=max_traj, max_len=min(max_len, n),
        allow_duplicates=True, seed=seed,
    ),
    st.integers(1, 9),
    st.floats(0.0, 1.0),
    st.integers(0, 30),
    st.integers(0, 9),
    seeds,
)


class TestUnpack:
    """_unpack reads the five packed matrices as w-bit fields at every width
    the counter can choose, through a typecode table chosen per platform;
    64-bit fields need 2**32 trajectories, so only a direct call reaches
    them."""

    @pytest.mark.parametrize("w", [8, 16, 32, 64])
    def test_zero_one_and_largest_field_side_by_side(self, w):
        # Matrix k holds 0, 1 + k and the largest field in each row, rotated
        # one column per row; the five matrices differ, so a cut between
        # them in the wrong place shows.
        counts = []
        for k in range(5):
            values = (0, 1 + k, 2**w - 1)
            counts.append(
                [sum(values[(i + j) % 3] << (w * j) for j in range(3)) for i in range(3)]
            )
        ms = utilization._unpack(counts, 3, w)
        assert len(ms) == 5 and all(type(m) is CountMatrix for m in ms)
        for k, (m, rows) in enumerate(zip(ms, counts)):
            # The per-field decode of each packed row.
            assert m.cells == tuple(
                tuple((r >> (w * j)) & (2**w - 1) for j in range(3)) for r in rows
            )
            assert {v for row in m.cells for v in row} == {0, 1 + k, 2**w - 1}
            assert all(type(v) is int for row in m.cells for v in row)


class TestLazyHats:
    @settings(max_examples=60, deadline=None)
    @given(configs, st.sampled_from([1, 300]))
    def test_each_hat_is_made_from_its_count_on_first_read(self, cfg, copies):
        # 300 copies of a nonempty trajectory list count in 16-bit fields,
        # so F, D, L, T and Tc may be binarized cell by cell.  The structure
        # bundle read is not the one build_utilization read Ehat off.
        d = gen_dataset(cfg)
        d = Dataset(d.graph, d.trajectories * copies)
        u = build_utilization(d, build_structure(d.graph))
        s = build_structure(d.graph)
        for bundle in (s, u):
            for hat, count in HATS.items():
                if count not in vars(bundle):
                    continue
                assert hat not in vars(bundle), hat
                first = getattr(bundle, hat)
                assert first == binarize_cells(getattr(bundle, count)), hat
                assert getattr(bundle, hat) is first, hat


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

    @pytest.mark.parametrize("item", [(0, 1), [0, 1], "ab", None])
    def test_dataset_item_that_is_not_a_trajectory_rejected(self, chain3_graph, item):
        with pytest.raises(TrajectoryError) as exc:
            Dataset(chain3_graph, [Trajectory((0, 1)), item])
        assert type(exc.value) is TrajectoryError
        assert str(exc.value) == f"trajectory 1 is {item!r}, not a Trajectory"

    @pytest.mark.parametrize("graph", [None, "A B", (("A", "B"), {(0, 1)})])
    def test_dataset_graph_that_is_not_a_graph_rejected(self, graph):
        with pytest.raises(ValueError, match="dataset graph must be a Graph"):
            Dataset(graph, [Trajectory((0, 1))])

    @pytest.mark.parametrize(
        "nodes, named", [((0, 1.0, 2), "1.0"), ((0, 1.5), "1.5"), (("a", "b"), "'a'")]
    )
    def test_non_integer_node_rejected(self, chain3_graph, nodes, named):
        with pytest.raises(TrajectoryError) as exc:
            Dataset(chain3_graph, [Trajectory(nodes)])
        assert type(exc.value) is TrajectoryError
        assert str(exc.value) == f"node {named} is not an integer node index"

    def test_non_integer_checked_after_length_and_before_repeats(self):
        with pytest.raises(TooShort):
            Trajectory((0.5,))
        with pytest.raises(TrajectoryError, match="node 'x' is not an integer"):
            Trajectory((1, 1, "x"))

    # Node tuples on the shortcut graph A->B->C->D, B->D: out of range,
    # negative, repeated, off the edges and not integers.
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.integers(0, 3)
            | st.integers(-2, 6)
            | st.booleans()
            | st.floats(-1, 5, allow_nan=False)
            | st.text(max_size=1)
            | st.none(),
            max_size=6,
        )
    )
    @example([0, 1, 2, 3])
    @example([0, 1, 3])
    @example([0, 1.0, 2])
    def test_matches_oracle(self, nodes):
        g = Graph(("A", "B", "C", "D"), frozenset({(0, 1), (1, 2), (2, 3), (1, 3)}))
        try:
            validate_trajectory(Trajectory(tuple(nodes)), g)
            outcome = None
        except TrajectoryError as e:
            outcome = type(e), str(e)
        assert outcome == trajectory_fault(nodes, g)


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

    # The structure's dimension comes first, in either order of sizes.
    @pytest.mark.parametrize(
        "graph, structure_graph, message",
        [
            ("chain3_graph", "shortcut_graph", "4x4 vs 3x3"),
            ("shortcut_graph", "chain3_graph", "3x3 vs 4x4"),
        ],
    )
    def test_structure_of_other_dimension_is_a_dimension_mismatch(
        self, request, graph, structure_graph, message
    ):
        g = request.getfixturevalue(graph)
        d = Dataset(g, (Trajectory(tuple(range(g.n))),))
        s = build_structure(request.getfixturevalue(structure_graph))
        with pytest.raises(DimensionMismatch) as exc:
            build_utilization(d, s)
        assert str(exc.value) == message

    # A cell of one counted matrix raised by one, and the cross-check that
    # must name it, on the shortcut dataset: T(B, D) and Tc(A, C) are 1,
    # A(A, C) = 0 and Ehat(A, B) = 0, so only the named check sees the change.
    # Raising F raises the derived side of its check; raising any other
    # count raises the counted side.
    @pytest.mark.parametrize(
        "index, cell, name, values",
        [
            pytest.param(
                0, (0, 1), "D = F + T + Tc", "counted 1, derived 2", id="0-cell0-D = F + T + Tc"
            ),
            pytest.param(
                1, (0, 1), "D = F + T + Tc", "counted 2, derived 1", id="1-cell1-D = F + T + Tc"
            ),
            pytest.param(2, (0, 2), "L = T + Tc", "counted 2, derived 1", id="2-cell2-L = T + Tc"),
            pytest.param(3, (1, 3), "T = A o L", "counted 2, derived 1", id="3-cell3-T = A o L"),
            pytest.param(
                4, (0, 2), "Tc = Ehat o D", "counted 2, derived 1", id="4-cell4-Tc = Ehat o D"
            ),
        ],
    )
    def test_corrupted_count_names_its_cross_check(
        self, monkeypatch, shortcut_dataset, shortcut_structure, index, cell, name, values
    ):
        count_all = utilization._count_all

        def corrupted(d):
            counts = list(count_all(d))
            rows = [list(row) for row in counts[index].cells]
            i, j = cell
            rows[i][j] += 1
            counts[index] = CountMatrix(rows)
            return tuple(counts)

        monkeypatch.setattr(utilization, "_count_all", corrupted)
        with pytest.raises(CrossCheckFailure) as exc:
            build_utilization(shortcut_dataset, shortcut_structure)
        assert str(exc.value) == f"{name} violated at cell {cell}: {values}"

    @settings(max_examples=60, deadline=None)
    @given(configs, st.sampled_from([1, 300]))
    def test_bundle_cells_valid_by_construction(self, cfg, copies):
        # 300 copies of a nonempty trajectory list count in 16-bit fields.
        d = gen_dataset(cfg)
        d = Dataset(d.graph, d.trajectories * copies)
        s = build_structure(d.graph)
        assert_bundle_cells(s, build_utilization(d, s))

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
            total = zeros(d.graph.n)
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
        assert_bundle_cells(build_structure(self.chain4), u)
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
        assert_bundle_cells(build_structure(self.chain4), u)
        assert u.F == u.D == _matrix(4, {(1, 2): copies})
        assert u.L == u.T == u.Tc == _matrix(4, {})

    # B->C->D->E with shortcut B->D, between two unwalked nodes A and F.
    shortcut6 = Graph(
        ("A", "B", "C", "D", "E", "F"),
        frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)}),
    )

    @pytest.mark.parametrize("copies", [255, 256, 65535, 65536])
    def test_shortcut_path_splits_indirect_flow(self, copies):
        # T holds the shortcut pair (B, D) and Tc the pairs (B, E) and
        # (C, E), which no edge joins, each at the full count.
        g = self.shortcut6
        d = Dataset(g, (Trajectory((1, 2, 3, 4)),) * copies)
        s = build_structure(g)
        u = build_utilization(d, s)
        assert_bundle_cells(s, u)
        assert u.F == flow_matrix(d)
        assert u.D == od_matrix(d)
        assert u.L == indirect_flow_matrix(d)
        assert u.T == alternative_route_matrix(d, s) == _matrix(6, {(1, 3): copies})
        assert u.Tc == substitute_route_matrix(d, s)
        assert u.Tc == _matrix(6, {(1, 4): copies, (2, 4): copies})


class TestWidening:
    """Counts run in 8-bit fields; past 255 trajectories a row is widened
    each time it has been walked 255 times and once more at the end, so
    rows widened a different number of times meet in one matrix."""

    # A->B->C->D with shortcuts A->C and B->D, then D->E->F.
    graph = Graph(
        ("A", "B", "C", "D", "E", "F"),
        frozenset({(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (3, 4), (4, 5)}),
    )

    def assert_matches_oracles(self, d):
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        assert_bundle_cells(s, u)
        assert u.F == flow_matrix(d)
        assert u.D == od_matrix(d)
        assert u.L == indirect_flow_matrix(d)
        assert u.T == alternative_route_matrix(d, s)
        assert u.Tc == substitute_route_matrix(d, s)

    @pytest.mark.parametrize("walks", [254, 255, 256, 510, 511, 766])
    def test_one_row_walked_past_a_byte(self, walks):
        # Row A is walked `walks` times, rows B and C about two thirds as
        # often, and rows D and E a few times.
        heavy = [(0, 1, 2, 3), (0, 1, 3), (0, 2, 3)]
        d = Dataset(
            self.graph,
            [Trajectory(heavy[k % 3]) for k in range(walks)]
            + [Trajectory((3, 4, 5))] * 3
            + [Trajectory((4, 5))],
        )
        self.assert_matches_oracles(d)

    @settings(max_examples=30, deadline=None)
    @given(configs, st.sampled_from([1, 255, 256, 600]))
    def test_repeated_trajectory_lists_match_oracles(self, cfg, copies):
        d = gen_dataset(cfg)
        self.assert_matches_oracles(Dataset(d.graph, d.trajectories * copies))


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

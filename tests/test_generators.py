import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmat import (
    Dataset,
    Graph,
    Trajectory,
    audit_dataset,
    build_structure,
    build_utilization,
    gen_dataset,
    sweep_configs,
)
from netmat.fileio import graph_to_text, trajectories_to_text
from netmat.generators import GenConfig, _shortest_path_cover, gen_digraph, gen_fully_utilized
from netmat.utilization import is_fully_utilized, validate_trajectory
from oracles import bfs_shortest_path_cover


def _serialize(d: Dataset) -> str:
    return graph_to_text(d.graph) + trajectories_to_text(d.trajectories, d.graph.labels)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "edge_prob": 0.5, "max_traj": 1, "max_len": 0},
            {"n": 3, "edge_prob": 1.5, "max_traj": 1, "max_len": 2},
            {"n": 3, "edge_prob": -0.1, "max_traj": 1, "max_len": 2},
            {"n": 3, "edge_prob": 0.5, "max_traj": -1, "max_len": 2},
            {"n": 3, "edge_prob": 0.5, "max_traj": 1, "max_len": 4},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)

    # _mix reduces a seed mod 2**64, so seeds outside that range would
    # alias ones inside it: -1 would give 2**64 - 1's dataset.
    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        message = rf"^seed must be between 0 and 2\*\*64 - 1, got {seed}$"
        with pytest.raises(ValueError, match=message):
            GenConfig(n=3, edge_prob=0.5, max_traj=1, max_len=2, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_ends_of_64_bits_accepted(self, seed):
        assert GenConfig(n=3, edge_prob=0.5, max_traj=1, max_len=2, seed=seed).seed == seed


class TestDigraph:
    def test_probability_zero_gives_edgeless(self):
        g = gen_digraph(GenConfig(n=5, edge_prob=0.0, max_traj=0, max_len=0, seed=3))
        assert g.edges == frozenset()

    def test_probability_one_gives_complete(self):
        g = gen_digraph(GenConfig(n=4, edge_prob=1.0, max_traj=0, max_len=0, seed=3))
        assert g.edges == frozenset(
            (i, j) for i in range(4) for j in range(4) if i != j
        )

    def test_same_seed_same_graph(self):
        cfg = GenConfig(n=8, edge_prob=0.4, max_traj=0, max_len=0, seed=21)
        assert gen_digraph(cfg) == gen_digraph(cfg)

    def test_different_seed_usually_differs(self):
        a = gen_digraph(GenConfig(n=8, edge_prob=0.4, max_traj=0, max_len=0, seed=1))
        b = gen_digraph(GenConfig(n=8, edge_prob=0.4, max_traj=0, max_len=0, seed=2))
        assert a != b


class TestTrajectory:
    def test_edgeless_graph_gives_none(self):
        cfg = GenConfig(n=2, edge_prob=0.0, max_traj=10, max_len=2, seed=0)
        assert gen_dataset(cfg).trajectories == ()

    def test_single_edge_graph_gives_that_edge(self):
        runs = [
            gen_dataset(GenConfig(n=2, edge_prob=0.5, max_traj=4, max_len=2,
                                  allow_duplicates=True, seed=seed))
            for seed in range(40)
        ]
        single = [d for d in runs if d.graph.edges == {(0, 1)}]
        assert any(d.trajectories for d in single)
        for d in single:
            assert all(t.nodes == (0, 1) for t in d.trajectories)

    @pytest.mark.parametrize("seed", range(10))
    def test_outputs_validate(self, seed):
        d = gen_dataset(GenConfig(n=7, edge_prob=0.5, max_traj=8, max_len=5, seed=seed))
        for t in d.trajectories:
            validate_trajectory(t, d.graph)
            assert 2 <= len(t.nodes) <= 5


class TestDataset:
    def test_max_traj_zero(self):
        d = gen_dataset(GenConfig(n=5, edge_prob=0.8, max_traj=0, max_len=5, seed=1))
        assert d.trajectories == ()

    def test_respects_max_traj(self):
        d = gen_dataset(GenConfig(n=6, edge_prob=0.9, max_traj=7, max_len=6, seed=9))
        assert len(d.trajectories) <= 7

    def test_duplicates_possible_when_allowed(self):
        cfg = dict(n=3, edge_prob=1.0, max_traj=40, max_len=2)
        dup = gen_dataset(GenConfig(allow_duplicates=True, seed=4, **cfg))
        nodes = [t.nodes for t in dup.trajectories]
        assert len(nodes) != len(set(nodes))
        dedup = gen_dataset(GenConfig(allow_duplicates=False, seed=4, **cfg))
        nodes = [t.nodes for t in dedup.trajectories]
        assert len(nodes) == len(set(nodes))

    def test_deterministic_bit_for_bit(self):
        cfg = GenConfig(n=7, edge_prob=0.5, max_traj=12, max_len=7, allow_duplicates=True, seed=77)
        assert _serialize(gen_dataset(cfg)) == _serialize(gen_dataset(cfg))


class TestFullyUtilized:
    @pytest.mark.parametrize("seed", range(25))
    def test_always_fully_utilized(self, seed):
        n = 2 + seed % 7
        cfg = GenConfig(
            n=n,
            edge_prob=(seed % 10) / 10,
            max_traj=seed % 5,
            max_len=n,
            seed=seed,
        )
        d = gen_fully_utilized(cfg)
        s = build_structure(d.graph)
        u = build_utilization(d, s)
        assert is_fully_utilized(u, s)

    def test_edgeless_graph_gives_empty_trajectory_list(self):
        d = gen_fully_utilized(GenConfig(n=4, edge_prob=0.0, max_traj=5, max_len=4, seed=2))
        assert d.trajectories == ()

    def test_covers_reachable_pairs_too(self, shortcut_graph):
        # Matching graph shape: chain with a shortcut; the generator is not
        # used here, only the audit of its output contract on a random seed.
        d = gen_fully_utilized(GenConfig(n=6, edge_prob=0.5, max_traj=0, max_len=6, seed=13))
        report = audit_dataset(d)
        byid = {v.id: v for v in report.verdicts}
        assert byid["FU.FHAT_EQ_A"].holds
        assert byid["FU.DHAT_EQ_PHAT"].holds

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
    def test_cover_is_the_bfs_tree_cover(self, n, edge_prob, seed):
        g = gen_digraph(GenConfig(n=n, edge_prob=edge_prob, max_traj=0, max_len=0, seed=seed))
        cover = [t.nodes for t in _shortest_path_cover(g)]
        assert cover == bfs_shortest_path_cover(g)

    def test_cover_exceeds_edge_count(self):
        cfg = GenConfig(n=4, edge_prob=0.9, max_traj=0, max_len=4, seed=8)
        d = gen_fully_utilized(cfg)
        assert len(d.trajectories) >= len(d.graph.edges)


class TestSweepConfigs:
    def test_deterministic_stream(self):
        a = list(sweep_configs(20, base_seed=5))
        b = list(sweep_configs(20, base_seed=5))
        assert a == b

    def test_negative_base_seed_rejected_at_the_call(self):
        # random.Random(-5) draws what random.Random(5) draws.
        with pytest.raises(ValueError, match="^base seed must be nonnegative, got -5$"):
            sweep_configs(20, base_seed=-5)

    def test_honours_bounds(self):
        for cfg in sweep_configs(50, base_seed=9, max_n=6, max_traj=10):
            assert 1 <= cfg.n <= 6
            assert cfg.max_traj <= 10
            assert cfg.max_len <= cfg.n


@st.composite
def gen_configs(draw):
    n = draw(st.integers(1, 10))
    return GenConfig(
        n=n,
        edge_prob=draw(st.floats(0.0, 1.0)),
        max_traj=draw(st.integers(0, 20)),
        max_len=draw(st.integers(0, n)),
        allow_duplicates=draw(st.booleans()),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


class TestTrustedConstruction:
    # The generators skip validation; their output must pass it unchanged.
    @settings(max_examples=200, deadline=None)
    @given(gen_configs(), st.sampled_from((gen_dataset, gen_fully_utilized)))
    def test_output_survives_the_validating_constructors(self, cfg, generate):
        d = generate(cfg)
        g = d.graph
        rebuilt = Dataset(
            Graph(g.labels, g.edges), tuple(Trajectory(t.nodes) for t in d.trajectories)
        )
        assert rebuilt == d
        assert hash(rebuilt) == hash(d)
        assert type(g.labels) is tuple and type(g.edges) is frozenset
        assert type(d.trajectories) is tuple
        assert all(type(t.nodes) is tuple for t in d.trajectories)

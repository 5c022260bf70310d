"""Acceptance criteria, one test per criterion.

Each test prints a single ACCEPTANCE <name>: PASS/FAIL line (visible with
pytest -s) and enforces its stated runtime budget where one exists.  All
equality checks are exact integer comparisons; there are no tolerances
anywhere.
"""

import json
import time
from contextlib import contextmanager

from netmat import (
    Dataset,
    GenConfig,
    IdentityClass,
    Trajectory,
    audit_dataset,
    build_structure,
    build_utilization,
    evaluate_identity,
    ew_add,
    gen_digraph,
    gen_fully_utilized,
    get_identity,
    hadamard,
    sweep_configs,
    gen_dataset,
)
from netmat.cli import main
from netmat.fileio import matrix_from_csv

from oracles import (
    alternative_route_matrix,
    floyd_warshall_distance_matrix,
    substitute_route_matrix,
)

GRAPH_TEXT = "nodes: A B C D\nA B\nB C\nB D\nC D\n"
TRAJ_TEXT = "A B C D\n"

SWEEP_COUNT = 1000
SWEEP_SEED = 20240917


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _sweep_datasets():
    for cfg in sweep_configs(SWEEP_COUNT, base_seed=SWEEP_SEED, max_n=12, max_traj=50):
        yield gen_dataset(cfg)


def test_fixture_reproduction(tmp_path):
    with criterion("fixture-reproduction"):
        graph = tmp_path / "graph.txt"
        graph.write_text(GRAPH_TEXT)
        traj = tmp_path / "traj.txt"
        traj.write_text(TRAJ_TEXT)
        comp = tmp_path / "comp"
        aud = tmp_path / "aud"

        start = time.perf_counter()
        assert main(["compute", "--graph", str(graph), "--trajectories", str(traj), "--out", str(comp), "--quiet"]) == 0
        assert main(["audit", "--graph", str(graph), "--trajectories", str(traj), "--out", str(aud), "--quiet"]) == 0
        elapsed = time.perf_counter() - start

        t, labels = matrix_from_csv((comp / "T.csv").read_text())
        b, d = labels.index("B"), labels.index("D")
        assert t[b, d] == 1
        l, _ = matrix_from_csv((comp / "L.csv").read_text())
        assert l[b, d] == 1
        ehat, _ = matrix_from_csv((comp / "Ehat.csv").read_text())
        assert ehat[b, d] == 0

        report = json.loads((aud / "audit_report.json").read_text())
        x = next(v for v in report["verdicts"] if v["id"] == "X.EHAT_L_NEQ_L")
        assert x["holds"] is False
        assert (x["witness"]["row_label"], x["witness"]["col_label"]) == ("B", "D")
        assert (x["witness"]["lhs"], x["witness"]["rhs"]) == (0, 1)

        assert elapsed < 1.0, f"fixture run took {elapsed:.3f}s"


def test_soundness_sweep():
    with criterion("soundness-sweep"):
        gated = (IdentityClass.UNIVERSAL, IdentityClass.MUTUAL_EXCLUSIVITY)
        start = time.perf_counter()
        audited = 0
        for dataset in _sweep_datasets():
            report = audit_dataset(dataset)
            for verdict in report.verdicts:
                if get_identity(verdict.id).kind in gated:
                    assert verdict.holds, (verdict, dataset.graph)
            audited += 1
        elapsed = time.perf_counter() - start
        assert audited >= 1000
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_fully_utilized_conditionality():
    with criterion("fully-utilized-conditionality"):
        covered = 0
        for cfg in sweep_configs(200, base_seed=77, max_n=10, max_traj=10):
            report = audit_dataset(gen_fully_utilized(cfg))
            assert report.fully_utilized
            for verdict in report.verdicts:
                if get_identity(verdict.id).kind is IdentityClass.FULLY_UTILIZED_ONLY:
                    assert verdict.holds, verdict
            covered += 1
        assert covered >= 200

        # Edge-cover construction minus one deliberately uncovered edge.
        spec = get_identity("FU.FHAT_EQ_A")
        uncovered = 0
        seed = 0
        while uncovered < 200:
            seed += 1
            g = gen_digraph(GenConfig(n=6, edge_prob=0.5, max_traj=0, max_len=6, seed=seed))
            edges = sorted(g.edges)
            if not edges:
                continue
            victim = edges[seed % len(edges)]
            trajectories = tuple(Trajectory(e) for e in edges if e != victim)
            dataset = Dataset(g, trajectories)
            s = build_structure(g)
            u = build_utilization(dataset, s)
            assert not evaluate_identity(spec, s, u).holds
            uncovered += 1


def test_oracle_equivalence():
    with criterion("oracle-equivalence"):
        checked = 0
        for dataset in _sweep_datasets():
            s = build_structure(dataset.graph)
            assert s.P == floyd_warshall_distance_matrix(s.A)
            u = build_utilization(dataset, s)
            assert alternative_route_matrix(dataset, s) == hadamard(s.A, u.L)
            assert substitute_route_matrix(dataset, s) == hadamard(s.Ehat, u.D)
            checked += 1
        assert checked >= 1000


def test_decomposition_exactness():
    with criterion("decomposition-exactness"):
        checked = 0
        for dataset in _sweep_datasets():
            s = build_structure(dataset.graph)
            u = build_utilization(dataset, s)
            assert u.D == ew_add(u.F, ew_add(u.T, u.Tc))
            assert u.L == ew_add(u.T, u.Tc)
            checked += 1
        assert checked >= 1000


def test_audit_discrimination(tmp_path):
    with criterion("audit-discrimination"):
        for ident in ("CLAIMED.D_TC", "CLAIMED.L_TC"):
            out = tmp_path / ident
            assert main(["hunt", ident, "--budget", "1000", "--seed", "5", "--out", str(out), "--quiet"]) == 0
            report = json.loads((out / "hunt_report.json").read_text())
            assert report["found"] is True, ident
            witness = report["witness"]
            # Expected inflation pattern: at the witness cell the count-level
            # left operand squares the substitute-route count.
            assert witness["rhs"] >= 2
            assert witness["lhs"] == witness["rhs"] ** 2

        for ident in ("B.DHAT_TC", "B.LHAT_TC"):
            out = tmp_path / ident
            assert main(["hunt", ident, "--budget", "1000", "--seed", "5", "--out", str(out), "--quiet"]) == 0
            report = json.loads((out / "hunt_report.json").read_text())
            assert report["found"] is False, ident


def test_determinism(tmp_path):
    with criterion("determinism"):
        graph = tmp_path / "graph.txt"
        graph.write_text(GRAPH_TEXT)
        traj = tmp_path / "traj.txt"
        traj.write_text(TRAJ_TEXT)

        def snapshot(directory):
            return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

        runs = {
            "gen": ["gen", "--n", "7", "--edge-prob", "0.45", "--max-traj", "9",
                    "--seed", "13", "--quiet"],
            "audit": ["audit", "--graph", str(graph), "--trajectories", str(traj), "--quiet"],
            "hunt": ["hunt", "X.EHAT_L_NEQ_L", "--budget", "500", "--seed", "13", "--quiet"],
        }
        for name, args in runs.items():
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) in (0, 1)
            first = snapshot(out)
            assert main(args + ["--out", str(out)]) in (0, 1)
            second = snapshot(out)
            assert first == second, f"{name} output changed between identical runs"

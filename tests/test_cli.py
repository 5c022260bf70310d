import hashlib
import json
import sys

import pytest

from netmat import INF, Dataset, audit_dataset, gen_dataset
from netmat import utilization
from netmat.cli import main
from netmat.fileio import load_graph, load_trajectories, matrix_from_csv
from netmat.generators import GenConfig
from netmat.identities import SYMBOLS, report_to_json_obj

GRAPH_TEXT = "nodes: A B C D\nA B\nB C\nB D\nC D\n"
TRAJ_TEXT = "A B C D\n"


@pytest.fixture
def fixture_files(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text(GRAPH_TEXT)
    traj = tmp_path / "traj.txt"
    traj.write_text(TRAJ_TEXT)
    return graph, traj


def _read_all_bytes(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


class TestCompute:
    def test_writes_matrices_summary_manifest(self, fixture_files, tmp_path, capsys):
        graph, traj = fixture_files
        out = tmp_path / "out"
        assert main(["compute", "--graph", str(graph), "--trajectories", str(traj), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        expected = {
            f"{m}.csv"
            for m in (
                "A P Phat E Ehat F D L T Tc Fhat Dhat Lhat That Tchat".split()
            )
        } | {"summary.json", "run_manifest.json"}
        assert names == expected
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {
            "n": 4,
            "edge_count": 4,
            "trajectory_count": 1,
            "fully_utilized": False,
        }
        p, labels = matrix_from_csv((out / "P.csv").read_text())
        assert labels == ("A", "B", "C", "D")
        assert p[1, 0] is INF
        t, _ = matrix_from_csv((out / "T.csv").read_text())
        assert t[1, 3] == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "compute"
        assert "summary.json" in manifest["files"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_file_per_symbol(self, fixture_files, tmp_path, fmt):
        graph, traj = fixture_files
        out = tmp_path / "out"
        assert main([
            "compute", "--graph", str(graph), "--trajectories", str(traj),
            "--out", str(out), "--format", fmt, "--quiet",
        ]) == 0
        matrices = {p.name for p in out.iterdir()} - {"summary.json", "run_manifest.json"}
        assert matrices == {f"{symbol}.{fmt}" for symbol in SYMBOLS if symbol != "0"}

    def test_json_format(self, fixture_files, tmp_path):
        graph, traj = fixture_files
        out = tmp_path / "outj"
        assert main([
            "compute", "--graph", str(graph), "--trajectories", str(traj),
            "--out", str(out), "--format", "json", "--quiet",
        ]) == 0
        obj = json.loads((out / "P.json").read_text())
        assert obj["cells"][1][0] is None  # INF as null

    def test_missing_edge_reports_line_and_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(GRAPH_TEXT)
        traj = tmp_path / "t.txt"
        traj.write_text("A B\nA C\n")
        code = main(["compute", "--graph", str(graph), "--trajectories", str(traj), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "MissingEdge" in err and ":2:" in err

    @pytest.mark.parametrize("command", ["compute", "audit"])
    def test_validates_each_trajectory_once(self, tmp_path, monkeypatch, command):
        original = utilization.validate_trajectory
        calls = []

        def counting(t, g):
            calls.append(t)
            original(t, g)

        for name, module in list(sys.modules.items()):
            if name.startswith("netmat") and getattr(module, "validate_trajectory", None) is original:
                monkeypatch.setattr(module, "validate_trajectory", counting)
        graph = tmp_path / "g.txt"
        graph.write_text(GRAPH_TEXT)
        traj = tmp_path / "t.txt"
        traj.write_text("A B C D\nB D\n")
        argv = [command, "--graph", str(graph), "--trajectories", str(traj), "--quiet"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 2

    def test_empty_trajectory_file(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(GRAPH_TEXT)
        traj = tmp_path / "t.txt"
        traj.write_text("")
        out = tmp_path / "o"
        assert main(["compute", "--graph", str(graph), "--trajectories", str(traj), "--out", str(out), "--quiet"]) == 0
        f, _ = matrix_from_csv((out / "F.csv").read_text())
        assert all(v == 0 for row in f.cells for v in row)

    def test_corrupted_graph_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("a b c d\n")
        traj = tmp_path / "t.txt"
        traj.write_text("")
        assert main(["compute", "--graph", str(graph), "--trajectories", str(traj), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err


class TestAudit:
    def test_fixture_audit_exits_0_and_reports_known_false(self, fixture_files, tmp_path, capsys):
        graph, traj = fixture_files
        out = tmp_path / "aud"
        assert main(["audit", "--graph", str(graph), "--trajectories", str(traj), "--out", str(out)]) == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["sound"] is True
        assert report["fully_utilized"] is False
        x = next(v for v in report["verdicts"] if v["id"] == "X.EHAT_L_NEQ_L")
        assert x["holds"] is False
        assert x["witness"]["row_label"] == "B" and x["witness"]["col_label"] == "D"
        assert x["witness"]["lhs"] == 0 and x["witness"]["rhs"] == 1
        table = capsys.readouterr().out
        assert "X.EHAT_L_NEQ_L" in table and "FAILS" in table

    def test_soundness_failure_exits_1(self, fixture_files, tmp_path, monkeypatch):
        import netmat.cli as cli
        from netmat.identities import AuditReport, IdentityVerdict, Witness

        def fake_audit(dataset, name=""):
            return AuditReport(
                {"name": name, "n": 1, "labels": ["a"], "edge_count": 0, "trajectory_count": 0},
                (IdentityVerdict("ME.A_EHAT", False, Witness(0, 0, 1, 0)),),
                False,
            )

        monkeypatch.setattr(cli, "audit_dataset", fake_audit)
        graph, traj = fixture_files
        assert main(["audit", "--graph", str(graph), "--trajectories", str(traj), "--out", str(tmp_path / "a"), "--quiet"]) == 1

    def test_fully_utilized_input_reports_fu_specs_holding(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen", "--n", "6", "--edge-prob", "0.5", "--seed", "3", "--fully-utilized", "--out", str(out), "--quiet"]) == 0
        aud = tmp_path / "aud"
        assert main([
            "audit", "--graph", str(out / "graph.txt"),
            "--trajectories", str(out / "trajectories.txt"), "--out", str(aud), "--quiet",
        ]) == 0
        report = json.loads((aud / "audit_report.json").read_text())
        assert report["fully_utilized"] is True
        fu = [v for v in report["verdicts"] if v["class"] == "FULLY_UTILIZED_ONLY"]
        assert fu and all(v["holds"] for v in fu)


class TestGen:
    def test_deterministic_per_seed(self, tmp_path):
        args = ["gen", "--n", "6", "--edge-prob", "0.4", "--seed", "7", "--quiet"]
        out1 = tmp_path / "g1"
        out2 = tmp_path / "g2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("graph.txt", "trajectories.txt", "gen_config.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_round_trip_matches_in_memory_dataset(self, tmp_path):
        cfg = GenConfig(n=5, edge_prob=0.5, max_traj=8, max_len=5, seed=11)
        expected = gen_dataset(cfg)
        out = tmp_path / "g"
        assert main([
            "gen", "--n", "5", "--edge-prob", "0.5", "--max-traj", "8",
            "--max-len", "5", "--seed", "11", "--out", str(out), "--quiet",
        ]) == 0
        graph = load_graph(out / "graph.txt")
        trajectories = load_trajectories(out / "trajectories.txt", graph)
        assert Dataset(graph, trajectories) == expected

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 4, "edge_prob": 0.5, "max_traj": 3, "max_len": 4, "seed": 5}))
        out1 = tmp_path / "o1"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out1), "--quiet"]) == 0
        written = json.loads((out1 / "gen_config.json").read_text())
        assert written["n"] == 4 and written["seed"] == 5
        out2 = tmp_path / "o2"
        assert main(["gen", "--config", str(cfg_path), "--seed", "9", "--out", str(out2), "--quiet"]) == 0
        assert json.loads((out2 / "gen_config.json").read_text())["seed"] == 9

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"nodes": 4}))
        assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"n": "6"}, 'config field n must be an integer, got "6"'),
            ({"edge_prob": "x"}, 'config field edge_prob must be a number, got "x"'),
            ({"allow_duplicates": 1}, "config field allow_duplicates must be true or false, got 1"),
        ],
    )
    def test_wrong_typed_config_field_exits_2(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg_path}: {message}\n"
        assert not out.exists()

    def test_invalid_n_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--n", "0", "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    # sha256 of graph.txt + trajectories.txt written by gen --fully-utilized,
    # pinned from the output of an earlier release.
    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--n", "7", "--edge-prob", "0.35", "--max-traj", "30", "--max-len", "5",
                 "--no-allow-duplicates", "--seed", "5"],
                "1193788d8273d74e41786145dca1893db310d9064b910d945c0c73343809c3cd",
            ),
            (
                ["--n", "9", "--edge-prob", "0.3", "--max-traj", "40", "--allow-duplicates",
                 "--seed", "11"],
                "7778d3415766f670d6f446b4dfc18ffd63343ffc4cee33a2a558bfbb549ab533",
            ),
        ],
    )
    def test_fully_utilized_output_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "g"
        assert main(["gen", "--fully-utilized", *flags, "--out", str(out), "--quiet"]) == 0
        written = (out / "graph.txt").read_bytes() + (out / "trajectories.txt").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest

    def test_fully_utilized_flag(self, tmp_path):
        out = tmp_path / "g"
        assert main(["gen", "--n", "5", "--edge-prob", "0.6", "--seed", "2", "--fully-utilized", "--out", str(out), "--quiet"]) == 0
        graph = load_graph(out / "graph.txt")
        trajectories = load_trajectories(out / "trajectories.txt", graph)
        used = {pair for t in trajectories for pair in zip(t.nodes, t.nodes[1:])}
        assert used >= graph.edges


class TestHunt:
    def test_finds_and_writes_falsifier(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["hunt", "X.EHAT_L_NEQ_L", "--budget", "1000", "--seed", "3", "--out", str(out)]) == 0
        assert "counterexample found" in capsys.readouterr().out
        report = json.loads((out / "hunt_report.json").read_text())
        assert report["found"] is True
        assert report["witness"]["lhs"] == 0 and report["witness"]["rhs"] >= 1
        graph = load_graph(out / "graph.txt")
        trajectories = load_trajectories(out / "trajectories.txt", graph)
        assert trajectories  # falsifier dataset is replayable

    @pytest.mark.parametrize(
        "identity, seed", [("X.EHAT_L_NEQ_L", "3"), ("CLAIMED.D_TC", "0")]
    )
    def test_witness_matches_audit_report(self, tmp_path, identity, seed):
        out = tmp_path / "h"
        assert main(["hunt", identity, "--seed", seed, "--out", str(out), "--quiet"]) == 0
        witness = json.loads((out / "hunt_report.json").read_text())["witness"]
        graph = load_graph(out / "graph.txt")
        found = Dataset(graph, load_trajectories(out / "trajectories.txt", graph))
        verdicts = report_to_json_obj(audit_dataset(found))["verdicts"]
        assert witness is not None
        assert witness == next(v["witness"] for v in verdicts if v["id"] == identity)

    def test_sound_identity_reports_none(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["hunt", "ME.A_EHAT", "--budget", "200", "--seed", "3", "--out", str(out)]) == 0
        assert "no counterexample found" in capsys.readouterr().out
        report = json.loads((out / "hunt_report.json").read_text())
        assert report["found"] is False and report["witness"] is None
        assert not (out / "graph.txt").exists()

    def test_unknown_identity_exits_2(self, tmp_path, capsys):
        assert main(["hunt", "NO_SUCH_ID", "--out", str(tmp_path / "h")]) == 2
        assert "no catalogued identity" in capsys.readouterr().err

    def test_negative_budget_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["hunt", "B.DHAT_TC", "--budget", "-5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: budget must be nonnegative")
        assert not out.exists()


class TestManifest:
    def test_manifest_lists_emitted_files(self, fixture_files, tmp_path):
        graph, traj = fixture_files
        out = tmp_path / "aud"
        main(["audit", "--graph", str(graph), "--trajectories", str(traj), "--out", str(out), "--quiet"])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["files"] == ["audit_report.json"]
        assert manifest["inputs"] == [str(graph), str(traj)]
        assert manifest["tool"] == "netmat"

import dataclasses
import hashlib
import json
import sys

import pytest

from netmat import INF, Dataset, audit_dataset, gen_dataset
from netmat import cli, utilization
from netmat.cli import main
from netmat.fileio import load_graph, load_trajectories
from netmat.generators import GenConfig
from netmat.identities import SYMBOLS, report_to_json_obj

from oracles import matrix_from_csv

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
        # A valid line is checked once, by the reader's whole-line tests:
        # neither the Trajectory constructor nor validate_trajectory runs
        # between the file and the bundle.  A faulty line runs the two once,
        # to name its fault.
        calls = []
        post_init = utilization.Trajectory.__post_init__
        original = utilization.validate_trajectory

        def constructing(t):
            calls.append("Trajectory")
            post_init(t)

        def validating(t, g):
            calls.append("validate_trajectory")
            original(t, g)

        monkeypatch.setattr(utilization.Trajectory, "__post_init__", constructing)
        for name, module in list(sys.modules.items()):
            if name.startswith("netmat") and getattr(module, "validate_trajectory", None) is original:
                monkeypatch.setattr(module, "validate_trajectory", validating)
        graph = tmp_path / "g.txt"
        graph.write_text(GRAPH_TEXT)
        traj = tmp_path / "t.txt"
        argv = [command, "--graph", str(graph), "--trajectories", str(traj), "--quiet"]
        traj.write_text("A B C D\nB D\n")
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert calls == []
        traj.write_text("A B C D\nA C\nB D\n")
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 2
        assert calls == ["Trajectory", "validate_trajectory"]

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


class TestNotUtf8:
    @pytest.mark.parametrize("bad", ["graph", "trajectories", "config"])
    def test_exits_2_naming_the_file(self, fixture_files, tmp_path, capsys, bad):
        graph, traj = fixture_files
        config = tmp_path / "cfg.json"
        config.write_text('{"n": 4}')
        path = {"graph": graph, "trajectories": traj, "config": config}[bad]
        good = path.read_bytes()
        path.write_bytes(good + b"\xff")
        if bad == "config":
            argv = ["gen", "--config", str(config)]
        else:
            argv = ["audit", "--graph", str(graph), "--trajectories", str(traj)]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: not UTF-8 text: invalid start byte at byte {len(good)}\n"
        assert not out.exists()


class TestByteOrderMark:
    @pytest.mark.parametrize("marked", ["graph", "trajectories"])
    def test_is_not_part_of_the_first_label(self, fixture_files, tmp_path, marked):
        graph, traj = fixture_files
        argv = ["compute", "--graph", str(graph), "--trajectories", str(traj), "--quiet"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        path = {"graph": graph, "trajectories": traj}[marked]
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(argv + ["--out", str(tmp_path / "marked")]) == 0
        plain = _read_all_bytes(tmp_path / "plain")
        del plain["run_manifest.json"]
        assert plain.items() <= _read_all_bytes(tmp_path / "marked").items()


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
        from netmat.identities import AuditReport, IdentityVerdict, Witness, get_identity

        def fake_audit(dataset, name=""):
            return AuditReport(
                {"name": name, "n": 1, "labels": ["a"], "edge_count": 0, "trajectory_count": 0},
                (IdentityVerdict(get_identity("ME.A_EHAT"), False, Witness(0, 0, 1, 0)),),
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

    def test_config_table_names_every_gen_config_field_in_order(self):
        assert list(cli._GEN_FIELDS) == [f.name for f in dataclasses.fields(GenConfig)]

    @staticmethod
    def _gen_with_seed(tmp_path, source, seed):
        out = tmp_path / "o"
        if source == "flag":
            return main(["gen", "--n", "4", "--seed", str(seed), "--out", str(out), "--quiet"]), out
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 4, "seed": seed}))
        return main(["gen", "--config", str(cfg_path), "--out", str(out), "--quiet"]), out

    # Seeds are reduced mod 2**64, so one outside that range would write the
    # dataset of a seed inside it under a different recorded seed.
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2_without_output(self, tmp_path, capsys, source, seed):
        rc, out = self._gen_with_seed(tmp_path, source, seed)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: seed must be between 0 and 2**64 - 1, got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_ends_of_64_bits_is_written(self, tmp_path, source, seed):
        rc, out = self._gen_with_seed(tmp_path, source, seed)
        assert rc == 0
        assert json.loads((out / "gen_config.json").read_text())["seed"] == seed

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

    # sha256 of hunt_report.json, graph.txt and trajectories.txt for each
    # id that falls at --budget 100 --seed 0, pinned from an earlier release:
    # the search and the shrinker must keep finding the same minimized
    # datasets.
    HUNT_FILES = ("hunt_report.json", "graph.txt", "trajectories.txt")
    HUNT_DIGESTS = {
        "CLAIMED.D_TC": (
            "4bab40fbb1f89c1e20f9d921af8462e114554de4ba6b007b1f46b52e5aa936d1",
            "7d4ffa0e89d2922f92c6eae4894a9ad19603c8065cae5d4c045d281d507c6061",
            "9218fee952abc69b998cf99342bcd171982e64568abd74a0af52a15697039aaa",
        ),
        "CLAIMED.L_TC": (
            "044a9a29a2604f61266dcee78abb0f999862a19a162a1803a239f4a71364e3a7",
            "7d4ffa0e89d2922f92c6eae4894a9ad19603c8065cae5d4c045d281d507c6061",
            "9218fee952abc69b998cf99342bcd171982e64568abd74a0af52a15697039aaa",
        ),
        "FU.DHAT_EQ_PHAT": (
            "256fb6ae790aa9f4a114cf12ba0be393a9a9e4807b76a14f02d417bd94274061",
            "d41edcc6a094b876d9d5ba355016b9e3bd3d702c697afdf2f1e16dbe76d72dc1",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        "FU.FHAT_EQ_A": (
            "6eb4d4beb8dabcc582ab3efb27320f106ffc44d98198e4ff84e70ef842e64822",
            "d41edcc6a094b876d9d5ba355016b9e3bd3d702c697afdf2f1e16dbe76d72dc1",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        "X.EHAT_L_NEQ_L": (
            "4c79e0cce660a952aa082ea457c2a0d41eaabb996468716f8f102779f2bd3234",
            "857d68ad63e42ca29720821616748e654a16e22070ca0a6c07274b0e2727f03e",
            "1ba09550c8a39d72e13e1aefd59cb5ccd639ad8d737cd8c4b93149d4b87d3333",
        ),
    }

    @pytest.mark.parametrize("identity", sorted(HUNT_DIGESTS))
    def test_hunt_outputs_pinned(self, tmp_path, identity):
        out = tmp_path / "h"
        argv = ["hunt", identity, "--budget", "100", "--seed", "0", "--out", str(out), "--quiet"]
        assert main(argv) == 0
        digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in self.HUNT_FILES)
        assert digests == self.HUNT_DIGESTS[identity]

    def test_unknown_identity_exits_2(self, tmp_path, capsys):
        assert main(["hunt", "NO_SUCH_ID", "--out", str(tmp_path / "h")]) == 2
        assert "no catalogued identity" in capsys.readouterr().err

    def test_negative_budget_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["hunt", "B.DHAT_TC", "--budget", "-5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: budget must be nonnegative")
        assert not out.exists()

    def test_negative_seed_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["hunt", "X.EHAT_L_NEQ_L", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
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

    @pytest.mark.parametrize("command", ["compute", "audit"])
    def test_seedless_commands_record_null_seed(self, fixture_files, tmp_path, command):
        graph, traj = fixture_files
        out = tmp_path / command
        argv = [command, "--graph", str(graph), "--trajectories", str(traj), "--out", str(out)]
        main([*argv, "--quiet"])
        assert json.loads((out / "run_manifest.json").read_text())["seed"] is None


class TestDroppedFlags:
    """--format belongs to compute and --seed to gen and hunt; any other
    command rejects them as unknown arguments, before writing anything,
    through its own parser: its usage line and its name in the error.  A
    flag before the command is the top-level parser's to reject."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("audit", ["--format", "csv"]),
            ("gen", ["--format", "json"]),
            ("hunt", ["--format", "json"]),
            ("compute", ["--seed", "1"]),
            ("audit", ["--seed", "1"]),
        ],
    )
    def test_exits_2(self, fixture_files, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, *_operands(fixture_files, command), *flag, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: netmat {command} [-h]")
        assert err.endswith(f"netmat {command}: error: unrecognized arguments: {' '.join(flag)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compute", "audit", "gen", "hunt"])
    def test_unknown_flag_before_the_command_is_named_at_top_level(
        self, fixture_files, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--bogus", command, *_operands(fixture_files, command), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: netmat [-h] [--version] {compute,audit,gen,hunt}")
        assert err.endswith("\nnetmat: error: unrecognized arguments: --bogus\n")
        assert not out.exists()


# Integer flags take only an optional '-' and ASCII digits; int() alone
# would read these as 10, 5 and 3.
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "1_0"],
        ["gen", "--seed", "٣"],
        ["hunt", "T1.F_MASKED", "--budget", "+5"],
    ],
    ids=["n-1_0", "seed-arabic-indic", "budget-plus"],
)
def test_int_flag_spelled_as_netmat_never_writes_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    flag, value = argv[-2:]
    err = capsys.readouterr().err
    assert err.endswith(f": error: argument {flag}: invalid int value: {value!r}\n")
    assert err.count("error:") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "value", ["٠.٥", "0_0.5", " 0.5", "0.5 ", "+0.5", ".5", "inf", "nan", "0x1p-1"]
)
def test_edge_prob_spelled_as_netmat_never_writes_exits_2(tmp_path, capsys, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "4", "--edge-prob", value, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f": error: argument --edge-prob: invalid float value: {value!r}\n")
    assert err.count("error:") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.4", "1e-05", "1", "0", "0.30000000000000004"])
def test_edge_prob_spelled_as_repr_parses(tmp_path, value):
    out = tmp_path / "out"
    assert main(["gen", "--n", "4", "--edge-prob", value, "--out", str(out), "--quiet"]) == 0
    written = json.loads((out / "gen_config.json").read_text(encoding="utf-8"))
    assert written["edge_prob"] == float(value)


def _operands(fixture_files, command):
    # Arguments that make a valid run of command on the fixture files.
    graph, traj = fixture_files
    return {
        "compute": ["--graph", str(graph), "--trajectories", str(traj)],
        "audit": ["--graph", str(graph), "--trajectories", str(traj)],
        "gen": [],
        "hunt": ["ME.A_EHAT", "--budget", "1"],
    }[command]


class TestParserReuse:
    """main parses every call with the one parser built at import, so no
    value of one call may leak into the next."""

    def test_hunt_flags_do_not_leak(self, tmp_path):
        first, second = tmp_path / "h1", tmp_path / "h2"
        argv = ["hunt", "ME.A_EHAT", "--budget", "3", "--quiet", "--out"]
        assert main([*argv, str(first), "--no-allow-duplicates", "--seed", "4"]) == 0
        assert main([*argv, str(second)]) == 0
        report = json.loads((first / "hunt_report.json").read_text())
        assert (report["allow_duplicates"], report["seed"]) == (False, 4)
        report = json.loads((second / "hunt_report.json").read_text())
        assert (report["allow_duplicates"], report["seed"]) == (True, 0)

    def test_gen_flags_do_not_leak(self, tmp_path):
        first, second = tmp_path / "g1", tmp_path / "g2"
        assert main(["gen", "--n", "4", "--quiet", "--out", str(first)]) == 0
        assert main(["gen", "--quiet", "--out", str(second)]) == 0
        assert json.loads((first / "gen_config.json").read_text())["n"] == 4
        assert json.loads((second / "gen_config.json").read_text())["n"] == 6
        assert load_graph(second / "graph.txt").n == 6

    def test_exits_do_not_break_later_calls(self, fixture_files, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.startswith("netmat ")
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--no-such-flag"])
        assert exc.value.code == 2
        graph, traj = fixture_files
        argv = ["compute", "--graph", str(graph), "--trajectories", str(traj), "--quiet"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "P.csv").is_file()

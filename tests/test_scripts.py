import importlib.util
import shlex
import sys
from pathlib import Path

import pytest

from netmat import gen_dataset, get_identity, sweep_configs
from netmat.cli import main
from netmat.fileio import graph_to_text, trajectories_to_text
from netmat.identities import IdentityVerdict, Witness

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load("run_soundness_sweep")
hunt = _load("run_identity_hunt")


@pytest.mark.parametrize("index", range(8))
def test_replay_command_regenerates_sweep_dataset(tmp_path, index):
    duplicates = index % 2 == 0
    cfg = list(sweep_configs(8, base_seed=5, allow_duplicates=duplicates))[index]
    argv = shlex.split(sweep.replay_command(cfg))
    assert argv[:2] == ["netmat", "gen"]
    out = tmp_path / "replay"
    assert main([*argv[1:], "--out", str(out), "--quiet"]) == 0
    d = gen_dataset(cfg)
    assert (out / "graph.txt").read_text() == graph_to_text(d.graph)
    assert (out / "trajectories.txt").read_text() == trajectories_to_text(
        d.trajectories, d.graph.labels
    )


def test_sweep_prints_labelled_witness_and_replay(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_soundness_sweep.py", "--count", "5"])
    assert sweep.main() == 0
    out = capsys.readouterr().out
    assert "witness (v" in out and "Witness(" not in out
    assert "    replay: netmat gen --n " in out


def test_hunt_exits_1_when_a_universal_id_falls(monkeypatch, capsys, shortcut_dataset):
    # B.DHAT_TC is universal; a search that reports a falsifier for it
    # stands in for a soundness bug in the library.
    spec = get_identity("B.DHAT_TC")
    monkeypatch.setattr(hunt, "search_counterexample", lambda *a, **k: shortcut_dataset)
    monkeypatch.setattr(
        hunt,
        "evaluate_on_dataset",
        lambda s, d: IdentityVerdict(s, False, Witness(1, 3, 1, 0)),
    )
    monkeypatch.setattr(sys, "argv", ["run_identity_hunt.py", "--budget", "1", spec.id])
    assert hunt.main() == 1
    out = capsys.readouterr().out
    assert "B.DHAT_TC         UNIVERSAL            FALSIFIED at (B, D): lhs=1 rhs=0" in out
    assert "SOUNDNESS VIOLATED: falsified B.DHAT_TC" in out


def test_hunt_exits_0_when_only_known_false_ids_fall(monkeypatch, capsys):
    argv = ["run_identity_hunt.py", "--budget", "100", "X.EHAT_L_NEQ_L", "B.DHAT_TC"]
    monkeypatch.setattr(sys, "argv", argv)
    assert hunt.main() == 0
    out = capsys.readouterr().out
    assert "X.EHAT_L_NEQ_L    NEGATIVE             FALSIFIED at " in out
    assert "B.DHAT_TC         UNIVERSAL            survived 100 instances" in out
    assert "SOUNDNESS VIOLATED" not in out


# random.Random(-1) draws what random.Random(1) draws, so a negative seed is
# refused like the flags that would end in a traceback or a wrong report,
# like an id the catalogue does not hold and like an integer spelled in a
# way netmat never writes.
@pytest.mark.parametrize(
    "script, argv, message",
    [
        pytest.param(
            sweep, ["--seed", "-1"], "--seed must be nonnegative, got -1", id="run_soundness_sweep"
        ),
        pytest.param(
            hunt, ["--seed", "-1"], "--seed must be nonnegative, got -1", id="run_identity_hunt"
        ),
        pytest.param(
            hunt,
            ["T1.F_MASKED", "--budget", "-1"],
            "--budget must be nonnegative, got -1",
            id="budget",
        ),
        pytest.param(sweep, ["--count", "-5"], "--count must be nonnegative, got -5", id="count"),
        pytest.param(
            sweep, ["--count", "3", "--max-n", "0"], "--max-n must be at least 1, got 0", id="max-n"
        ),
        pytest.param(
            sweep,
            ["--count", "3", "--max-traj", "-1"],
            "--max-traj must be nonnegative, got -1",
            id="max-traj",
        ),
        pytest.param(hunt, ["T1.F_MASKED", "NOPE"], "unknown ids: NOPE", id="unknown-id"),
        # Integer flags take only an optional '-' and ASCII digits.
        pytest.param(
            sweep, ["--count", "1_0"], "argument --count: invalid int value: '1_0'", id="count-1_0"
        ),
        pytest.param(
            hunt,
            ["T1.F_MASKED", "--budget", "+5"],
            "argument --budget: invalid int value: '+5'",
            id="budget-plus",
        ),
        pytest.param(
            sweep, ["--seed", "٣"], "argument --seed: invalid int value: '٣'", id="seed-arabic-indic"
        ),
    ],
)
def test_negative_seed_exits_2(monkeypatch, capsys, script, argv, message):
    monkeypatch.setattr(sys, "argv", [Path(script.__file__).name, *argv])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: {message}")

import importlib.util
import shlex
import sys
from pathlib import Path

import pytest

from netmat import gen_dataset, sweep_configs
from netmat.cli import main
from netmat.fileio import graph_to_text, trajectories_to_text

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load("run_soundness_sweep")


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

"""The package's public names and the README's library example."""

import contextlib
import io
import re
from pathlib import Path

import netmat

PUBLIC = (
    "__version__",
    "INF",
    "NetmatError",
    "ParseError",
    "UndefinedProduct",
    "InfiniteOperand",
    "NegativeResult",
    "Graph",
    "Trajectory",
    "Dataset",
    "build_structure",
    "build_utilization",
    "audit_dataset",
    "evaluate_identity",
    "catalogue_to_json",
    "list_identities",
    "get_identity",
    "gen_dataset",
    "sweep_configs",
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_documented_surface():
    assert sorted(netmat.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(netmat, name), name


def test_readme_library_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "True False\n" + netmat.catalogue_to_json() + "\n"

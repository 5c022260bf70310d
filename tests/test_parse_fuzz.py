"""Every parser of outside input raises ParseError, and nothing else, on any input."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmat import ParseError
from netmat.cli import main
from netmat.fileio import (
    graph_from_text,
    matrix_from_csv,
    matrix_from_json,
    trajectories_from_text,
)
from netmat.identities import SYMBOLS, specs_from_json

from test_cli import GRAPH_TEXT

README_GRAPH = graph_from_text(GRAPH_TEXT)

# Random text, and text assembled from the formats' own tokens so that
# examples get past the first check of each parser.
_TOKENS = ("nodes:", "A", "B", "C", "D", "INF", "0", "1", "-1", "x", " ", ",", "\n", "#", '"')
texts = st.one_of(st.text(), st.lists(st.sampled_from(_TOKENS)).map("".join))

# Random JSON values whose objects are keyed by the matrix and catalogue
# field names, with leaves drawn partly from the values those fields take.
_KEYS = ("n", "labels", "cells", "id", "class", "relation", "lhs", "rhs", "group")
_WORDS = SYMBOLS + ("had", "add", "sub", "eq", "leq", "UNIVERSAL", "NEGATIVE", "INF")
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
    | st.sampled_from(_WORDS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), children, max_size=6),
    max_leaves=30,
)


def _parse_or_parse_error(parse, *args):
    try:
        parse(*args)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(texts)
def test_text_parsers_raise_only_parse_error(text):
    _parse_or_parse_error(graph_from_text, text)
    _parse_or_parse_error(trajectories_from_text, text, README_GRAPH)
    _parse_or_parse_error(matrix_from_csv, text)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_parsers_raise_only_parse_error(value):
    text = json.dumps(value)
    _parse_or_parse_error(matrix_from_json, text)
    _parse_or_parse_error(specs_from_json, text)


DEEP_ARRAY = "[" * 100000


@pytest.mark.parametrize(
    "parse, prefix",
    [(matrix_from_json, "<matrix>: invalid JSON: "), (specs_from_json, "invalid catalogue JSON: ")],
)
def test_deeply_nested_json_is_a_parse_error(parse, prefix):
    with pytest.raises(ParseError) as exc:
        parse(DEEP_ARRAY)
    assert str(exc.value).startswith(prefix)


def test_deeply_nested_gen_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(DEEP_ARRAY)
    out = tmp_path / "o"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: invalid JSON: ")
    assert err.count("\n") == 1
    assert not out.exists()

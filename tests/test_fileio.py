import json
import operator
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmat import INF, Graph, ParseError, Trajectory
from netmat.fileio import (
    graph_from_text,
    graph_to_text,
    matrix_to_csv,
    matrix_to_json_obj,
    trajectories_from_text,
    trajectories_to_text,
)
from netmat.matrices import CountMatrix

from oracles import (
    matrix_from_csv,
    matrix_from_json,
    matrix_from_json_obj,
    matrix_to_csv_rows,
    trajectories_by_token,
    zeros,
)
from test_parse_fuzz import DEEP_ARRAY, json_values, parse_or_parse_error, texts


@st.composite
def labelled_graphs(draw):
    # Labels built from "#" and ":", some behind a "nodes" or "nodes:" prefix.
    prefix = st.sampled_from(("", "nodes", "nodes:"))
    token = st.builds(operator.add, prefix, st.text("ab:#", min_size=1, max_size=3))
    labels = draw(st.lists(token, min_size=1, max_size=4, unique=True))
    index = st.integers(0, len(labels) - 1)
    edges = draw(st.sets(st.tuples(index, index).filter(lambda e: e[0] != e[1])))
    return tuple(labels), edges


class TestGraphFormat:
    def test_round_trip(self, shortcut_graph):
        text = graph_to_text(shortcut_graph)
        assert graph_from_text(text) == shortcut_graph
        assert graph_to_text(graph_from_text(text)) == text

    @example((("a#b", "c"), {(0, 1)}))
    @example((("nodes:x", "y"), {(0, 1)}))
    @given(labelled_graphs())
    def test_every_valid_graph_round_trips(self, graph):
        # A label the text format could not write back is rejected up front.
        labels, edges = graph
        if any("#" in lbl or lbl.startswith("nodes:") for lbl in labels):
            with pytest.raises(ValueError, match="must not contain '#' or start with 'nodes:'"):
                Graph(labels, edges)
            return
        g = Graph(labels, edges)
        assert graph_from_text(graph_to_text(g)) == g

    def test_header_fixes_label_order_and_isolated_nodes(self):
        g = graph_from_text("nodes: z y x\nz x\n")
        assert g.labels == ("z", "y", "x")
        assert g.edges == frozenset({(0, 2)})

    def test_first_appearance_order_without_header(self):
        g = graph_from_text("b a\na c\n")
        assert g.labels == ("b", "a", "c")
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_comments_and_blank_lines_ignored(self):
        g = graph_from_text("# intro\n\nnodes: a b  # trailing\na b\n")
        assert g.labels == ("a", "b")

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            graph_from_text("a b\nb b\n", source="g.txt")
        assert exc.value.line == 2
        assert "self-loop" in str(exc.value)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError):
            graph_from_text("a b\na b\n")

    def test_undeclared_label_with_header_rejected(self):
        with pytest.raises(ParseError):
            graph_from_text("nodes: a b\na c\n")

    def test_malformed_edge_line(self):
        with pytest.raises(ParseError):
            graph_from_text("a b c\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            graph_from_text("# nothing\n")

    @pytest.mark.parametrize("text", ["a nodes:x\n", "nodes: a nodes:x\na nodes:x\n"])
    def test_header_prefixed_label_rejected(self, text):
        with pytest.raises(ParseError) as exc:
            graph_from_text(text, source="g.txt")
        assert str(exc.value) == (
            "g.txt: label 'nodes:x' must not contain '#' or start with 'nodes:'"
        )


class TestTrajectoryFormat:
    def test_round_trip(self, shortcut_graph):
        trajectories = (Trajectory((0, 1, 2, 3)), Trajectory((1, 3)))
        text = trajectories_to_text(trajectories, shortcut_graph.labels)
        assert trajectories_from_text(text, shortcut_graph) == trajectories

    def test_empty_text_gives_no_trajectories(self, shortcut_graph):
        assert trajectories_from_text("", shortcut_graph) == ()
        assert trajectories_to_text((), shortcut_graph.labels) == ""

    def test_unknown_label_reports_line(self, shortcut_graph):
        with pytest.raises(ParseError) as exc:
            trajectories_from_text("A B\nA Q\n", shortcut_graph, source="t.txt")
        assert exc.value.line == 2
        assert "unknown node label" in str(exc.value)

    def test_missing_edge_reports_line_and_kind(self, shortcut_graph):
        with pytest.raises(ParseError) as exc:
            trajectories_from_text("A B\nA C\n", shortcut_graph)
        assert exc.value.line == 2
        assert "MissingEdge" in str(exc.value)

    def test_cycle_reports_kind(self, shortcut_graph):
        with pytest.raises(ParseError) as exc:
            trajectories_from_text("A B C D A\n", shortcut_graph)
        assert "RepeatedNode" in str(exc.value)

    def test_cycle_along_edges_reports_kind(self):
        # Every step of line 2 is an edge, so only the repeat check rejects it.
        g = Graph(("A", "B", "C"), frozenset({(0, 1), (1, 2), (2, 0)}))
        text = "A B\nB C A B\n"
        with pytest.raises(ParseError) as want:
            trajectories_by_token(text, g, "t.txt")
        with pytest.raises(ParseError) as exc:
            trajectories_from_text(text, g, "t.txt")
        assert str(exc.value) == str(want.value)
        assert exc.value.line == 2 and "RepeatedNode" in str(exc.value)

    def test_short_line_reports_kind(self, shortcut_graph):
        with pytest.raises(ParseError) as exc:
            trajectories_from_text("A\n", shortcut_graph)
        assert "TooShort" in str(exc.value)

    # Lines of known and unknown labels and comments on the shortcut graph.
    @given(st.lists(st.sampled_from(("A", "B", "C", "D", "Z", "AB", " ", "\n", "#"))).map("".join))
    @example("A B\nA B Z C\n")
    @example("A B C D\nB D\n")
    @example("A B\nB\n")  # too short
    @example("A B C B\n")  # repeated node
    @example("A B\nA B D\nA C\n")  # missing edge
    @example("A B\nZ A\n")  # unknown label
    @example("# A\nA B # Z\n#\n  \nB D\n")  # comment-only lines
    def test_matches_token_oracle(self, text):
        g = Graph(("A", "B", "C", "D"), frozenset({(0, 1), (1, 2), (2, 3), (1, 3)}))

        def outcome(parse):
            try:
                return parse(text, g, "t.txt")
            except ParseError as e:
                return str(e)

        parsed = outcome(trajectories_from_text)
        if isinstance(parsed, tuple):
            parsed = tuple(t.nodes for t in parsed)
        assert parsed == outcome(trajectories_by_token)


@st.composite
def labelled_matrices(draw):
    # Cells of one matrix from one domain: single digits (the buffer path),
    # counts up to 300 (past one byte) or either with INF.
    n = draw(st.integers(1, 12))
    digits, counts = st.integers(0, 9), st.integers(0, 300)
    cell = draw(st.sampled_from((digits, counts, digits | st.just(INF), counts | st.just(INF))))
    cells = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    # Labels with "," and '"', which the csv module must quote.
    label = st.text(st.sampled_from('ab,"q'), min_size=1, max_size=4)
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    return cells, tuple(labels)


class TestMatrixCsv:
    @example(([[0]], ("a,b",)))
    @example(([[0, INF, INF], [INF, 0, INF], [INF, INF, 0]], ("a,b", 'q"x', "z")))
    @example(([[9, 10], [255, 256]], ("a,b", 'q"x')))
    @example(([[9, 0], [1, 9]], ('q"x', "a,b")))
    @example(([[10]], ("a",)))
    @example(([[255, 0], [0, 256]], ("a", "b")))
    @given(labelled_matrices())
    def test_matches_csv_module_oracle(self, matrix):
        cells, labels = matrix
        m = CountMatrix(cells)
        text = matrix_to_csv(m, labels)
        assert text.encode("utf-8") == matrix_to_csv_rows(m, labels).encode("utf-8")
        assert matrix_from_csv(text) == (m, labels)

    def test_round_trip_with_inf(self):
        m = CountMatrix(((0, 1, INF), (2, 0, 5), (INF, INF, 0)))
        labels = ("a", "b", "c")
        text = matrix_to_csv(m, labels)
        assert "INF" in text
        back, back_labels = matrix_from_csv(text)
        assert back == m and back_labels == labels

    def test_header_layout(self):
        text = matrix_to_csv(CountMatrix(((0, 1), (INF, 0))), ("x", "y"))
        lines = text.splitlines()
        assert lines[0] == ",x,y"
        assert lines[1] == "x,0,1"
        assert lines[2] == "y,INF,0"

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            matrix_to_csv(zeros(2), ("a",))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x,a\n",  # corner not empty
            ",a,b\na,0\nb,0,0\n",  # short row
            ",a,b\nb,0,0\na,0,0\n",  # row labels out of order
            ",a,b\na,0,-1\nb,0,0\n",  # negative
            ",a,b\na,0,oops\nb,0,0\n",  # junk token
            ",a,b\na,0,0\n",  # missing row
        ],
    )
    def test_corrupted_csv_rejected(self, text):
        with pytest.raises(ParseError):
            matrix_from_csv(text)

    # Spellings that matrix_to_csv never writes; int() takes the first four
    # and refuses the last, with a ValueError of its own.
    @pytest.mark.parametrize(
        "token",
        ["+1", "1_0", "٣", "-1", "9" * 5000],
        ids=["plus-sign", "underscore", "arabic-indic-three", "minus-sign", "past-int-digit-limit"],
    )
    def test_cell_the_writer_never_writes_rejected(self, token):
        with pytest.raises(ParseError) as exc:
            matrix_from_csv(f",a,b\na,0,0\nb,0,{token}\n", source="m.csv")
        assert str(exc.value) == f"m.csv:3: bad cell value {token!r}"
        assert exc.value.line == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError, match="duplicate node label 'a'"):
            matrix_from_csv(",a,a\na,0,0\na,0,0\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("a\rb\n", 1),  # bare CR inside the header
            (",a\na,0\rx\n", 2),  # bare CR inside a data row
        ],
    )
    def test_csv_reader_error_is_parse_error(self, text, line):
        with pytest.raises(ParseError, match="malformed CSV") as exc:
            matrix_from_csv(text, source="m.csv")
        assert exc.value.source == "m.csv"
        assert exc.value.line == line

    @settings(max_examples=300, deadline=None)
    @given(texts)
    def test_any_text_raises_only_parse_error(self, text):
        parse_or_parse_error(matrix_from_csv, text)


class TestMatrixJson:
    def test_round_trip_with_null_for_inf(self):
        m = CountMatrix(((0, INF), (3, 0)))
        obj = matrix_to_json_obj(m, ("a", "b"))
        assert obj["cells"][0][1] is None
        back, labels = matrix_from_json_obj(obj)
        assert back == m and labels == ("a", "b")
        back2, _ = matrix_from_json(json.dumps(obj))
        assert back2 == m

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_json_obj({"n": 2, "labels": ["a"], "cells": [[0, 0], [0, 0]]})
        with pytest.raises(ParseError):
            matrix_from_json_obj({"n": 1, "labels": ["a"], "cells": [[0, 0]]})

    def test_bad_cell_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_json_obj({"n": 1, "labels": ["a"], "cells": [["x"]]})

    def test_row_that_is_not_a_list_rejected(self):
        with pytest.raises(ParseError, match="row 5 is not a list"):
            matrix_from_json_obj({"n": 1, "labels": ["a"], "cells": [5]})

    def test_cells_that_are_not_a_list_rejected(self):
        with pytest.raises(ParseError, match="cells must be a list of rows"):
            matrix_from_json_obj({"n": 1, "labels": ["a"], "cells": 5})

    @pytest.mark.parametrize(
        "n, labels, message",
        [
            (2, "ab", "labels must be a list, got 'ab'"),
            (1, 5, "labels must be a list, got 5"),
            (True, ["a"], "n must be an integer, got True"),
            (1.0, ["a"], "n must be an integer, got 1.0"),
            (1, [1], "label 1 must be a nonempty whitespace-free token"),
            (2, ["a", "a"], "duplicate node label 'a'"),
        ],
    )
    def test_bad_n_or_labels_rejected(self, n, labels, message):
        # Each object is valid apart from n or labels.
        obj = {"n": n, "labels": labels, "cells": [[0] * int(n)] * int(n)}
        with pytest.raises(ParseError, match=re.escape(message)):
            matrix_from_json_obj(obj)

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_json("{not json")

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_any_json_raises_only_parse_error(self, value):
        parse_or_parse_error(matrix_from_json, json.dumps(value))

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            matrix_from_json(DEEP_ARRAY)
        assert str(exc.value).startswith("<matrix>: invalid JSON: ")

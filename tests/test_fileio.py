import json
import re

import pytest

from netmat import INF, ParseError, Trajectory
from netmat.fileio import (
    graph_from_text,
    graph_to_text,
    matrix_from_csv,
    matrix_from_json,
    matrix_from_json_obj,
    matrix_to_csv,
    matrix_to_json_obj,
    trajectories_from_text,
    trajectories_to_text,
)
from netmat.matrices import CountMatrix


class TestGraphFormat:
    def test_round_trip(self, shortcut_graph):
        text = graph_to_text(shortcut_graph)
        assert graph_from_text(text) == shortcut_graph
        assert graph_to_text(graph_from_text(text)) == text

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

    def test_short_line_reports_kind(self, shortcut_graph):
        with pytest.raises(ParseError) as exc:
            trajectories_from_text("A\n", shortcut_graph)
        assert "TooShort" in str(exc.value)


class TestMatrixCsv:
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
            matrix_to_csv(CountMatrix.zeros(2), ("a",))

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

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError, match="duplicate node label 'a'"):
            matrix_from_csv(",a,a\na,0,0\na,0,0\n")


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

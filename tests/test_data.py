import csv
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from fairprop import data
from fairprop.cli import main as cli_main
from fairprop.data import (
    MISSING_LABEL,
    Dataset,
    SynthConfig,
    load_dataset,
    make_splits,
    read_results,
    standardize_features,
    synth_generate,
    write_results,
)
from fairprop.graph import build_graph, edge_homophily, incident_vector
from fairprop.metrics import MetricsReport

SCHEMA = {"id": "id", "sensitive": "sens", "sensitive_pos_value": "1", "label": "y"}

# the line a label above 1 gets, wherever a dataset is built
THREE_CLASSES = "labeled nodes hold 3 classes: fairprop is two-class, labels 0 and 1"


def write_fixture(tmp_path, node_text, edge_text):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.txt"
    nodes.write_text(node_text)
    edges.write_text(edge_text)
    return nodes, edges


BASIC_NODES = "id,sens,y,f0,f1\na,1,0,1.5,0.0\nb,0,1,-2.0,3.0\nc,1,-1,0.5,\n"
BASIC_EDGES = "a b\nb,c  # comment\n# full comment line\n\n"


def exact(message):
    return "^" + re.escape(message) + "$"


def edges_of(tmp_path, edge_text, nodes=BASIC_NODES):
    nodes_path, edges_path = write_fixture(tmp_path, nodes, "")
    edges_path.write_bytes(edge_text.encode())  # keep line endings as written
    return load_dataset(nodes_path, edges_path, SCHEMA).graph.edges.tolist()


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        nodes, edges = write_fixture(tmp_path, BASIC_NODES, BASIC_EDGES)
        ds = load_dataset(nodes, edges, SCHEMA, name="toy")
        assert ds.graph.n == 3
        assert ds.graph.edges.tolist() == [[0, 1], [1, 2]]
        np.testing.assert_array_equal(ds.sensitive, [1, -1, 1])
        np.testing.assert_array_equal(ds.labels, [0, 1, MISSING_LABEL])
        np.testing.assert_array_equal(ds.features, [[1.5, 0.0], [-2.0, 3.0], [0.5, 0.0]])
        np.testing.assert_array_equal(ds.labeled_mask, [True, True, False])
        assert ds.name == "toy"

    def test_drop_column(self, tmp_path):
        nodes, edges = write_fixture(tmp_path, BASIC_NODES, "a b\n")
        schema = dict(SCHEMA, drop=["f1"])
        ds = load_dataset(nodes, edges, schema)
        assert ds.features.shape == (3, 1)

    def test_empty_node_csv_is_one_error(self, tmp_path):
        # a bare StopIteration from the header read left the CLI's "error: " empty
        nodes, edges = write_fixture(tmp_path, "", "a b\n")
        with pytest.raises(ValueError, match=r"nodes\.csv") as exc:
            load_dataset(nodes, edges, SCHEMA)
        assert "\n" not in str(exc.value)

    def test_header_without_rows_names_the_file(self, tmp_path, monkeypatch):
        # it read "sensitive_pos_value '1' matches no cell of column 'sens'"
        nodes, edges = write_fixture(tmp_path, "id,sens,y,f0\n", "")
        line = f"ValueError: empty node CSV {str(nodes)!r}: expected a row per node below the header"
        assert numpy_outcome(monkeypatch, nodes, edges) == csv_outcome(monkeypatch, nodes, edges) == line

    def test_missing_column(self, tmp_path):
        nodes, edges = write_fixture(tmp_path, BASIC_NODES, "a b\n")
        with pytest.raises(ValueError, match="missing column"):
            load_dataset(nodes, edges, dict(SCHEMA, label="missing"))

    def test_non_numeric_feature(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path, "id,sens,y,f0\na,1,0,oops\nb,0,1,2.0\n", "a b\n"
        )
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset(nodes, edges, SCHEMA)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        # float() parses these; the run would fail later with a misleading cause
        nodes, edges = write_fixture(
            tmp_path, f"id,sens,y,f0,f1\na,1,0,1.0,2.0\nb,0,1,3.0,{cell}\n", "a b\n"
        )
        value = str(float(cell))
        message = f"non-finite feature cell {value!r} in column 'f1' (node 'b')"
        with pytest.raises(ValueError, match=exact(message)):
            load_dataset(nodes, edges, SCHEMA)

    def test_unknown_edge_id(self, tmp_path):
        nodes, edges = write_fixture(tmp_path, BASIC_NODES, "a z\n")
        with pytest.raises(ValueError, match="unknown node id"):
            load_dataset(nodes, edges, SCHEMA)

    def test_malformed_edge_line(self, tmp_path):
        nodes, edges = write_fixture(tmp_path, BASIC_NODES, "a b c\n")
        with pytest.raises(ValueError, match="malformed"):
            load_dataset(nodes, edges, SCHEMA)

    def test_single_valued_sensitive(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path, "id,sens,y,f0\na,1,0,1.0\nb,1,1,2.0\n", "a b\n"
        )
        with pytest.raises(ValueError, match=exact("both sensitive groups must be nonempty")):
            load_dataset(nodes, edges, SCHEMA)

    @pytest.mark.parametrize("value", ["1", 1])
    def test_positive_value_is_cell_text(self, tmp_path, value):
        # an integer stands for its decimal text
        nodes, edges = write_fixture(tmp_path, BASIC_NODES, BASIC_EDGES)
        ds = load_dataset(nodes, edges, dict(SCHEMA, sensitive_pos_value=value))
        np.testing.assert_array_equal(ds.sensitive, [1, -1, 1])

    @pytest.mark.parametrize("value", [1.0, 2.0, True, [1], None, {"1": 1}])
    def test_positive_value_of_another_type_is_refused_before_reading(self, tmp_path, value):
        # 1.0 and true passed, then matched no cell of a 1/0 column and failed
        # after the CSV loaded with a line that named neither key nor value
        missing = tmp_path / "missing.csv"
        line = f"dataset schema 'sensitive_pos_value' must be a string or an integer, got {value!r}"
        with pytest.raises(ValueError, match=exact(line)):
            load_dataset(missing, missing, dict(SCHEMA, sensitive_pos_value=value))

    @pytest.mark.parametrize("value, text", [("2", "'2'"), (2, "'2'"), (" 1", "' 1'")])
    def test_positive_value_that_matches_no_cell_names_it(self, tmp_path, value, text):
        nodes, edges = write_fixture(tmp_path, BASIC_NODES, BASIC_EDGES)
        line = f"sensitive_pos_value {text} matches no cell of column 'sens'"
        with pytest.raises(ValueError, match=exact(line)):
            load_dataset(nodes, edges, dict(SCHEMA, sensitive_pos_value=value))

    @pytest.mark.parametrize(
        "schema, line",
        [
            ({k: v for k, v in SCHEMA.items() if k != "label"}, "dataset schema lacks 'label'"),
            (dict(SCHEMA, weight="w"), "dataset schema has unknown key 'weight'"),
            (dict(SCHEMA, id=0), "dataset schema 'id' must be a string, got 0"),
            (dict(SCHEMA, drop="f0"), "dataset schema 'drop' must be a list of column names, got 'f0'"),
        ],
    )
    def test_malformed_schema_is_refused_before_reading(self, tmp_path, schema, line):
        # a direct call gets the lines a run config's dataset entry gets
        missing = tmp_path / "missing.csv"
        with pytest.raises(ValueError, match=exact(line)):
            load_dataset(missing, missing, schema)

    def test_duplicate_id_rejected(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path, "id,sens,y,f0\na,1,0,1.0\nb,0,1,2.0\na,0,1,3.0\n", "a b\n"
        )
        with pytest.raises(ValueError, match="duplicate node id 'a'"):
            load_dataset(nodes, edges, SCHEMA)

    def test_self_loop_edges_skipped(self, tmp_path):
        nodes, edges = write_fixture(tmp_path, BASIC_NODES, "a a\na b\n")
        ds = load_dataset(nodes, edges, SCHEMA)
        assert ds.graph.edges.tolist() == [[0, 1]]

    def test_empty_feature_cell_reads_as_zero(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path, "id,sens,y,f0,f1,f2\na,1,0,,2.5,\nb,0,1,1.0,,-3\n", "a b\n"
        )
        ds = load_dataset(nodes, edges, SCHEMA)
        assert ds.features.tolist() == [[0.0, 2.5, 0.0], [1.0, 0.0, -3.0]]

    def test_quoted_cells(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path, 'id,sens,y,f0\n"a,1",1,0,"1.5"\nb,0,1,2\n', '"a,1" b\n'
        )
        with pytest.raises(ValueError, match="malformed edge line"):
            load_dataset(nodes, edges, SCHEMA)  # an edge line splits on the comma
        edges.write_text("b x\n")
        with pytest.raises(ValueError, match="unknown node id"):
            load_dataset(nodes, edges, SCHEMA)
        edges.write_text("")
        ds = load_dataset(nodes, edges, SCHEMA)
        assert ds.features.tolist() == [[1.5], [2.0]]

    def test_non_integer_label_rejected(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path, "id,sens,y,f0\na,1,0,1.0\nb,0,2.7,2.0\nc,0,3.5,0.0\n", "a b\n"
        )
        with pytest.raises(ValueError, match=exact("non-integer label '2.7' in column 'y'")):
            load_dataset(nodes, edges, SCHEMA)

    def test_non_numeric_label_rejected(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path, "id,sens,y,f0\na,1,0,1.0\nb,0,x,2.0\nc,0,1,0.0\n", "a b\n"
        )
        with pytest.raises(ValueError, match=exact("non-numeric label 'x' in column 'y'")):
            load_dataset(nodes, edges, SCHEMA)

    def test_integral_and_negative_labels(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path,
            "id,sens,y,f0\na,1,1.0,1.0\nb,0,-3,2.0\nc,0,-0.5,0.0\nd,1,,0.0\ne,0,0,0.0\n",
            "a b\n",
        )
        ds = load_dataset(nodes, edges, SCHEMA)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [1, MISSING_LABEL, MISSING_LABEL, MISSING_LABEL, 0]

    def test_three_classes_are_refused(self, tmp_path):
        # it loaded, and a run refused the dataset only once it started
        nodes, edges = write_fixture(tmp_path, "id,sens,y,f0\na,1,1,1.0\nb,0,0,2.0\nc,0,2,0.0\n", "a b\n")
        with pytest.raises(ValueError, match=exact(THREE_CLASSES)):
            load_dataset(nodes, edges, SCHEMA)

    @pytest.mark.parametrize(
        "node_text, line",
        [
            ("id,sens,y,f0\na,1,0,1.0\nb,1,1,2.0\n", "both sensitive groups must be nonempty"),
            ("id,sens,y,f0\na,1,1,1.0\nb,0,2,2.0\n", THREE_CLASSES),
        ],
        ids=["one group", "three classes"],
    )
    def test_node_csv_faults_come_before_the_edge_list(self, tmp_path, node_text, line):
        # the edge list is not read, so its unknown id is not what gets reported
        nodes, edges = write_fixture(tmp_path, node_text, "a z\n")
        with pytest.raises(ValueError, match=exact(line)):
            load_dataset(nodes, edges, SCHEMA)

    @pytest.mark.parametrize(
        "row, line, got",
        [
            ("b,0,1\n", 3, 3),  # a feature cell is missing
            ("b,0,1,2.0,3.0,4.0\n", 3, 6),  # one cell too many
            ("\nb,0,1,2.0\n", 4, 4),  # blank lines still count as lines
        ],
    )
    def test_row_with_wrong_cell_count(self, tmp_path, row, line, got):
        nodes, edges = write_fixture(tmp_path, "id,sens,y,f0,f1\na,1,0,1.0,1.0\n" + row, "a b\n")
        message = f"{nodes}, line {line}: expected 5 cells, got {got}"
        with pytest.raises(ValueError, match=exact(message)):
            load_dataset(nodes, edges, SCHEMA)

    def test_short_row_rejected_when_only_dropped_cells_missing(self, tmp_path):
        nodes, edges = write_fixture(
            tmp_path, "id,sens,y,f0,extra\na,1,0,1.0,x\nb,0,1,2.0\n", "a b\n"
        )
        with pytest.raises(ValueError, match=exact(f"{nodes}, line 3: expected 5 cells, got 4")):
            load_dataset(nodes, edges, dict(SCHEMA, drop=["extra"]))


class TestEdgeFileFormat:
    """The edge-file grammar: one pair per line, split on whitespace or commas."""

    @pytest.mark.parametrize(
        "text",
        [
            "a b\r\nb c\r\n",  # CRLF line endings
            "a\tb\n\tb\tc\t\n",  # tabs
            "a,b # c\nb , c#d\n",  # commas and trailing comments
            "\n# only a comment\n   \n  # indented comment\na b\n\nb c\n#\n",
            "a b\nb c",  # no final newline
            "b a\na b\nc b\n",  # repeated and reversed pairs
        ],
    )
    def test_accepted_layouts(self, tmp_path, text):
        assert edges_of(tmp_path, text) == [[0, 1], [1, 2]]

    def test_empty_edge_file(self, tmp_path):
        assert edges_of(tmp_path, "# nothing here\n\n") == []

    def test_vertical_tab_does_not_end_a_line(self, tmp_path):
        with pytest.raises(ValueError, match=exact("malformed edge line 'a b\\x0bb c'")):
            edges_of(tmp_path, "a b\x0bb c\n")

    @pytest.mark.parametrize(
        "text, quoted",
        [
            ("a b\na b c  # three ids\n", "'a b c'"),
            ("a b\n\ta\t\n", "'a'"),
            ("a b\n , \n", "','"),
            ("a b\r\nb,c,a\r\n", "'b,c,a'"),
        ],
    )
    def test_malformed_line_message(self, tmp_path, text, quoted):
        with pytest.raises(ValueError, match=exact(f"malformed edge line {quoted}")):
            edges_of(tmp_path, text)

    @pytest.mark.parametrize(
        "text, quoted",
        [
            ("a b\n  a,z # z is not a node\n", "'a,z'"),
            ("a b\nq\tb\r\n", "'q\\tb'"),
            ("a z\na b c\n", "'a z'"),  # the first bad line is reported
        ],
    )
    def test_unknown_id_message(self, tmp_path, text, quoted):
        with pytest.raises(ValueError, match=exact(f"edge references unknown node id in {quoted}")):
            edges_of(tmp_path, text)

    def test_malformed_line_before_unknown_id(self, tmp_path):
        with pytest.raises(ValueError, match="^malformed edge line 'a'$"):
            edges_of(tmp_path, "a\na z\n")


class TestLoadMemory:
    def test_traced_peak_of_a_20k_node_load(self, tmp_path):
        # The reader must not hold every row of the node CSV at once. On this
        # input the streaming reader peaks near 9 MiB; one that keeps all
        # rows as lists of cell strings peaks near 35 MiB.
        rng = np.random.default_rng(0)
        n, d, m = 20_000, 16, 20_000
        ids = (rng.permutation(n) + 100_000).tolist()
        rows = zip(ids, rng.integers(2, size=n).tolist(), rng.standard_normal((n, d)).tolist())
        header = ",".join(["id", "sens", "y"] + [f"f{k}" for k in range(d)])
        body = "".join(
            f"{i},{i % 2},{y}," + ",".join(f"{x:.6f}" for x in xs) + "\n" for i, y, xs in rows
        )
        a = rng.integers(n, size=m)
        b = (a + rng.integers(1, n, size=m)) % n
        pairs = "".join(f"{ids[i]} {ids[j]}\n" for i, j in zip(a.tolist(), b.tolist()))
        nodes, edges = write_fixture(tmp_path, header + "\n" + body, pairs)

        tracemalloc.start()
        try:
            ds = load_dataset(nodes, edges, SCHEMA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (n, d) and ds.graph.num_edges > 0
        assert peak < 16 * 2**20, f"load_dataset peaked at {peak / 2**20:.1f} MiB"

    def test_traced_peak_of_a_100k_line_edge_list(self, tmp_path):
        # The edge list is parsed a block of lines at a time. On this input
        # the load peaks near 2.4 times the bytes of the arrays it returns;
        # parsing the whole edge list as one text peaks near 3.0 times.
        rng = np.random.default_rng(0)
        n, d, m = 20_000, 16, 100_000
        ids = (rng.permutation(n) + 100_000).tolist()
        rows = zip(ids, rng.integers(2, size=n).tolist(), rng.standard_normal((n, d)).tolist())
        header = ",".join(["id", "sens", "y"] + [f"f{k}" for k in range(d)])
        body = "".join(
            f"{i},{i % 2},{y}," + ",".join(f"{x:.6f}" for x in xs) + "\n" for i, y, xs in rows
        )
        a = rng.integers(n, size=m)
        b = (a + rng.integers(1, n, size=m)) % n
        pairs = "".join(f"{ids[i]} {ids[j]}\n" for i, j in zip(a.tolist(), b.tolist()))
        nodes, edges = write_fixture(tmp_path, header + "\n" + body, pairs)

        tracemalloc.start()
        try:
            ds = load_dataset(nodes, edges, SCHEMA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adjacency = ds.graph.adjacency
        returned = sum(
            array.nbytes
            for array in (ds.features, ds.sensitive, ds.labels, ds.graph.edges)
            + (adjacency.data, adjacency.indices, adjacency.indptr)
        )
        assert ds.graph.num_edges > 0.99 * m
        assert peak < 2.7 * returned, (
            f"load_dataset peaked at {peak / returned:.2f} times the {returned / 2**20:.1f} MiB it returns"
        )


def plain_files(seed, n=30, d=3, m=60):
    """Header, node rows and edge pairs of a plain integer-id dataset, as cell lists."""
    rng = np.random.default_rng(seed)
    ids = [str(i) for i in (rng.permutation(n) + 100).tolist()]
    sens = rng.integers(2, size=n).tolist()
    labels = rng.integers(-1, 2, size=n).tolist()
    features = rng.standard_normal((n, d)).tolist()
    rows = [[i, str(s), str(y), *map(repr, x)] for i, s, y, x in zip(ids, sens, labels, features)]
    rows[0][1], rows[1][1] = "1", "0"  # both groups
    a, b = rng.integers(n, size=(2, m)).tolist()  # some pairs are self-loops
    pairs = [[ids[i], ids[j]] for i, j in zip(a, b)]
    return ["id", "sens", "y"] + [f"f{k}" for k in range(d)], rows, pairs


# Edits of plain_files' output, each a case for both readers:
#   end          line ending of both files
#   header       {col: text}; cells {(row, col): text}
#   rename       {row: id}, in the node row and in every edge that names it (before cells)
#   node_text    {row: format of the row's cells}; edge_text {line: format of its two ids}
#   node_lines   {index: raw line inserted}; edge_lines likewise
READER_CASES = {
    "plain": {},
    "crlf": {"end": "\r\n"},
    "lone_cr": {"end": "\r"},
    "blank_lines": {"node_lines": {3: "", 99: ""}, "edge_lines": {0: "", 5: "", 99: ""}},
    "whitespace_only_node_line": {"node_lines": {2: "  \t"}},
    "whitespace_only_edge_line": {"edge_lines": {2: "  \t"}},
    "quoted_feature": {"cells": {(2, 3): '"1.5"'}},
    "quoted_id": {"rename": {4: "77"}, "cells": {(4, 0): '"77"'}},
    "quoted_id_with_comma": {"rename": {4: '"7,8"'}},
    "quoted_sensitive": {"cells": {(3, 1): '"1"'}},
    "quoted_label": {"cells": {(3, 2): '"1"'}},
    "quoted_header": {"header": {4: '"f1"'}},
    "empty_feature": {"cells": {(1, 4): ""}},
    "whitespace_around_feature": {"cells": {(1, 4): " 1.5\t"}},
    "whitespace_in_sensitive": {"cells": {(3, 1): " 1"}},
    "underscore_feature": {"cells": {(5, 3): "1_0"}},
    "arabic_digit_feature": {"cells": {(5, 3): "١.٥"}},
    "nan_feature": {"cells": {(6, 5): "nan"}},
    "inf_feature": {"cells": {(6, 5): "-inf"}},
    "non_numeric_feature": {"cells": {(6, 5): "x"}},
    "non_integer_label": {"cells": {(7, 2): "2.5"}},
    "float_label": {"cells": {(7, 2): "1.0"}},
    "short_row": {"node_text": {8: "{0},{1},{2},{3},{4}"}},
    "long_row": {"node_text": {8: "{0},{1},{2},{3},{4},{5},0"}},
    "cell_past_csv_limit": {"cells": {(3, 4): "0." + "1" * 131_072}},
    "nul_in_id": {"rename": {0: "102\0"}},
    "nul_in_feature": {"cells": {(0, 4): "1.5\0"}},
    "nul_in_edge": {"edge_text": {3: "{0} {1}\0"}},
    "nel_in_id": {"rename": {2: "a\x85b"}},
    "duplicate_integer_id": {"cells": {(9, 0): "200"}, "rename": {4: "200"}},
    "string_ids": {"rename": {k: f"n{k}" for k in range(30)}},
    "zero_padded_ids": {"rename": {0: "007", 1: "00"}},
    "zero_padded_edge_token": {"edge_text": {0: "0{0} {1}"}},
    "plus_signed_edge_token": {"edge_text": {0: "+{0} {1}"}},
    "minus_zero": {"rename": {0: "0"}, "edge_text": {0: "-0 {1}"}},
    "negative_ids": {"rename": {0: "-5", 1: "-12"}},
    "ids_past_int64": {"rename": {0: str(2**63), 1: str(2**64 + 100)}},
    "edge_token_past_int64": {"edge_text": {0: f"{2**64 + 100} {{1}}"}},
    "float_edge_token": {"edge_text": {0: "{0}.0 {1}"}},
    "arabic_digit_id": {"rename": {0: "٧"}},
    "arabic_digit_edge_token": {"rename": {0: "7"}, "edge_text": {0: "٧ {1}"}},
    "nel_separator": {"edge_text": {1: "{0}\x85{1}"}},
    "nbsp_separator": {"edge_text": {1: "{0}\xa0{1}"}},
    "file_separator": {"edge_text": {1: "{0}\x1c{1}"}},
    "vertical_tab_separator": {"edge_text": {1: "{0}\x0b{1}"}},
    "tab_separators": {"edge_text": {1: "\t{0}\t{1}\t"}},
    "comma_separators": {"edge_text": {1: "{0},{1}", 2: " {0} , {1} "}},
    "comments": {"edge_lines": {0: "# a b", 4: "  # c"}, "edge_text": {2: "{0} {1}# d e f"}},
    "long_comment_line": {"edge_lines": {0: "# " + "x" * 100, 3: "\t" * 80}},
    "commas_only_line": {"edge_lines": {4: " , ,"}},
    "three_ids_on_a_line": {"edge_text": {6: "{0} {1} {0}"}},
    "one_id_on_a_line": {"edge_text": {6: "{0}"}},
    "one_id_on_every_line": {"edge_text": {k: "{0}" for k in range(60)}},
    "four_ids_on_every_line": {"edge_text": {k: "{0} {1} {1} {0}" for k in range(60)}},
    "self_loops": {"edge_text": {k: "{0} {0}" for k in range(0, 60, 7)}},
    "unknown_id": {"edge_text": {10: "{0} 99999"}},
}

# the cases that numpy's text reader takes whole
PLAIN_CASES = [
    "plain",
    "crlf",
    "lone_cr",
    "blank_lines",
    "whitespace_only_edge_line",
    "whitespace_around_feature",
    "whitespace_in_sensitive",
    "float_label",
    "tab_separators",
    "comma_separators",
    "comments",
    "long_comment_line",
    "self_loops",
]


def write_case(tmp_path, seed, case):
    spec = READER_CASES[case]
    header, rows, pairs = plain_files(seed)
    for col, text in spec.get("header", {}).items():
        header[col] = text
    for row, new in spec.get("rename", {}).items():
        old, rows[row][0] = rows[row][0], new
        pairs = [[new if token == old else token for token in pair] for pair in pairs]
    for (row, col), text in spec.get("cells", {}).items():
        rows[row][col] = text
    node_text, edge_text = spec.get("node_text", {}), spec.get("edge_text", {})
    node_lines = [
        node_text[k].format(*row) if k in node_text else ",".join(row) for k, row in enumerate(rows)
    ]
    edge_lines = [
        edge_text[k].format(*pair) if k in edge_text else " ".join(pair) for k, pair in enumerate(pairs)
    ]
    for lines, inserted in ((node_lines, "node_lines"), (edge_lines, "edge_lines")):
        for k, line in sorted(spec.get(inserted, {}).items(), reverse=True):
            lines.insert(k, line)
    end = spec.get("end", "\n")
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.txt"
    nodes.write_bytes("".join(line + end for line in [",".join(header), *node_lines]).encode())
    edges.write_bytes("".join(line + end for line in edge_lines).encode())
    return nodes, edges


def load_outcome(nodes, edges, schema=SCHEMA):
    """Every returned array as (dtype, shape, bytes), or the error's type and message."""
    try:
        ds = load_dataset(nodes, edges, schema)
    except (ValueError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"
    adjacency = ds.graph.adjacency
    arrays = (ds.features, ds.sensitive, ds.labels, ds.graph.edges)
    arrays += (adjacency.indptr, adjacency.indices, adjacency.data)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def csv_outcome(monkeypatch, nodes, edges, schema=SCHEMA):
    """``load_outcome`` with numpy's text reader turned off: csv and the dict of ids only."""
    with monkeypatch.context() as m:
        m.setattr(data, "_plain_node_table", lambda *args: None)
        m.setattr(data, "_integer_ends", lambda *args: None)
        m.setattr(data, "_integer_index", lambda *args: None)
        return load_outcome(nodes, edges, schema)


def numpy_outcome(monkeypatch, nodes, edges, schema=SCHEMA):
    """``load_outcome`` that fails unless numpy's text reader takes every block."""

    def refuse(*args):
        raise AssertionError("a file went to the csv reader")

    def integer_ends(*args):
        ends = real_integer_ends(*args)
        assert ends is not None, "a block of edge lines went to the dict of ids"
        return ends

    real_integer_ends = data._integer_ends
    with monkeypatch.context() as m:
        m.setattr(data, "_csv_node_table", refuse)
        m.setattr(data, "_integer_ends", integer_ends)
        return load_outcome(nodes, edges, schema)


class TestReaderAgreement:
    """numpy's text reader and the csv/dict reader give the same arrays or the same error."""

    @pytest.mark.parametrize("block_chars", [data.BLOCK_CHARS, 64, 1])
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_same_outcome(self, tmp_path, monkeypatch, case, block_chars):
        monkeypatch.setattr(data, "BLOCK_CHARS", block_chars)
        for seed in range(3):
            nodes, edges = write_case(tmp_path, seed, case)
            assert load_outcome(nodes, edges) == csv_outcome(monkeypatch, nodes, edges), (case, seed)

    @pytest.mark.parametrize("case", PLAIN_CASES)
    def test_plain_files_take_numpy_reader(self, tmp_path, monkeypatch, case):
        nodes, edges = write_case(tmp_path, 0, case)
        outcome = numpy_outcome(monkeypatch, nodes, edges)
        assert not isinstance(outcome, str)
        assert outcome == csv_outcome(monkeypatch, nodes, edges)

    @pytest.mark.parametrize("drop", [["f1"], ["f0", "f1", "f2"]])
    def test_dropped_columns_take_numpy_reader(self, tmp_path, monkeypatch, drop):
        nodes, edges = write_case(tmp_path, 0, "plain")
        schema = dict(SCHEMA, drop=drop)
        outcome = numpy_outcome(monkeypatch, nodes, edges, schema)
        assert not isinstance(outcome, str)
        assert outcome == csv_outcome(monkeypatch, nodes, edges, schema)

    def test_ingest_style_files_take_numpy_reader(self, tmp_path, monkeypatch):
        # np.savetxt's layout: integer ids out of file order, six-decimal
        # features, one space-separated pair per line, several blocks
        rng = np.random.default_rng(1)
        n, d, m = 3000, 4, 20_000
        ids = rng.permutation(n) + 100_000
        keys = [ids, rng.integers(2, size=n), rng.integers(2, size=n)]
        table = np.column_stack(keys + [rng.standard_normal((n, d))])
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.txt"
        header = ",".join(["id", "sens", "y"] + [f"f{k}" for k in range(d)])
        np.savetxt(nodes, table, fmt=["%d"] * 3 + ["%.6f"] * d, delimiter=",", header=header, comments="")
        np.savetxt(edges, ids[rng.integers(n, size=(m, 2))], fmt="%d")
        monkeypatch.setattr(data, "BLOCK_CHARS", 1 << 14)
        outcome = numpy_outcome(monkeypatch, nodes, edges)
        assert not isinstance(outcome, str)
        assert outcome == csv_outcome(monkeypatch, nodes, edges)

    def test_synth_files_take_numpy_reader(self, tmp_path, monkeypatch):
        # fairprop synth writes CRLF node rows and repr-formatted floats
        config = tmp_path / "synth.json"
        config.write_text('{"n": 300, "mean_degree": 6.0, "feat_dim": 5, "seed": 3}')
        result = CliRunner().invoke(cli_main, ["synth", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.txt"
        assert b"\r\n" in nodes.read_bytes()
        schema = {"id": "id", "sensitive": "sensitive", "sensitive_pos_value": "1", "label": "label"}
        outcome = numpy_outcome(monkeypatch, nodes, edges, schema)
        assert not isinstance(outcome, str)
        assert outcome == csv_outcome(monkeypatch, nodes, edges, schema)


class TestDataset:
    def test_three_classes_are_refused_when_built(self):
        # before any run starts, whichever scheme it trains or evaluates
        labels = toy_dataset(6).labels.copy()
        labels[4] = 2
        with pytest.raises(ValueError, match=exact(THREE_CLASSES)):
            dataclasses.replace(toy_dataset(6), labels=labels)

    def test_sensitive_entry_of_zero_beside_both_groups_is_refused(self):
        # it was accepted, and refused only when a run built the incident vector
        sensitive = toy_dataset(6).sensitive.copy()
        sensitive[2] = 0
        with pytest.raises(ValueError, match=exact("sensitive attribute entries must be -1 or +1")):
            dataclasses.replace(toy_dataset(6), sensitive=sensitive)

    def test_replace_recomputes_delta(self):
        ds = toy_dataset(7)
        flipped = dataclasses.replace(ds, sensitive=-ds.sensitive)
        for dataset in (ds, flipped):
            expected = incident_vector(dataset.sensitive)
            assert dataset.delta.values.tobytes() == expected.values.tobytes()
            assert dataset.delta.group_sizes == expected.group_sizes
        assert flipped.delta.group_sizes == (3, 4) != ds.delta.group_sizes


def toy_dataset(n, n_labeled=None):
    n_labeled = n if n_labeled is None else n_labeled
    labels = np.zeros(n, dtype=np.int64)
    labels[1::2] = 1
    labels[n_labeled:] = MISSING_LABEL
    sensitive = np.where(np.arange(n) % 2 == 0, 1, -1)
    return Dataset(
        graph=build_graph(n, [(i, i + 1) for i in range(n - 1)]),
        features=np.zeros((n, 2)),
        sensitive=sensitive,
        labels=labels,
    )


class TestMakeSplits:
    def test_sizes_100(self):
        masks = make_splits(toy_dataset(100), (0.5, 0.25, 0.25), seed=0)
        assert (masks.train.sum(), masks.val.sum(), masks.test.sum()) == (50, 25, 25)

    def test_sizes_floor_then_remainder(self):
        masks = make_splits(toy_dataset(10), (0.5, 0.25, 0.25), seed=3)
        assert (masks.train.sum(), masks.val.sum(), masks.test.sum()) == (5, 2, 3)

    def test_disjoint_and_cover_labeled(self):
        ds = toy_dataset(40, n_labeled=31)
        for seed in range(10):
            masks = make_splits(ds, seed=seed)
            combined = (
                masks.train.astype(int) + masks.val.astype(int) + masks.test.astype(int)
            )
            np.testing.assert_array_equal(combined, ds.labeled_mask.astype(int))

    def test_deterministic_per_seed(self):
        ds = toy_dataset(30)
        a, b = make_splits(ds, seed=7), make_splits(ds, seed=7)
        assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)
        c = make_splits(ds, seed=8)
        assert not np.array_equal(a.train, c.train)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            make_splits(toy_dataset(10), (0.5, 0.25, 0.1), seed=0)

    def test_too_few_labeled(self):
        with pytest.raises(ValueError):
            make_splits(toy_dataset(10, n_labeled=3), seed=0)

    @pytest.mark.parametrize("fractions", [(0.75, 0.5, -0.25), (-0.5, 0.75, 0.75)])
    def test_negative_fraction_rejected(self, fractions):
        # these sum to 1, so training ran every epoch and then failed on an empty mask
        with pytest.raises(ValueError, match=r"^split fractions must be >= 0, got "):
            make_splits(toy_dataset(20), fractions, seed=0)

    @pytest.mark.parametrize(
        "fractions, empty",
        [
            ((0.5, 0.5, 0.0), "test"),  # trained every epoch, then failed in the report
            ((0.0, 0.5, 0.5), "train"),  # warned while standardizing, then failed in the loss
            ((0.01, 0.49, 0.5), "train"),  # 0.01 * 20 floors to 0 rows
            ((0.5, 0.0, 0.5), "val"),
        ],
    )
    def test_empty_split_names_itself(self, fractions, empty):
        message = f"split fractions {fractions} leave the {empty} split empty with 20 labeled nodes"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_splits(toy_dataset(20), fractions, seed=0)


class TestSynthGenerate:
    def test_exact_homophily_extremes(self):
        for target in (1.0, 0.0):
            cfg = SynthConfig(
                n=200, eps_sens=target, eps_label=0.7, mean_degree=6.0, seed=1
            )
            ds = synth_generate(cfg)
            assert edge_homophily(ds.graph, (ds.sensitive == 1).astype(int)) == target

    def test_intermediate_homophily(self):
        cfg = SynthConfig(n=2000, eps_sens=0.8, eps_label=0.7, mean_degree=10.0, seed=0)
        ds = synth_generate(cfg)
        h = edge_homophily(ds.graph, (ds.sensitive == 1).astype(int))
        assert 0.75 <= h <= 0.85
        assert abs(edge_homophily(ds.graph, ds.labels) - 0.7) <= 0.05

    def test_bitwise_reproducible(self):
        cfg = SynthConfig(n=300, seed=9)
        a, b = synth_generate(cfg), synth_generate(cfg)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_infeasible_target_raises(self, monkeypatch):
        monkeypatch.setattr(data, "SYNTH_MAX_ATTEMPTS", 3)
        # perfectly group-aligned labels + all cross-group edges can't reach
        # high label homophily
        cfg = SynthConfig(
            n=200, eps_sens=0.0, eps_label=0.9, label_group_corr=1.0, seed=0
        )
        with pytest.raises(RuntimeError, match=r"label homophily .* after 3 attempts$"):
            synth_generate(cfg)

    def test_draws_every_edge_when_pairs_suffice(self):
        for n, degree in ((300, 10.0), (400, 40.0)):
            ds = synth_generate(SynthConfig(n=n, mean_degree=degree, seed=3))
            edges = ds.graph.edges
            assert edges.shape == (round(degree * n / 2), 2)
            assert np.all(edges[:, 0] != edges[:, 1])
            assert len(set(map(tuple, edges.tolist()))) == edges.shape[0]

    def test_retried_edges_keep_their_decisions(self):
        # redrawing an edge's group decision on each retry biases the
        # homophily toward the pairs that collide less (about 0.786 here)
        homophily = [
            edge_homophily(ds.graph, (ds.sensitive == 1).astype(int))
            for ds in (
                synth_generate(SynthConfig(n=400, mean_degree=40.0, eps_sens=0.8, seed=seed))
                for seed in range(8)
            )
        ]
        assert abs(np.mean(homophily) - 0.8) <= 0.005

    def test_too_dense_a_graph_ends(self):
        # 5 nodes have 10 pairs, fewer than the 25 edges asked for
        for seed in range(4):
            try:
                ds = synth_generate(SynthConfig(n=5, mean_degree=10.0, seed=seed))
            except RuntimeError as exc:
                assert "label homophily" in str(exc)
            else:
                assert ds.graph.num_edges <= 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n=2)
        with pytest.raises(ValueError):
            SynthConfig(eps_sens=1.5)

    @pytest.mark.parametrize(
        "field, value, line",
        [
            ("n", 50.5, "n must be an integer, got 50.5"),
            ("n", True, "n must be an integer, got True"),
            ("n", 3, "n must be >= 4, got 3"),
            ("feat_dim", 0, "feat_dim must be >= 1, got 0"),
            ("feat_dim", 2.0, "feat_dim must be an integer, got 2.0"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("mean_degree", -3, "mean_degree must be > 0 and finite, got -3"),
            ("mean_degree", 0, "mean_degree must be > 0 and finite, got 0"),
            ("mean_degree", float("nan"), "mean_degree must be > 0 and finite, got nan"),
            ("mean_degree", float("inf"), "mean_degree must be > 0 and finite, got inf"),
            ("mean_degree", "3", "mean_degree must be a number, got '3'"),
            ("group_frac", 2.0, "group_frac must be in (0, 1), got 2.0"),
            ("group_frac", 0.0, "group_frac must be in (0, 1), got 0.0"),
            ("group_frac", 1, "group_frac must be in (0, 1), got 1"),
            ("label_group_corr", 1.5, "label_group_corr must be in [0, 1], got 1.5"),
            ("label_group_corr", -0.1, "label_group_corr must be in [0, 1], got -0.1"),
            ("eps_sens", 1.5, "eps_sens must be in [0, 1], got 1.5"),
            ("eps_label", float("nan"), "eps_label must be in [0, 1], got nan"),
            ("class_shift", float("inf"), "class_shift must be finite, got inf"),
            ("group_shift", float("nan"), "group_shift must be finite, got nan"),
            ("group_shift", None, "group_shift must be a number, got None"),
        ],
    )
    def test_out_of_range_field_is_one_line(self, field, value, line):
        # group_frac 2.0 drew n - 1 positive nodes, label_group_corr 1.5 acted
        # as 1, feat_dim 0 trained on no features, mean_degree -3 and n 50.5
        # failed inside numpy, and mean_degree 0 after 20 attempts
        with pytest.raises(ValueError, match=rf"^{re.escape(line)}$"):
            SynthConfig(**{field: value})

    def test_boundary_fields_accepted(self):
        cfg = SynthConfig(
            n=np.int64(4), feat_dim=1, seed=0, mean_degree=0.5, group_frac=0.05,
            label_group_corr=0, eps_sens=1, eps_label=0.0, class_shift=-2, group_shift=0,
        )
        assert (cfg.n, cfg.label_group_corr) == (4, 0)
        assert SynthConfig(n=5, mean_degree=10.0, label_group_corr=1.0).mean_degree == 10.0


class TestStandardizeFeatures:
    def test_train_stats(self, rng):
        X = rng.standard_normal((20, 3)) * 4 + 2
        mask = np.zeros(20, dtype=bool)
        mask[:12] = True
        Z = standardize_features(X, mask).apply(X)
        np.testing.assert_allclose(Z[mask].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z[mask].std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_unchanged_scale(self):
        X = np.ones((5, 1)) * 3.0
        Z = standardize_features(X, np.ones(5, dtype=bool)).apply(X)
        np.testing.assert_array_equal(Z, np.zeros((5, 1)))

    def test_constant_column_with_an_inexact_mean_reads_zero(self):
        # Over 2,500 rows the mean of 3.3 is an ulp off and the std is about
        # 1e-13, not 0: every row used to read -1.0 (and +1.0 for 0.1).
        X = np.column_stack([np.full(2500, 3.3), np.full(2500, 0.1)])
        stats = standardize_features(X, np.ones(2500, dtype=bool))
        assert stats.shift.tolist() == [3.3, 0.1] and stats.scale.tolist() == [1.0, 1.0]
        np.testing.assert_array_equal(stats.apply(X), 0.0)


def make_report(seed=0, acc=0.5):
    return MetricsReport(
        accuracy=acc,
        dp=0.1,
        eo=0.2,
        fairness_obj=1.25,
        n_eval=10,
        seed=seed,
        config_fingerprint="abc123",
        scheme="fair",
        lambda_s=1.0,
        lambda_f=30.0,
        wall_time_ms=12.5,
    )


class TestResultsIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        reports = [make_report(seed=s, acc=1.0 / 3.0) for s in range(3)]
        write_results(path, reports)
        loaded = read_results(path)
        assert len(loaded) == 3
        for a, b in zip(reports, loaded):
            assert a == b  # repr round trip keeps floats exact

    def test_written_bytes_are_pinned(self, tmp_path):
        # csv writes each float as its repr: an integer lambda_s stays "1",
        # 1/3 keeps all 17 digits and a failed run's row reads "nan"
        path = tmp_path / "results.csv"
        nan = float("nan")
        failed = MetricsReport(
            accuracy=nan, dp=nan, eo=nan, fairness_obj=nan, n_eval=0, seed=2,
            config_fingerprint="abc123", scheme="fair", lambda_s=1.0, lambda_f=30.0,
        )
        integral = dataclasses.replace(make_report(0), lambda_s=1)
        third = dataclasses.replace(make_report(1), lambda_s=1.0 / 3.0)
        write_results(path, [integral, third, failed])
        assert path.read_bytes() == (
            b"seed,scheme,lambda_s,lambda_f,acc,dp,eo,fairness_obj,n_eval,wall_time_ms,fingerprint\r\n"
            b"0,fair,1,30.0,0.5,0.1,0.2,1.25,10,12.5,abc123\r\n"
            b"1,fair,0.3333333333333333,30.0,0.5,0.1,0.2,1.25,10,12.5,abc123\r\n"
            b"2,fair,1.0,30.0,nan,nan,nan,nan,0,0.0,abc123\r\n"
        )

    def test_unknown_column_is_ignored(self, tmp_path):
        # a file written with a column this version does not know still reads
        path = tmp_path / "results.csv"
        write_results(path, [make_report(0)])
        header, row = path.read_text().splitlines()
        path.write_text(f"{header},note\n{row},kept elsewhere\n")
        assert read_results(path) == [make_report(0)]

    def test_header_only(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(path, [])
        assert read_results(path) == []
        assert path.read_text().strip() != ""

    def test_append_keeps_single_header(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(path, [make_report(0)])
        write_results(path, [make_report(1)], append=True)
        loaded = read_results(path)
        assert [r.seed for r in loaded] == [0, 1]
        assert path.read_text().count("fingerprint") == 1

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(path, [make_report(0)])
        with open(path, "a", newline="") as f:
            f.write("1,fair,1.0\r\n")
        with pytest.raises(ValueError, match=r"results\.csv, line 3: ") as exc:
            read_results(path)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("column", ["acc", "fingerprint"])
    def test_missing_column_names_file_and_column(self, tmp_path, column):
        path = tmp_path / "results.csv"
        write_results(path, [make_report(0)])
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, [c for c in rows[0] if c != column])
            writer.writeheader()
            writer.writerows({k: v for k, v in row.items() if k != column} for row in rows)
        with pytest.raises(ValueError) as exc:
            read_results(path)
        assert str(exc.value) == f"{path}, line 1: no column '{column}'"

    def test_empty_file_holds_no_rows(self, tmp_path):
        # a resumed sweep truncates a torn header line to an empty file
        path = tmp_path / "results.csv"
        path.write_text("")
        assert read_results(path) == []

    def test_unparseable_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(path, [make_report(0), make_report(1)])
        text = path.read_text().replace("0.5", "oops", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match=r"results\.csv, line 2: .*'oops'"):
            read_results(path)

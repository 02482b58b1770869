import re
import tracemalloc

import numpy as np
import pytest

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
from fairprop.graph import build_graph, edge_homophily
from fairprop.metrics import MetricsReport

SCHEMA = {"id": "id", "sensitive": "sens", "sensitive_pos_value": "1", "label": "y"}


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
        with pytest.raises(ValueError):
            load_dataset(nodes, edges, SCHEMA)

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
            "id,sens,y,f0\na,1,1.0,1.0\nb,0,-3,2.0\nc,0,-0.5,0.0\nd,1,,0.0\ne,0,2,0.0\n",
            "a b\n",
        )
        ds = load_dataset(nodes, edges, SCHEMA)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [1, MISSING_LABEL, MISSING_LABEL, MISSING_LABEL, 2]

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

    def test_infeasible_target_raises(self):
        # perfectly group-aligned labels + all cross-group edges can't reach
        # high label homophily
        cfg = SynthConfig(
            n=200, eps_sens=0.0, eps_label=0.9, label_group_corr=1.0, seed=0
        )
        with pytest.raises(RuntimeError, match="label homophily"):
            synth_generate(cfg, max_attempts=3)

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


class TestStandardizeFeatures:
    def test_train_stats(self, rng):
        X = rng.standard_normal((20, 3)) * 4 + 2
        mask = np.zeros(20, dtype=bool)
        mask[:12] = True
        Z = standardize_features(X, mask)
        np.testing.assert_allclose(Z[mask].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z[mask].std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_unchanged_scale(self):
        X = np.ones((5, 1)) * 3.0
        Z = standardize_features(X, np.ones(5, dtype=bool))
        np.testing.assert_array_equal(Z, np.zeros((5, 1)))


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

    def test_unparseable_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(path, [make_report(0), make_report(1)])
        text = path.read_text().replace("0.5", "oops", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match=r"results\.csv, line 2: .*'oops'"):
            read_results(path)

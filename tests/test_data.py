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

import collections
import dataclasses
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    appnp_step,
    assert_close_rel,
    centred,
    finite_diff,
    gcn_oracle,
    matmul,
    per_layer_mlp,
)
from fairprop import autodiff as ad
from fairprop import debias, train
from fairprop.data import (
    Dataset,
    SynthConfig,
    make_splits,
    read_results,
    standardize_features,
    synth_generate,
)
from fairprop.graph import build_graph, incident_vector
from fairprop.metrics import MetricsReport
from fairprop.nn import MlpConfig, _layer_views, init_weights, load_checkpoint, mlp_forward, save_checkpoint
from fairprop.propagation import ppnp_exact
from fairprop.train import RunConfig, evaluate, run, summarize, sweep, train_one


# the line a label above 1 gets, in training, evaluation and a sweep
THREE_CLASSES = r"^labeled nodes hold 3 classes: fairprop is two-class, labels 0 and 1$"


def three_classes(dataset):
    """``dataset`` with node i labeled i % 3."""
    return dataclasses.replace(dataset, labels=np.arange(dataset.labels.size) % 3)


def small_cfg(**overrides):
    base = dict(
        dataset={"synth": {"n": 50, "mean_degree": 4.0, "feat_dim": 6, "seed": 0}},
        scheme="fair",
        lambda_s=1.0,
        lambda_f=5.0,
        num_layers=2,
        hidden=[8],
        epochs=2,
        seeds=[0],
    )
    base.update(overrides)
    return RunConfig.from_dict(base)


@pytest.fixture(scope="module")
def small_dataset():
    return synth_generate(SynthConfig(n=50, mean_degree=4.0, feat_dim=6, seed=0))


def file_dataset(dataset, directory):
    """Write ``dataset`` as a node CSV and an edge list; return the config's dataset entry."""
    nodes, edges = directory / "nodes.csv", directory / "edges.txt"
    d = dataset.features.shape[1]
    rows = zip(dataset.sensitive.tolist(), dataset.labels.tolist(), dataset.features.tolist())
    lines = [",".join(["id", "sensitive", "label"] + [f"f{k}" for k in range(d)])]
    lines += [",".join(map(repr, (i, s, y, *x))) for i, (s, y, x) in enumerate(rows)]
    nodes.write_text("\n".join(lines) + "\n")
    edges.write_text("".join(f"{i} {j}\n" for i, j in dataset.graph.edges.tolist()))
    schema = {"id": "id", "sensitive": "sensitive", "sensitive_pos_value": "1", "label": "label"}
    return {"node_csv": str(nodes), "edges": str(edges), "schema": schema}


def count_runs(monkeypatch):
    """(lambda_s, lambda_f, seed) of each run ``train.train_one`` starts from now on."""
    started = []
    real_train_one = train.train_one

    def counting(point, dataset, masks, seed):
        started.append((point.lambda_s, point.lambda_f, seed))
        return real_train_one(point, dataset, masks, seed)

    monkeypatch.setattr(train, "train_one", counting)
    return started


def edit_first_feature(node_csv, value):
    """Set the first feature cell of the first node row to ``value``."""
    path = pathlib.Path(node_csv)
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[3] = value
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")


class TestRunConfig:
    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_dict({"schemes": "fair"})

    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(scheme="nope")
        with pytest.raises(ValueError):
            small_cfg(epochs=0)
        with pytest.raises(ValueError):
            small_cfg(seeds=[])
        with pytest.raises(ValueError):
            small_cfg(selection="train_acc")

    @pytest.mark.parametrize("seeds", [[0, 0], [3, 1, 3]])
    def test_repeated_seed_rejected(self, seeds):
        # run would train the seed twice and write two identical result rows
        with pytest.raises(ValueError, match=rf"^seed {seeds[-1]} is listed twice$"):
            small_cfg(seeds=seeds)

    @pytest.mark.parametrize("prop_k", [-1, -3])
    def test_negative_prop_k_rejected(self, prop_k):
        # range(prop_k) would be empty: sgc and appnp would train a plain MLP
        with pytest.raises(ValueError, match=rf"^prop_k must be >= 0, got {prop_k}$"):
            small_cfg(prop_k=prop_k)

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # at alpha = 0, ppnp_exact would solve the singular system I - A
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\], got "):
            small_cfg(alpha=alpha)

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("lambda_s", -1.0, "lambda_smooth"),
            ("lambda_s", float("nan"), "lambda_smooth"),
            ("lambda_f", -0.5, "lambda_fair"),
            ("lambda_f", float("nan"), "lambda_fair"),
            ("num_layers", -1, "num_layers"),
        ],
    )
    def test_invalid_debias_settings_rejected(self, field, value, name):
        # lam > 0 is false for NaN, so a NaN lambda_f trained as lambda_f = 0;
        # a negative value failed only inside each run, as a NaN sweep row
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got {value}$"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("lr", [0.0, -0.01, float("nan")])
    def test_non_positive_lr_rejected(self, lr):
        # a negative rate is gradient ascent, and trained without a word
        with pytest.raises(ValueError, match=rf"^lr must be > 0, got {lr}$"):
            small_cfg(lr=lr)

    @pytest.mark.parametrize("weight_decay", [-1.0, float("nan")])
    def test_negative_weight_decay_rejected(self, weight_decay):
        with pytest.raises(ValueError, match=rf"^weight_decay must be >= 0, got {weight_decay}$"):
            small_cfg(weight_decay=weight_decay)

    @pytest.mark.parametrize("hidden", [[0], [8, 0], [-4]])
    def test_hidden_width_below_one_rejected(self, hidden):
        # a zero-width layer is a bias-only model
        with pytest.raises(ValueError, match=r"^hidden width must be >= 1, got "):
            small_cfg(hidden=hidden)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hidden", [8.5]),
            ("hidden", [8, 5.0]),
            ("num_layers", 2.5),
            ("num_layers", True),
            ("prop_k", 1.5),
            ("epochs", 2.5),
            ("epochs", 2.0),
        ],
    )
    def test_non_integer_count_rejected(self, field, value):
        # range() of a float failed inside each run, which a sweep recorded as
        # a NaN row; True trained as 1 under a fingerprint of its own
        name = "hidden width" if field == "hidden" else field
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            small_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value, line",
        [
            ("hidden", 8, "hidden must be a list of integers, got 8"),
            ("hidden", "8", "hidden must be a list of integers, got '8'"),
            ("seeds", 3, "seeds must be a list of integers, got 3"),
            ("seeds", [1.5, 2], "seed in seeds must be an integer, got 1.5"),
            ("seeds", [0, 2.0], "seed in seeds must be an integer, got 2.0"),
            ("seeds", [True], "seed in seeds must be an integer, got True"),
            ("seeds", [-1], "seed in seeds must be >= 0, got -1"),
            ("seeds", [0, -3], "seed in seeds must be >= 0, got -3"),
        ],
    )
    def test_malformed_hidden_or_seeds_rejected(self, field, value, line):
        # "hidden": 8 failed with "'int' object is not iterable"; a float seed
        # failed inside make_splits, and seed True wrote a results row that
        # every later run on the directory failed to read; seed -1 failed in
        # numpy once the dataset had loaded
        with pytest.raises(ValueError, match=rf"^{re.escape(line)}$"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, name",
        [
            ("lambda_s", "lambda_smooth"),
            ("lambda_f", "lambda_fair"),
            ("alpha", "alpha"),
            ("lr", "lr"),
            ("weight_decay", "weight_decay"),
        ],
    )
    @pytest.mark.parametrize("value", ["1.0", None, True])
    def test_non_number_rejected(self, field, name, value):
        # "1.0" and null failed inside a range comparison ("'>=' not supported
        # between instances of 'str' and 'int'"), and true trained as 1.0
        # under a fingerprint of its own
        with pytest.raises(ValueError, match=rf"^{name} must be a number, got {re.escape(repr(value))}$"):
            small_cfg(**{field: value})

    def test_numbers_accepted(self):
        cfg = small_cfg(lambda_s=1, lambda_f=np.float64(0.5), alpha=1, lr=np.float32(0.5), weight_decay=0)
        assert (cfg.lambda_s, cfg.lambda_f, cfg.alpha, cfg.lr, cfg.weight_decay) == (1, 0.5, 1, 0.5, 0)

    @pytest.mark.parametrize(
        "field, value, line",
        [
            *(
                ("split_fractions", fractions, f"split_fractions must be a list of three numbers, got {fractions!r}")
                for fractions in (
                    [0.25, 0.25, 0.25, 0.25], [0.5, 0.5], "abc", 0.5, [0.5, "0.25", 0.25], [0.5, 0.5, None], [True, 0, 0]
                )
            ),
            ("split_fractions", [0.75, 0.5, -0.25], "split fractions must be >= 0, got (0.75, 0.5, -0.25)"),
            ("split_fractions", [0.5, 0.25, 0.1], "split fractions must sum to 1"),
            ("standardize", "no", "standardize must be true or false, got 'no'"),
            ("standardize", 0, "standardize must be true or false, got 0"),
            ("standardize", None, "standardize must be true or false, got None"),
            ("out_dir", 5, "out_dir must be a string, got 5"),
            ("out_dir", ["out"], "out_dir must be a string, got ['out']"),
        ],
    )
    def test_malformed_splits_standardize_or_out_dir_rejected(self, field, value, line):
        # four fractions trained with the fourth ignored and the test split
        # taking the rest, and "abc" or a sum other than 1 failed only once
        # the dataset loaded; "no" trained standardized; out_dir 5 trained
        # every seed and then failed at save
        with pytest.raises(ValueError, match=rf"^{re.escape(line)}$"):
            small_cfg(**{field: value})

    def test_integer_counts_accepted(self):
        cfg = small_cfg(hidden=[np.int64(8), 5], num_layers=np.int64(3), prop_k=0, epochs=1)
        assert (cfg.hidden, cfg.num_layers, cfg.prop_k, cfg.epochs) == ([8, 5], 3, 0, 1)

    def test_training_bounds_accepted(self):
        cfg = small_cfg(lr=1e-6, weight_decay=0.0, hidden=[])
        assert (cfg.lr, cfg.weight_decay, cfg.hidden) == (1e-6, 0.0, [])

    def test_teleport_bounds_accepted(self):
        cfg = small_cfg(prop_k=0, alpha=1.0)
        assert (cfg.prop_k, cfg.alpha) == (0, 1.0)

    def test_fingerprint_ignores_seeds_and_out_dir(self):
        a = small_cfg(seeds=[0], out_dir="x")
        b = small_cfg(seeds=[1, 2], out_dir="y")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_semantics(self):
        assert small_cfg().fingerprint() != small_cfg(lambda_f=6.0).fingerprint()
        assert len(small_cfg().fingerprint()) == 16

    def test_default_fingerprint_is_pinned(self):
        # resume keys of existing result files depend on this exact value
        assert RunConfig().fingerprint() == "eaf878215c30936f"

    def test_fingerprint_hashes_dataset_file_contents(self, small_dataset, tmp_path):
        cfg = small_cfg(dataset=file_dataset(small_dataset, tmp_path))
        before = cfg.fingerprint()
        edit_first_feature(cfg.dataset["node_csv"], "7.5")
        after_nodes = cfg.fingerprint()
        with open(cfg.dataset["edges"], "a") as f:
            f.write("0 1\n")
        assert len({before, after_nodes, cfg.fingerprint()}) == 3

    def test_fingerprint_of_a_missing_dataset_file_is_one_error(self, small_dataset, tmp_path):
        dataset = file_dataset(small_dataset, tmp_path)
        dataset["edges"] = str(tmp_path / "missing.txt")
        with pytest.raises(ValueError, match="dataset file not found: .*missing.txt"):
            small_cfg(dataset=dataset).fingerprint()


SCHEMA = {"id": "id", "sensitive": "sensitive", "sensitive_pos_value": "1", "label": "label"}
FILES = {"node_csv": "nodes.csv", "edges": "edges.txt", "schema": SCHEMA}


class TestDatasetEntry:
    @pytest.mark.parametrize(
        "entry, line",
        [
            ({"node_csv": "nodes.csv", "schema": SCHEMA}, "dataset entry lacks 'edges'"),
            ({"edges": "edges.txt", "schema": SCHEMA}, "dataset entry lacks 'node_csv'"),
            ({"node_csv": "nodes.csv", "edges": "edges.txt"}, "dataset entry lacks 'schema'"),
            (dict(FILES, nodes="x.csv"), "dataset entry has unknown key 'nodes'"),
            ({"synth": {"n": 50}, "node_csv": "nodes.csv"}, "dataset entry holds 'node_csv' beside 'synth'"),
            ({"synth": 50}, "dataset 'synth' must be an object, got 50"),
            ({"synth": {"n": 50, "nodes": 3}}, "dataset 'synth' has unknown key 'nodes'"),
            ({"synth": {"n": 50, "feat_dim": 0}}, "feat_dim must be >= 1, got 0"),
            (dict(FILES, node_csv=5), "dataset 'node_csv' must be a string, got 5"),
            (dict(FILES, name=["x"]), "dataset 'name' must be a string, got ['x']"),
            (dict(FILES, schema="id"), "dataset schema must be an object, got 'id'"),
            (
                dict(FILES, schema={k: v for k, v in SCHEMA.items() if k != "sensitive_pos_value"}),
                "dataset schema lacks 'sensitive_pos_value'",
            ),
            (dict(FILES, schema=dict(SCHEMA, weight="w")), "dataset schema has unknown key 'weight'"),
            (dict(FILES, schema=dict(SCHEMA, label=3)), "dataset schema 'label' must be a string, got 3"),
            (
                dict(FILES, schema=dict(SCHEMA, sensitive_pos_value=[1])),
                "dataset schema 'sensitive_pos_value' must be a string or a number, got [1]",
            ),
            (
                dict(FILES, schema=dict(SCHEMA, drop="f0")),
                "dataset schema 'drop' must be a list of column names, got 'f0'",
            ),
        ],
    )
    def test_malformed_entry_rejected(self, entry, line):
        # a missing key failed as a bare KeyError when the dataset loaded, and
        # synth beside node_csv trained on the synthetic graph alone
        with pytest.raises(ValueError, match=rf"^{re.escape(line)}$"):
            small_cfg(dataset=entry)

    @pytest.mark.parametrize(
        "entry",
        [
            {},
            {"synth": {}},
            FILES,
            dict(FILES, name="nba", schema=dict(SCHEMA, sensitive_pos_value=1, drop=["f0"])),
        ],
    )
    def test_well_formed_entry_accepted(self, entry):
        assert small_cfg(dataset=entry).dataset == entry

    def test_an_empty_entry_is_refused_only_when_loaded(self, small_dataset):
        # train.run with a dataset passed in reads no entry
        cfg = small_cfg(dataset={})
        (report,), _, _ = run(cfg, small_dataset, save=False)
        assert np.isfinite(report.accuracy)
        with pytest.raises(ValueError, match=r"^dataset entry is empty: expected "):
            train.load_run_dataset(cfg)


class TestTrainOne:
    @pytest.mark.parametrize("scheme", train.SCHEMES)
    def test_all_schemes_smoke(self, scheme, small_dataset):
        cfg = small_cfg(scheme=scheme, epochs=1)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        _, report, trace = train_one(cfg, small_dataset, masks, 0)
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.dp <= 1.0
        assert np.isfinite(trace.train_loss).all()
        assert report.wall_time_ms > 0.0

    def test_bitwise_deterministic(self, small_dataset):
        cfg = small_cfg(epochs=3)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        m1, r1, t1 = train_one(cfg, small_dataset, masks, 0)
        m2, r2, t2 = train_one(cfg, small_dataset, masks, 0)
        assert np.array_equal(m1.theta, m2.theta)
        assert (r1.accuracy, r1.dp, r1.eo, r1.fairness_obj) == (
            r2.accuracy,
            r2.dp,
            r2.eo,
            r2.fairness_obj,
        )
        assert t1.train_loss == t2.train_loss

    def test_lambda_f_zero_matches_teleport_propagation(self, small_dataset):
        # zero dual radius reduces the debiasing layer to personalized-
        # PageRank-style propagation with teleport 1/(1 + lambda_s)
        lam_s = 1.0
        fair_cfg = small_cfg(lambda_s=lam_s, lambda_f=0.0, epochs=3, num_layers=2)
        base_cfg = small_cfg(
            scheme="appnp", alpha=1.0 / (1.0 + lam_s), prop_k=2, epochs=3
        )
        masks = make_splits(small_dataset, fair_cfg.split_fractions, 0)
        m1, r1, _ = train_one(fair_cfg, small_dataset, masks, 0)
        m2, r2, _ = train_one(base_cfg, small_dataset, masks, 0)
        assert np.array_equal(m1.theta, m2.theta)
        assert (r1.accuracy, r1.dp, r1.eo) == (r2.accuracy, r2.dp, r2.eo)

    def test_evaluate_matches_training_report(self, small_dataset):
        # the report comes from the selected epoch's logits, which scored the
        # returned weights: a fresh evaluation of them gives the same bits
        masks = make_splits(small_dataset, (0.5, 0.25, 0.25), 0)
        for scheme in train.SCHEMES:
            for selection in ("val_acc", "last"):
                cfg = small_cfg(scheme=scheme, selection=selection, epochs=4, lr=0.05)
                model, report, _ = train_one(cfg, small_dataset, masks, 0)
                again = evaluate(cfg, model, small_dataset, masks, seed=0, mask_name="test")
                fields = ("accuracy", "dp", "eo", "fairness_obj", "n_eval", "config_fingerprint")
                for name in fields:
                    assert getattr(again, name) == getattr(report, name), (scheme, selection, name)

    def test_checkpoint_round_trip_metrics(self, small_dataset, tmp_path):
        cfg = small_cfg(epochs=2)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        model, report, _ = train_one(cfg, small_dataset, masks, 0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg)
        loaded = load_checkpoint(path, cfg)
        again = evaluate(cfg, loaded, small_dataset, masks, seed=0)
        assert abs(again.accuracy - report.accuracy) <= 1e-12
        assert abs(again.fairness_obj - report.fairness_obj) <= 1e-12

    @pytest.mark.parametrize("scheme", ["fair", "mlp"])
    @pytest.mark.parametrize("seed", range(4))
    def test_selected_model_scores_its_trace_entry(self, scheme, seed):
        # the model returned is the one whose validation accuracy the trace
        # records at best_epoch, not the one after that epoch's update
        dataset = synth_generate(SynthConfig(n=200, mean_degree=4.0, feat_dim=6, seed=seed))
        cfg = small_cfg(scheme=scheme, epochs=8, lr=0.05)
        masks = make_splits(dataset, cfg.split_fractions, seed)
        best, _, trace = train_one(cfg, dataset, masks, seed)
        again = evaluate(cfg, best, dataset, masks, seed=seed, mask_name="val")
        assert again.accuracy == trace.val_accuracy[trace.best_epoch]

    def test_evaluate_reports_the_seed_of_its_split(self, small_dataset):
        # a row written from the report belongs under the split's (fingerprint, seed)
        cfg = small_cfg(epochs=1)
        masks = make_splits(small_dataset, cfg.split_fractions, 3)
        model, report, _ = train_one(cfg, small_dataset, masks, 3)
        assert report.seed == 3
        assert evaluate(cfg, model, small_dataset, masks).seed == 3
        assert evaluate(cfg, model, small_dataset, masks, seed=3).seed == 3

    def test_evaluate_refuses_a_seed_other_than_its_split(self, small_dataset):
        cfg = small_cfg(epochs=1)
        masks = make_splits(small_dataset, cfg.split_fractions, 3)
        model, _, _ = train_one(cfg, small_dataset, masks, 3)
        with pytest.raises(ValueError, match=r"^seed 0 is not the seed of the split, 3$"):
            evaluate(cfg, model, small_dataset, masks, seed=0)

    def test_selection_last_differs_from_best(self, small_dataset):
        cfg = small_cfg(epochs=5, selection="last")
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        _, _, trace = train_one(cfg, small_dataset, masks, 0)
        assert trace.best_epoch == cfg.epochs - 1

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("scheme", ["fair", "appnp", "ml1"])
    def test_one_class_labels_are_refused_before_the_first_epoch(self, scheme, label, monkeypatch):
        dataset = synth_generate(SynthConfig(n=200, mean_degree=4.0, feat_dim=6, seed=0))
        dataset = dataclasses.replace(dataset, labels=np.full_like(dataset.labels, label))
        masks = make_splits(dataset, (0.5, 0.25, 0.25), 0)
        losses, loss = [], ad.cross_entropy_with_logits
        monkeypatch.setattr(ad, "cross_entropy_with_logits", lambda *a: losses.append(1) or loss(*a))
        message = rf"^labeled nodes hold one class \({label}\): node classification needs at least 2$"
        with pytest.raises(ValueError, match=message):
            train_one(small_cfg(scheme=scheme, epochs=3), dataset, masks, 0)
        assert losses == []

    @pytest.mark.parametrize("scheme", ["fair", "appnp", "ml1"])
    def test_three_classes_are_refused_before_the_first_epoch(self, small_dataset, scheme, monkeypatch):
        # the stack propagates the one logit contrast of two classes, and the
        # parity gaps read class 1 as the positive class
        dataset = three_classes(small_dataset)
        masks = make_splits(dataset, (0.5, 0.25, 0.25), 0)
        losses, loss = [], ad.cross_entropy_with_logits
        monkeypatch.setattr(ad, "cross_entropy_with_logits", lambda *a: losses.append(1) or loss(*a))
        with pytest.raises(ValueError, match=THREE_CLASSES):
            train_one(small_cfg(scheme=scheme, epochs=3), dataset, masks, 0)
        assert losses == []

    def test_evaluate_refuses_three_classes_with_the_training_line(self, small_dataset):
        cfg = small_cfg(epochs=1)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        model, _, _ = train_one(cfg, small_dataset, masks, 0)
        with pytest.raises(ValueError, match=THREE_CLASSES):
            evaluate(cfg, model, three_classes(small_dataset), masks)

    def test_evaluate_refuses_a_checkpoint_of_three_outputs(self, small_dataset, tmp_path):
        cfg = small_cfg()
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        mlp_cfg = MlpConfig(in_dim=small_dataset.features.shape[1], hidden=cfg.hidden, out_dim=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_weights(mlp_cfg, 0), cfg)
        message = r"^the model outputs 3 classes: fairprop is two-class, labels 0 and 1$"
        with pytest.raises(ValueError, match=message):
            evaluate(cfg, load_checkpoint(path, cfg), small_dataset, masks)


class CountingAdjacency:
    """The normalized adjacency, counting its matrix-vector passes."""

    def __init__(self, adjacency):
        self.adjacency, self.products = adjacency, 0

    def __matmul__(self, other):
        self.products += 1 if other.ndim == 1 else other.shape[1]
        return self.adjacency @ other


def _epoch_increase(dataset, count, **overrides):
    """How much ``count()`` grows from a 1-epoch to a 2-epoch ``train_one``."""
    masks = make_splits(dataset, (0.5, 0.25, 0.25), 0)
    counts = []
    for epochs in (1, 2):
        before = count()
        train_one(small_cfg(epochs=epochs, **overrides), dataset, masks, 0)
        counts.append(count() - before)
    return counts[1] - counts[0]


class TestSparseProducts:
    @staticmethod
    def _epoch_products(dataset, **overrides):
        counter = CountingAdjacency(dataset.graph.adjacency)
        graph = dataclasses.replace(dataset.graph, adjacency=counter)
        dataset = dataclasses.replace(dataset, graph=graph)
        return _epoch_increase(dataset, lambda: counter.products, **overrides)

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("lambda_f", [0.0, 5.0])
    @pytest.mark.parametrize("scheme", ["fair", "ml1"])
    def test_epoch_makes_two_per_layer_and_class(self, small_dataset, scheme, lambda_f, layers):
        # one forward and one backward product per layer, each a matrix-vector
        # pass on the one logit contrast: the reverse sweep pulls the primal
        # and dual cotangents through the aggregation at once
        increase = self._epoch_products(
            small_dataset, scheme=scheme, lambda_f=lambda_f, num_layers=layers
        )
        assert increase == 2 * layers


class TestZeroFairWeightGuard:
    """The fairness terms read softmaxes, and only at lambda_f > 0:
    ``_binary_softmax`` of the one logit contrast, in closed form; the
    general ``_softmax`` runs in no epoch."""

    @staticmethod
    def _epoch_softmaxes(dataset, monkeypatch, **overrides):
        """How many (``_softmax``, ``_binary_softmax``) calls an epoch makes."""
        names = ("_softmax", "_binary_softmax")
        calls = dict.fromkeys(names, 0)
        for name in names:

            def counting(F, name=name, softmax=getattr(debias, name)):
                calls[name] += 1
                return softmax(F)

            monkeypatch.setattr(debias, name, counting)
        return tuple(_epoch_increase(dataset, lambda: np.array([calls[n] for n in names]), **overrides))

    @pytest.mark.parametrize("lambda_f", [0.0, 5.0])
    @pytest.mark.parametrize("scheme", ["fair", "ml1"])
    def test_softmax_runs_only_with_a_fairness_weight(self, small_dataset, scheme, lambda_f, monkeypatch):
        # at lambda_f = 0 both duals are 0 and the stack is the aggregation alone
        softmax, binary = self._epoch_softmaxes(small_dataset, monkeypatch, scheme=scheme, lambda_f=lambda_f)
        assert softmax == 0
        assert binary > 0 if lambda_f > 0 else binary == 0


class TestTrainMemory:
    def test_traced_peak_of_a_two_epoch_fair_run(self):
        # One stage for the whole MLP, no gradient for the constant
        # features, and pullbacks that free what they keep as they run keep
        # this run near 5.3 MiB (the tape they replaced, freeing each record
        # and gradient once used, read the same; 7.4 MiB with one dense
        # record per MLP layer). Three records per layer, with every
        # gradient kept until backward returns, peaked near 27 MiB.
        rng = np.random.default_rng(0)
        n, d, m = 20_000, 16, 100_000
        a = rng.integers(n, size=m)
        b = (a + rng.integers(1, n, size=m)) % n
        dataset = Dataset(
            graph=build_graph(n, np.stack([a, b], axis=1)),
            features=rng.standard_normal((n, d)),
            sensitive=np.where(rng.random(n) < 0.5, 1, -1),
            labels=rng.integers(2, size=n),
        )
        cfg = RunConfig(scheme="fair", hidden=[16], epochs=2, seeds=[0])
        masks = make_splits(dataset, cfg.split_fractions, 0)

        tracemalloc.start()
        try:
            train_one(cfg, dataset, masks, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"train_one peaked at {peak / 2**20:.1f} MiB"


    def test_holds_no_standardized_copy_of_the_features(self):
        # The first MLP layer standardizes the features as it reads them, so
        # a run holds no n x d standardized copy (12.2 MiB here). Measured:
        # 16.8 MiB with the fold (19.1 MiB with one dense record per MLP
        # layer), 31.3 MiB with a copy; 13.3 MiB with pullbacks, which free
        # the MLP's output once the stack has read it (14.1 MiB on the tape
        # they replaced). The bound leaves less than one n x d float64 array
        # of headroom above 19.1 MiB.
        rng = np.random.default_rng(0)
        n, d, m = 50_000, 32, 250_000
        a = rng.integers(n, size=m)
        b = (a + rng.integers(1, n, size=m)) % n
        dataset = Dataset(
            graph=build_graph(n, np.stack([a, b], axis=1)),
            features=rng.standard_normal((n, d)),
            sensitive=np.where(rng.random(n) < 0.5, 1, -1),
            labels=rng.integers(2, size=n),
        )
        cfg = RunConfig(scheme="fair", hidden=[16], epochs=2, seeds=[0])
        masks = make_splits(dataset, cfg.split_fractions, 0)
        bound = 19.1 * 2**20 + n * d * 8 / 2

        tracemalloc.start()
        try:
            train_one(cfg, dataset, masks, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"train_one peaked at {peak / 2**20:.1f} MiB"

    def test_mlp_backward_writes_each_hidden_cotangent_into_its_activation(self):
        # The MLP stage keeps its n x 64 hidden activation without a ReLU
        # mask, and its pullback writes the hidden layer's cotangent into
        # it. Measured: 30.3 MiB (30.2 MiB with pullbacks, as on the tape
        # they replaced); 54.6 MiB with one dense record per layer,
        # which keeps a bool mask and allocates a new n x 64 cotangent while
        # the activation is alive. The bound leaves half an n x 64 float64
        # array of headroom.
        rng = np.random.default_rng(0)
        n, d, m = 50_000, 16, 250_000
        a = rng.integers(n, size=m)
        b = (a + rng.integers(1, n, size=m)) % n
        dataset = Dataset(
            graph=build_graph(n, np.stack([a, b], axis=1)),
            features=rng.standard_normal((n, d)),
            sensitive=np.where(rng.random(n) < 0.5, 1, -1),
            labels=rng.integers(2, size=n),
        )
        cfg = RunConfig(scheme="mlp", hidden=[64], epochs=2, seeds=[0])
        masks = make_splits(dataset, cfg.split_fractions, 0)
        bound = 30.3 * 2**20 + n * 64 * 8 / 2

        tracemalloc.start()
        try:
            train_one(cfg, dataset, masks, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"train_one peaked at {peak / 2**20:.1f} MiB"


def _logits_and_gradients(cfg, dataset, masks):
    """A fresh MLP's logits under ``cfg`` and the train loss's gradient of each MLP parameter."""
    delta = incident_vector(dataset.sensitive)
    features, forward = train.prepare(cfg, dataset, masks, delta)
    mlp = init_weights(MlpConfig(in_dim=features.shape[1], hidden=cfg.hidden, out_dim=2), 0)
    logits, pullback = forward(mlp, features)
    _, dlogits = ad.cross_entropy_with_logits(logits, ad.RowLabels.of(dataset.labels, masks.train))
    grad = pullback(dlogits)
    return logits, [a for layer in _layer_views(grad, mlp.config.layer_dims()) for a in layer]


class TestStandardizeInFirstLayer:
    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
    @pytest.mark.parametrize("scheme", ["mlp", "appnp", "ppnp_exact", "fair", "ml1"])
    def test_matches_standardizing_a_copy(self, scheme, offset):
        # The fold cancels the shift against the features, in the forward
        # pass and in the weight gradient, so its error grows like
        # |shift| / scale * eps: measured up to 5.5e-12 (logits) and 7.1e-11
        # (gradients) relative at offset 1e4, against a tolerance of 4.4e-10.
        rng = np.random.default_rng(1)
        n, m = 300, 1500
        a = rng.integers(n, size=m)
        b = (a + rng.integers(1, n, size=m)) % n
        features = rng.standard_normal((n, 4)) * [1.0, 0.5, 2.0, 3.0] + offset
        features = np.column_stack([features, np.full(n, offset + 0.7)])  # a constant column
        dataset = Dataset(
            graph=build_graph(n, np.stack([a, b], axis=1)),
            features=features,
            sensitive=np.where(rng.random(n) < 0.4, 1, -1),
            labels=rng.integers(2, size=n),
        )
        cfg = RunConfig(scheme=scheme, hidden=[8], lambda_f=5.0, prop_k=3, num_layers=3, seeds=[0])
        masks = make_splits(dataset, cfg.split_fractions, 0)
        stats = standardize_features(features, masks.train)
        tol = 100 * (1 + np.max(np.abs(stats.shift) / stats.scale)) * np.finfo(np.float64).eps

        logits, grads = _logits_and_gradients(cfg, dataset, masks)
        copied = dataclasses.replace(dataset, features=stats.apply(features))
        expected, expected_grads = _logits_and_gradients(
            dataclasses.replace(cfg, standardize=False), copied, masks
        )

        def assert_close(actual, oracle):
            assert np.abs(actual - oracle).max() <= tol * np.abs(oracle).max()

        assert_close(logits, expected)
        assert len(grads) == len(expected_grads) == 4
        for grad, oracle in zip(grads, expected_grads):
            assert_close(grad, oracle)

    def test_constant_column_has_no_effect(self):
        # Over 2,500 train rows the mean of 3.3 is an ulp off and the std
        # about 1e-13: the column used to read -1 on every row, and folded
        # into the first layer it would be scaled by about 1e13
        n = 5000
        rng = np.random.default_rng(0)
        dataset = Dataset(
            graph=build_graph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)),
            features=np.column_stack([rng.standard_normal(n), np.full(n, 3.3)]),
            sensitive=np.where(np.arange(n) % 2 == 0, 1, -1),
            labels=rng.integers(2, size=n),
        )
        without = dataclasses.replace(dataset, features=dataset.features[:, :1])
        for scheme in ("mlp", "sgc"):
            cfg = small_cfg(scheme=scheme, hidden=[])
            masks = make_splits(dataset, cfg.split_fractions, 0)
            delta = incident_vector(dataset.sensitive)
            mlp = init_weights(MlpConfig(in_dim=2, hidden=[], out_dim=2), 0)
            one = init_weights(MlpConfig(in_dim=1, hidden=[], out_dim=2), 0)
            one.theta[:] = np.concatenate([mlp.weights[0][0], mlp.biases[0]])
            logits = []
            for data, model in ((dataset, mlp), (without, one)):
                features, forward = train.prepare(cfg, data, masks, delta)
                logits.append(forward(model, features)[0])
            np.testing.assert_allclose(logits[0], logits[1], rtol=0, atol=1e-12)


class TestPpnpKernel:
    def test_solved_once_per_train_and_per_evaluate(self, small_dataset, monkeypatch):
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return ppnp_exact(*args, **kwargs)

        monkeypatch.setattr(train, "ppnp_exact", counting)
        cfg = small_cfg(scheme="ppnp_exact", epochs=5)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        model, _, _ = train_one(cfg, small_dataset, masks, 0)
        assert len(solves) == 1
        evaluate(cfg, model, small_dataset, masks)
        assert len(solves) == 2

    def test_logits_match_a_fresh_solve(self, small_dataset):
        cfg = small_cfg(scheme="ppnp_exact", standardize=False)
        mlp = init_weights(MlpConfig(in_dim=6, hidden=[8], out_dim=2), 0)
        delta = incident_vector(small_dataset.sensitive)
        features, forward = train.prepare(cfg, small_dataset, None, delta)
        logits, _ = forward(mlp, features)
        x_trans, _ = mlp_forward(mlp, small_dataset.features)
        expected = ppnp_exact(small_dataset.graph, x_trans, cfg.alpha)
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)


    def test_logits_and_gradient_equal_the_matmul_chain(self, small_dataset):
        # the forward computes K X itself, K the kernel: its logits and theta
        # gradient are those of the MLP then the tests' matmul oracle on the
        # constant kernel, bit for bit
        cfg = small_cfg(scheme="ppnp_exact")
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        features, forward = train.prepare(cfg, small_dataset, masks, incident_vector(small_dataset.sensitive))
        stats = standardize_features(small_dataset.features, masks.train)
        kernel = ppnp_exact(small_dataset.graph, np.eye(small_dataset.graph.n), cfg.alpha)
        mlp = init_weights(MlpConfig(in_dim=6, hidden=[8], out_dim=2), 0)
        labels = ad.RowLabels.of(small_dataset.labels, masks.train)

        def chain(mlp, x):
            # the MLP, then the product, pulled back by hand
            x_trans, mlp_pullback = mlp_forward(mlp, x, stats)
            logits, product_pullback = matmul(kernel, x_trans)
            return logits, lambda g: mlp_pullback(product_pullback(g)[1])

        def run(fwd):
            logits, pullback = fwd(mlp, features)
            _, dlogits = ad.cross_entropy_with_logits(logits, labels)
            return logits.tobytes(), pullback(dlogits).tobytes()

        assert run(forward) == run(chain)


class TestFairSteps:
    @pytest.mark.parametrize("scheme", ["fair", "ml1"])
    def test_taken_once_per_run(self, small_dataset, monkeypatch, scheme):
        calls = []
        steps = debias.steps

        def counting(lambda_s):
            calls.append(lambda_s)
            return steps(lambda_s)

        monkeypatch.setattr(debias, "steps", counting)
        cfg = small_cfg(scheme=scheme, epochs=3)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        train_one(cfg, small_dataset, masks, 0)
        assert calls == [cfg.lambda_s]


class WidthRecordingAdjacency:
    """The normalized adjacency, recording the width of each product's operand."""

    def __init__(self, adjacency):
        self.adjacency, self.shape, self.widths = adjacency, adjacency.shape, []

    def __matmul__(self, other):
        self.widths.append(1 if other.ndim == 1 else other.shape[1])
        return self.adjacency @ other


class TestGcn:
    @pytest.mark.parametrize("hidden", [[], [8], [8, 5]])
    def test_logits_match_the_per_layer_oracle(self, small_dataset, hidden):
        # (A X) W + (A 1) b in the first layer is A (X W + b) up to the last ulp
        cfg = small_cfg(scheme="gcn", hidden=hidden)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        mlp = init_weights(MlpConfig(in_dim=6, hidden=hidden, out_dim=2), 0)
        rng = np.random.default_rng(0)
        mlp.theta += rng.standard_normal(mlp.theta.shape)
        delta = incident_vector(small_dataset.sensitive)
        features, forward = train.prepare(cfg, small_dataset, masks, delta)
        logits, _ = forward(mlp, features)
        h = standardize_features(small_dataset.features, masks.train).apply(small_dataset.features)
        expected = gcn_oracle(small_dataset.graph, mlp, h)
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)

    @staticmethod
    def _model(dataset, hidden):
        """``gcn``'s forward pass on ``dataset``, its input, its row sums A 1 and perturbed weights."""
        cfg = small_cfg(scheme="gcn", hidden=hidden)
        masks = make_splits(dataset, cfg.split_fractions, 0)
        features, forward = train.prepare(cfg, dataset, masks, incident_vector(dataset.sensitive))
        mlp = init_weights(MlpConfig(in_dim=6, hidden=hidden, out_dim=2), 0)
        rng = np.random.default_rng(1)
        mlp.theta += rng.standard_normal(mlp.theta.shape)
        row_sums = dataset.graph.adjacency @ np.ones(dataset.graph.n)
        return forward, features, row_sums, mlp, masks

    @pytest.mark.parametrize("hidden", [[], [8], [8, 5]])
    def test_logits_and_gradients_equal_the_per_layer_chain(self, small_dataset, hidden):
        # one dense step per layer, the later ones followed by A and the ReLU
        forward, features, row_sums, mlp, masks = self._model(small_dataset, hidden)
        labels = ad.RowLabels.of(small_dataset.labels, masks.train)

        def run(fwd):
            # the logits and the flat parameter gradient (the oracle's joined)
            logits, pullback = fwd(mlp, features)
            _, dlogits = ad.cross_entropy_with_logits(logits, labels)
            return logits.tobytes(), pullback(dlogits).tobytes()

        adjacency = small_dataset.graph.adjacency
        assert run(forward) == run(
            lambda mlp, x: per_layer_mlp(mlp, x, adjacency=adjacency, row_scale=row_sums)
        )

    def test_gradients_match_finite_differences(self, small_dataset):
        forward, features, _, mlp, masks = self._model(small_dataset, [8, 5])
        labels = ad.RowLabels.of(small_dataset.labels, masks.train)

        def loss(probe):
            logits, pullback = forward(probe, features)
            value, dlogits = ad.cross_entropy_with_logits(logits, labels)
            return value, dlogits, pullback

        _, dlogits, pullback = loss(mlp)
        grad = pullback(dlogits)

        def f(v):
            probe = mlp.copy()
            probe.theta[:] = v
            return loss(probe)[0]

        assert_close_rel(grad, finite_diff(f, mlp.theta), rtol=1e-5, afloor=1e-8)

    @pytest.mark.parametrize("hidden", [[8], [8, 5]])
    def test_forward_records_one_entry(self, small_dataset, hidden, monkeypatch):
        # the whole model is the one MLP stage, with no stack after it
        forward, features, _, mlp, _ = self._model(small_dataset, hidden)
        calls, mlp_forward_, stack = [], train.mlp_forward, debias.stack
        monkeypatch.setattr(train, "mlp_forward", lambda *a, **k: calls.append("mlp") or mlp_forward_(*a, **k))
        monkeypatch.setattr(debias, "stack", lambda *a, **k: calls.append("stack") or stack(*a, **k))
        logits, pullback = forward(mlp, features)
        assert calls == ["mlp"]
        assert pullback(np.ones(logits.shape)).shape == mlp.theta.shape

    def test_epoch_makes_only_out_dim_wide_products(self, small_dataset):
        # A X and A 1 are computed once per run; an epoch multiplies by A only
        # in the layers after the first, whose output is out_dim wide
        counter = WidthRecordingAdjacency(small_dataset.graph.adjacency)
        graph = dataclasses.replace(small_dataset.graph, adjacency=counter)
        dataset = dataclasses.replace(small_dataset, graph=graph)
        widths = []
        for epochs in (1, 2):
            counter.widths = []
            masks = make_splits(dataset, (0.5, 0.25, 0.25), 0)
            train_one(small_cfg(scheme="gcn", epochs=epochs), dataset, masks, 0)
            widths.append(collections.Counter(counter.widths))
        assert widths[1] - widths[0] == {2: 2}
        assert widths[0] == {6: 1, 1: 1, 2: 2}


class TestSgc:
    def test_logits_are_mlp_on_propagated_features(self, small_dataset):
        cfg = small_cfg(scheme="sgc", prop_k=3)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        mlp = init_weights(MlpConfig(in_dim=6, hidden=[8], out_dim=2), 0)
        delta = incident_vector(small_dataset.sensitive)
        features, forward = train.prepare(cfg, small_dataset, masks, delta)
        logits, _ = forward(mlp, features)

        h = standardize_features(small_dataset.features, masks.train).apply(small_dataset.features)
        for _ in range(cfg.prop_k):
            h = small_dataset.graph.dense_adjacency() @ h
        expected, _ = mlp_forward(mlp, h)
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)

    def test_epoch_makes_no_sparse_products(self, small_dataset):
        # the features are propagated prop_k times once per run, and an epoch
        # multiplies by A nowhere
        counter = WidthRecordingAdjacency(small_dataset.graph.adjacency)
        dataset = dataclasses.replace(
            small_dataset, graph=dataclasses.replace(small_dataset.graph, adjacency=counter)
        )
        for epochs in (1, 2):
            counter.widths = []
            cfg = small_cfg(scheme="sgc", prop_k=3, epochs=epochs)
            train_one(cfg, dataset, make_splits(dataset, cfg.split_fractions, 0), 0)
            assert counter.widths == [6, 6, 6]


class TestAppnp:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("prop_k", [0, 1, 2, 3])
    def test_logits_match_the_numpy_oracle(self, small_dataset, prop_k, alpha):
        # prop_k teleport steps on the MLP output, checked against numpy steps
        # that share no code with the library
        cfg = small_cfg(scheme="appnp", prop_k=prop_k, alpha=alpha)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        mlp = init_weights(MlpConfig(in_dim=6, hidden=[8], out_dim=2), 0)
        delta = incident_vector(small_dataset.sensitive)
        features, forward = train.prepare(cfg, small_dataset, masks, delta)
        logits, _ = forward(mlp, features)

        # prepare's input is the raw features, standardized in the MLP's first layer
        stats = standardize_features(small_dataset.features, masks.train)
        x_trans = mlp_forward(mlp, features, stats)[0]
        expected = x_trans
        for _ in range(prop_k):
            expected = appnp_step(small_dataset.graph, expected, x_trans, alpha)
        # the stack propagates logit contrasts, so the two agree per node up to
        # a constant and rounding
        np.testing.assert_allclose(centred(logits), centred(expected), rtol=0, atol=1e-12)


class TestRunAndSweep:
    def test_run_saves_artifacts(self, tmp_path):
        cfg = small_cfg(epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        reports, models, traces = run(cfg)
        assert len(reports) == len(models) == len(traces) == 2
        results = read_results(tmp_path / "out" / "results.csv")
        assert [r.seed for r in results] == [0, 1]
        fp = cfg.fingerprint()
        for seed in (0, 1):
            assert (tmp_path / "out" / f"{fp}-seed{seed}.json").exists()

    def test_training_twice_keeps_one_row_per_seed(self, tmp_path):
        cfg = small_cfg(epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        run(cfg)
        (kept,), _, _ = run(dataclasses.replace(cfg, lambda_s=4.0, seeds=[0]))
        second, _, _ = run(cfg)
        # the first run's rows give way to the second's; another config's row stays
        assert read_results(tmp_path / "out" / "results.csv") == [kept, *second]

    def test_sweep_and_resume(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        started = count_runs(monkeypatch)
        rows, path = sweep(cfg, [0.5, 1.0], [0.0, 5.0])
        assert len(rows) == len(started) == 4
        # a fresh sweep returns the runs it trained, in file order
        assert rows == read_results(path)
        assert [(r.lambda_s, r.lambda_f, r.seed) for r in rows] == started
        # resuming the same sweep trains nothing new and returns the same rows
        again, _ = sweep(cfg, [0.5, 1.0], [0.0, 5.0])
        assert len(started) == 4
        assert again == rows
        assert len(read_results(path)) == 4

    def test_sweep_refuses_three_classes_before_any_run(self, small_dataset, tmp_path, monkeypatch):
        # one line for the sweep, not a failed row per run
        dataset = file_dataset(three_classes(small_dataset), tmp_path)
        cfg = small_cfg(dataset=dataset, epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        started = count_runs(monkeypatch)
        with pytest.raises(ValueError, match=THREE_CLASSES):
            sweep(cfg, [1.0], [0.0, 5.0])
        assert started == []
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_resume_with_nothing_left_loads_no_dataset(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        sweep(cfg, [0.5, 1.0], [0.0, 5.0])

        def refuse(cfg):
            raise AssertionError("a resume with nothing to train loaded the dataset")

        monkeypatch.setattr(train, "load_run_dataset", refuse)
        started = count_runs(monkeypatch)
        again, path = sweep(cfg, [0.5, 1.0], [0.0, 5.0])
        assert started == []
        assert again == read_results(path)
        assert len(read_results(path)) == 8

    def test_resume_retrains_after_a_data_file_is_edited(
        self, small_dataset, tmp_path, monkeypatch
    ):
        dataset = file_dataset(small_dataset, tmp_path)
        cfg = small_cfg(dataset=dataset, epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        _, path = sweep(cfg, [1.0], [5.0])
        edit_first_feature(dataset["node_csv"], "7.5")
        started = count_runs(monkeypatch)
        again, _ = sweep(cfg, [1.0], [5.0])
        assert started == [(1.0, 5.0, 0)]
        assert [(r.lambda_f, r.seed) for r in again] == [(5.0, 0)]
        assert len(read_results(path)) == 2

    def test_resume_retrains_rows_of_another_synth_generator(self, tmp_path, monkeypatch):
        # rows written under an older generator came from another graph
        cfg = small_cfg(epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        monkeypatch.setattr(train, "SYNTH_GENERATOR", train.SYNTH_GENERATOR - 1)
        _, path = sweep(cfg, [1.0], [5.0])
        monkeypatch.undo()
        started = count_runs(monkeypatch)
        again, _ = sweep(cfg, [1.0], [5.0])
        assert started == [(1.0, 5.0, 0)]
        assert [(r.lambda_f, r.seed) for r in again] == [(5.0, 0)]
        assert len(read_results(path)) == 2

    def test_resume_after_torn_row(self, tmp_path, monkeypatch):
        # an interrupted append leaves the last row without its line ending
        cfg = small_cfg(epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        _, path = sweep(cfg, [0.5], [0.0, 5.0])
        with open(path, newline="") as f:
            text = f.read()
        last_row = text.rstrip("\r\n").rfind("\n") + 1
        with open(path, "w", newline="") as f:
            f.write(text[: last_row + 12])
        started = count_runs(monkeypatch)
        again, _ = sweep(cfg, [0.5], [0.0, 5.0])
        assert started == [(0.5, 5.0, 0)]
        rows = read_results(path)
        assert [(r.lambda_f, r.seed) for r in rows] == [(0.0, 0), (5.0, 0)]
        assert again == rows

    def test_resume_retries_failed_rows(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        real_train_one = train.train_one

        def flaky(point, dataset, masks, seed):
            if point.lambda_f == 5.0 and seed == 0:
                raise FloatingPointError("diverged")
            return real_train_one(point, dataset, masks, seed)

        monkeypatch.setattr(train, "train_one", flaky)
        finished, path = sweep(cfg, [0.5], [0.0, 5.0])
        first = read_results(path)
        assert [np.isfinite(r.accuracy) for r in first] == [True, True, False, True]
        # the failed run's NaN row is in the file but not among the finished rows
        assert finished == [first[0], first[1], first[3]]
        with open(path, "rb") as f:
            lines = f.read().splitlines(keepends=True)

        monkeypatch.setattr(train, "train_one", real_train_one)
        started = count_runs(monkeypatch)
        again, _ = sweep(cfg, [0.5], [0.0, 5.0])
        assert started == [(0.5, 5.0, 0)]
        assert again[:3] == finished
        assert (again[-1].lambda_f, again[-1].seed) == (5.0, 0)
        assert np.isfinite(again[-1].accuracy)
        with open(path, "rb") as f:
            retried = f.read().splitlines(keepends=True)
        # the failed row is gone, every other row is kept byte for byte
        assert retried[:-1] == lines[:3] + lines[4:]
        rows = read_results(path)
        assert len({(r.config_fingerprint, r.seed) for r in rows}) == len(rows) == 4
        assert all(np.isfinite(r.accuracy) for r in rows)
        assert again == rows
        # a further resume trains nothing
        assert sweep(cfg, [0.5], [0.0, 5.0])[0] == rows
        assert len(started) == 1

    def test_a_failed_rewrite_keeps_every_finished_row(self, tmp_path, monkeypatch):
        # a resume drops a failed run's row by rewriting the results file; a
        # crash part-way through the rewrite leaves the old file whole
        out = tmp_path / "out"
        cfg = small_cfg(epochs=1, seeds=[0, 1], out_dir=str(out))
        real_train_one = train.train_one

        def flaky(point, dataset, masks, seed):
            if point.lambda_f == 5.0 and seed == 0:
                raise FloatingPointError("diverged")
            return real_train_one(point, dataset, masks, seed)

        monkeypatch.setattr(train, "train_one", flaky)
        _, path = sweep(cfg, [0.5], [0.0, 5.0])
        before, files = pathlib.Path(path).read_bytes(), sorted(os.listdir(out))
        row, rows_written = MetricsReport.row, []

        def crashing(report):
            if rows_written:
                raise OSError("disk full")
            rows_written.append(report)
            return row(report)

        monkeypatch.setattr(MetricsReport, "row", crashing)
        with pytest.raises(OSError, match="disk full"):
            sweep(cfg, [0.5], [0.0, 5.0])
        assert rows_written, "the rewrite was not reached"
        assert pathlib.Path(path).read_bytes() == before
        assert sorted(os.listdir(out)) == files

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_each_dataset_file_is_hashed_once(self, small_dataset, tmp_path, monkeypatch, command):
        hashed = collections.Counter()
        file_sha256 = train.file_sha256

        def counting(path):
            hashed[path] += 1
            return file_sha256(path)

        monkeypatch.setattr(train, "file_sha256", counting)
        dataset = file_dataset(small_dataset, tmp_path)
        cfg = small_cfg(dataset=dataset, epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        if command == "run":
            run(cfg)
        else:
            sweep(cfg, [0.5, 1.0], [0.0, 5.0])
        assert hashed == {dataset["node_csv"]: 1, dataset["edges"]: 1}
        # no digest outlives the command: the next one hashes the files again
        cfg.fingerprint()
        assert hashed == {dataset["node_csv"]: 2, dataset["edges"]: 2}

    def test_sweep_returns_the_grid_and_the_configured_seeds(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        _, path = sweep(cfg, [0.5], [0.0, 5.0])
        sweep(cfg, [1.0], [5.0])  # another grid point in the same file
        one_seed = dataclasses.replace(cfg, seeds=[1])
        started = count_runs(monkeypatch)
        rows, _ = sweep(one_seed, [0.5], [0.0, 5.0])
        assert started == []
        assert [(r.lambda_s, r.lambda_f, r.seed) for r in rows] == [(0.5, 0.0, 1), (0.5, 5.0, 1)]
        assert len(read_results(path)) == 6

    def test_resume_returns_kept_rows_then_new_runs(self, tmp_path, monkeypatch):
        # a seed added to a finished grid trains only that seed; the kept
        # rows come first, as in the file
        cfg = small_cfg(epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        kept, path = sweep(cfg, [0.5], [0.0, 5.0])
        started = count_runs(monkeypatch)
        rows, _ = sweep(dataclasses.replace(cfg, seeds=[0, 1]), [0.5], [0.0, 5.0])
        assert started == [(0.5, 0.0, 1), (0.5, 5.0, 1)]
        assert rows[:2] == kept
        assert [(r.lambda_f, r.seed) for r in rows] == [(0.0, 0), (5.0, 0), (0.0, 1), (5.0, 1)]
        assert rows == read_results(path)

    def test_summarize(self):
        cfg = small_cfg(epochs=1, seeds=[0, 1])
        dataset = synth_generate(SynthConfig(n=50, mean_degree=4.0, feat_dim=6, seed=0))
        reports, _, _ = run(cfg, dataset=dataset, save=False)
        summary = summarize(reports)
        key = (cfg.lambda_s, cfg.lambda_f)
        assert summary[key]["n"] == 2
        accs = [r.accuracy for r in reports]
        assert summary[key]["acc_mean"] == pytest.approx(np.mean(accs))
        assert summary[key]["acc_std"] == pytest.approx(np.std(accs, ddof=1))

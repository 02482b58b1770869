import collections
import dataclasses
import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from conftest import appnp_step, gcn_oracle
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
from fairprop.nn import MlpConfig, init_weights, load_checkpoint, mlp_forward, save_checkpoint
from fairprop.propagation import ppnp_exact
from fairprop.train import RunConfig, evaluate, run, summarize, sweep, train_one


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
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)
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
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)
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

    def test_selection_last_differs_from_best(self, small_dataset):
        cfg = small_cfg(epochs=5, selection="last")
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        _, _, trace = train_one(cfg, small_dataset, masks, 0)
        assert trace.best_epoch == cfg.epochs - 1


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
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("lambda_f", [0.0, 5.0])
    @pytest.mark.parametrize("scheme", ["fair", "ml1"])
    def test_epoch_makes_two_per_layer_and_class(self, small_dataset, scheme, lambda_f, layers):
        # one forward and one backward product per layer, each a matrix-vector
        # pass per class: the reverse sweep pulls the primal and dual
        # cotangents through the aggregation at once
        counter = CountingAdjacency(small_dataset.graph.adjacency)
        graph = dataclasses.replace(small_dataset.graph, adjacency=counter)
        dataset = dataclasses.replace(small_dataset, graph=graph)
        increase = _epoch_increase(
            dataset, lambda: counter.products, scheme=scheme, lambda_f=lambda_f, num_layers=layers
        )
        assert increase == 2 * layers * train._num_classes(small_dataset)


class TestZeroFairWeightGuard:
    @pytest.mark.parametrize("lambda_f", [0.0, 5.0])
    @pytest.mark.parametrize("scheme", ["fair", "ml1"])
    def test_softmax_runs_only_with_a_fairness_weight(self, small_dataset, scheme, lambda_f, monkeypatch):
        # at lambda_f = 0 both duals are 0 and the stack is the aggregation alone
        calls, softmax = [], debias._softmax

        def counting(F):
            calls.append(1)
            return softmax(F)

        monkeypatch.setattr(debias, "_softmax", counting)
        increase = _epoch_increase(small_dataset, lambda: len(calls), scheme=scheme, lambda_f=lambda_f)
        assert increase > 0 if lambda_f > 0 else increase == 0


class TestTrainMemory:
    def test_traced_peak_of_a_two_epoch_fair_run(self):
        # One dense record per MLP layer, no gradient for the constant
        # features, and each record and gradient freed once used keep this
        # run near 11.5 MiB. Three records per layer, with every gradient
        # kept until backward returns, peak near 27 MiB.
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
        cfg = small_cfg(scheme="ppnp_exact")
        mlp = init_weights(MlpConfig(in_dim=6, hidden=[8], out_dim=2), 0)
        kernel = train.scheme_constant(cfg, small_dataset)
        delta = incident_vector(small_dataset.sensitive)
        tape = ad.Tape()
        logits, _ = train.forward_logits(
            cfg, mlp, tape, tape.leaf(small_dataset.features), small_dataset, delta, kernel
        )
        t2 = ad.Tape()
        x_trans, _ = mlp_forward(mlp, t2, t2.leaf(small_dataset.features))
        expected = ppnp_exact(small_dataset.graph, x_trans.data, cfg.alpha)
        np.testing.assert_allclose(logits.data, expected, rtol=0, atol=1e-12)


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
        mlp.set_parameters([p + rng.standard_normal(p.shape) for p in mlp.parameters()])
        delta = incident_vector(small_dataset.sensitive)
        tape = ad.Tape()
        x = tape.leaf(train._prepare_features(cfg, small_dataset, masks))
        constant = train.scheme_constant(cfg, small_dataset)
        logits, _ = train.forward_logits(cfg, mlp, tape, x, small_dataset, delta, constant)
        h = standardize_features(small_dataset.features, masks.train)
        expected = gcn_oracle(small_dataset.graph, mlp, h)
        np.testing.assert_allclose(logits.data, expected, rtol=0, atol=1e-12)

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
        out_dim = train._num_classes(small_dataset)
        assert widths[1] - widths[0] == {out_dim: 2}
        assert widths[0] == {6: 1, 1: 1, out_dim: 2}

    def test_forward_needs_the_row_sums(self, small_dataset):
        cfg = small_cfg(scheme="gcn")
        mlp = init_weights(MlpConfig(in_dim=6, hidden=[8], out_dim=2), 0)
        tape = ad.Tape()
        with pytest.raises(ValueError, match="gcn needs the row sums"):
            train.forward_logits(
                cfg, mlp, tape, tape.leaf(small_dataset.features), small_dataset,
                incident_vector(small_dataset.sensitive),
            )


class TestSgc:
    def test_logits_are_mlp_on_propagated_features(self, small_dataset):
        cfg = small_cfg(scheme="sgc", prop_k=3)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        mlp = init_weights(MlpConfig(in_dim=6, hidden=[8], out_dim=2), 0)
        delta = incident_vector(small_dataset.sensitive)
        tape = ad.Tape()
        x = tape.leaf(train._prepare_features(cfg, small_dataset, masks))
        logits, _ = train.forward_logits(cfg, mlp, tape, x, small_dataset, delta)

        h = standardize_features(small_dataset.features, masks.train)
        for _ in range(cfg.prop_k):
            h = small_dataset.graph.dense_adjacency() @ h
        t2 = ad.Tape()
        expected, _ = mlp_forward(mlp, t2, t2.leaf(h))
        np.testing.assert_allclose(logits.data, expected.data, rtol=0, atol=1e-12)

    def test_epoch_records_no_spmm_const(self, small_dataset, monkeypatch):
        calls = []
        spmm_const = ad.spmm_const

        def counting(*args):
            calls.append(1)
            return spmm_const(*args)

        monkeypatch.setattr(ad, "spmm_const", counting)
        cfg = small_cfg(scheme="sgc", epochs=1)
        masks = make_splits(small_dataset, cfg.split_fractions, 0)
        train_one(cfg, small_dataset, masks, 0)
        assert calls == []


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
        features = train._prepare_features(cfg, small_dataset, masks)
        tape = ad.Tape()
        logits, _ = train.forward_logits(cfg, mlp, tape, tape.leaf(features), small_dataset, delta)

        t2 = ad.Tape()
        x_trans = mlp_forward(mlp, t2, t2.leaf(features))[0].data
        expected = x_trans
        for _ in range(prop_k):
            expected = appnp_step(small_dataset.graph, expected, x_trans, alpha)
        # bitwise: both sum each row of A F in the same order
        assert np.array_equal(logits.data, expected)


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

    def test_sweep_and_resume(self, tmp_path):
        cfg = small_cfg(epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        reports, path = sweep(cfg, [0.5, 1.0], [0.0, 5.0])
        assert len(reports) == 4
        # resuming the same sweep trains nothing new
        again, _ = sweep(cfg, [0.5, 1.0], [0.0, 5.0])
        assert again == []
        assert len(read_results(path)) == 4

    def test_resume_with_nothing_left_loads_no_dataset(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        sweep(cfg, [0.5, 1.0], [0.0, 5.0])

        def refuse(cfg):
            raise AssertionError("a resume with nothing to train loaded the dataset")

        monkeypatch.setattr(train, "load_run_dataset", refuse)
        again, path = sweep(cfg, [0.5, 1.0], [0.0, 5.0])
        assert again == []
        assert len(read_results(path)) == 8

    def test_resume_retrains_after_a_data_file_is_edited(self, small_dataset, tmp_path):
        dataset = file_dataset(small_dataset, tmp_path)
        cfg = small_cfg(dataset=dataset, epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        _, path = sweep(cfg, [1.0], [5.0])
        edit_first_feature(dataset["node_csv"], "7.5")
        again, _ = sweep(cfg, [1.0], [5.0])
        assert [(r.lambda_f, r.seed) for r in again] == [(5.0, 0)]
        assert len(read_results(path)) == 2

    def test_resume_retrains_rows_of_another_synth_generator(self, tmp_path, monkeypatch):
        # rows written under an older generator came from another graph
        cfg = small_cfg(epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        monkeypatch.setattr(train, "SYNTH_GENERATOR", train.SYNTH_GENERATOR - 1)
        sweep(cfg, [1.0], [5.0])
        monkeypatch.undo()
        again, _ = sweep(cfg, [1.0], [5.0])
        assert [(r.lambda_f, r.seed) for r in again] == [(5.0, 0)]

    def test_resume_after_torn_row(self, tmp_path):
        # an interrupted append leaves the last row without its line ending
        cfg = small_cfg(epochs=1, seeds=[0], out_dir=str(tmp_path / "out"))
        _, path = sweep(cfg, [0.5], [0.0, 5.0])
        with open(path, newline="") as f:
            text = f.read()
        last_row = text.rstrip("\r\n").rfind("\n") + 1
        with open(path, "w", newline="") as f:
            f.write(text[: last_row + 12])
        again, _ = sweep(cfg, [0.5], [0.0, 5.0])
        assert [(r.lambda_f, r.seed) for r in again] == [(5.0, 0)]
        rows = read_results(path)
        assert [(r.lambda_f, r.seed) for r in rows] == [(0.0, 0), (5.0, 0)]

    def test_resume_retries_failed_rows(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1, seeds=[0, 1], out_dir=str(tmp_path / "out"))
        real_train_one = train.train_one

        def flaky(point, dataset, masks, seed):
            if point.lambda_f == 5.0 and seed == 0:
                raise FloatingPointError("diverged")
            return real_train_one(point, dataset, masks, seed)

        monkeypatch.setattr(train, "train_one", flaky)
        _, path = sweep(cfg, [0.5], [0.0, 5.0])
        first = read_results(path)
        assert [np.isfinite(r.accuracy) for r in first] == [True, True, False, True]
        with open(path, "rb") as f:
            lines = f.read().splitlines(keepends=True)

        monkeypatch.setattr(train, "train_one", real_train_one)
        again, _ = sweep(cfg, [0.5], [0.0, 5.0])
        assert [(r.lambda_f, r.seed) for r in again] == [(5.0, 0)]
        assert np.isfinite(again[0].accuracy)
        with open(path, "rb") as f:
            retried = f.read().splitlines(keepends=True)
        # the failed row is gone, every other row is kept byte for byte
        assert retried[:-1] == lines[:3] + lines[4:]
        rows = read_results(path)
        assert len({(r.config_fingerprint, r.seed) for r in rows}) == len(rows) == 4
        assert all(np.isfinite(r.accuracy) for r in rows)
        # a further resume trains nothing
        assert sweep(cfg, [0.5], [0.0, 5.0])[0] == []

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

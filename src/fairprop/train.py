"""Training loop, evaluation, and hyperparameter sweeps."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import debias
from .data import (
    SYNTH_GENERATOR,
    Dataset,
    SplitMasks,
    SynthConfig,
    file_sha256,
    load_dataset,
    make_splits,
    read_results,
    standardize_features,
    synth_generate,
    write_results,
)
from .graph import IncidentVector, incident_vector
from .metrics import (
    MetricsReport,
    accuracy,
    demographic_parity,
    equal_opportunity,
    predict_labels,
)
from .nn import AdamState, Mlp, MlpConfig, adam_step, init_weights, mlp_forward
from .propagation import ppnp_exact

Array = np.ndarray


@dataclass
class RunConfig:
    dataset: dict = field(default_factory=dict)  # paths+schema, or {"synth": {...}}
    scheme: str = "fair"
    lambda_s: float = 1.0
    lambda_f: float = 10.0
    num_layers: int = 2
    alpha: float = 0.1  # teleport coefficient for appnp / ppnp_exact
    prop_k: int = 2  # iteration count for sgc / appnp
    hidden: list = field(default_factory=lambda: [64])
    epochs: int = 300
    lr: float = 0.001
    weight_decay: float = 1e-5
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    split_fractions: tuple = (0.5, 0.25, 0.25)
    standardize: bool = True
    selection: str = "val_acc"  # or "last"
    out_dir: str = "results"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.selection not in ("val_acc", "last"):
            raise ValueError(f"unknown selection rule {self.selection!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        cfg = cls(**doc)
        cfg.split_fractions = tuple(cfg.split_fractions)
        return cfg

    def semantic_dict(self) -> dict:
        """Fields that affect results: all but the output location and seeds.

        A synthetic dataset adds the generator's version, and a file dataset
        the sha256 of its node CSV and edge list, so a changed graph changes
        the fingerprint.
        """
        doc = asdict(self)
        del doc["seeds"], doc["out_dir"]
        source = doc["dataset"]
        if "synth" in source:
            source["synth_generator"] = SYNTH_GENERATOR
        elif source:
            source["sha256"] = [file_sha256(source[key]) for key in ("node_csv", "edges")]
        return doc

    def fingerprint(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def debias_params(self) -> debias.DebiasParams:
        return debias.DebiasParams(
            lambda_smooth=self.lambda_s,
            lambda_fair=self.lambda_f,
            num_layers=self.num_layers,
        )


@dataclass
class TrainTrace:
    train_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    val_dp: list = field(default_factory=list)
    best_epoch: int = 0


def load_run_dataset(cfg: RunConfig) -> Dataset:
    source = cfg.dataset
    if "synth" in source:
        return synth_generate(SynthConfig(**source["synth"]))
    return load_dataset(
        source["node_csv"], source["edges"], source["schema"], name=source.get("name", "")
    )


def ppnp_kernel(cfg: RunConfig, dataset: Dataset):
    """The dense teleport kernel of a ``ppnp_exact`` run, else None.

    The kernel is constant for a run; ``train_one`` and ``evaluate`` solve for
    it once and pass it to every ``forward_logits`` call.
    """
    if cfg.scheme != "ppnp_exact":
        return None
    return ppnp_exact(dataset.graph, np.eye(dataset.graph.n), cfg.alpha)


def _mlp(cfg, mlp, tape, x, g, delta, kernel):
    return mlp_forward(mlp, tape, x)


def _gcn(cfg, mlp, tape, x, g, delta, kernel):
    # transform + aggregate in every layer, ReLU between layers
    params = []
    h = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        wt = tape.leaf(w, requires_grad=True)
        bt = tape.leaf(b.reshape(1, -1), requires_grad=True)
        params += [wt, bt]
        h = ad.spmm_const(g, ad.dense(h, wt, bt, relu=False))
        if i != last:
            h = ad.relu(h)
    return h, params


def _appnp(cfg, mlp, tape, x, g, delta, kernel):
    x_trans, params = mlp_forward(mlp, tape, x)
    f = x_trans
    for _ in range(cfg.prop_k):
        f = ad.add(ad.scale(x_trans, cfg.alpha), ad.scale(ad.spmm_const(g, f), 1.0 - cfg.alpha))
    return f, params


def _ppnp_exact(cfg, mlp, tape, x, g, delta, kernel):
    if kernel is None:
        raise ValueError("ppnp_exact needs the kernel from ppnp_kernel(cfg, dataset)")
    x_trans, params = mlp_forward(mlp, tape, x)
    return ad.matmul(tape.leaf(kernel), x_trans), params


def _fair(cfg, mlp, tape, x, g, delta, kernel):
    return debias.forward(mlp, tape, x, g, delta, cfg.debias_params())


def _ml1(cfg, mlp, tape, x, g, delta, kernel):
    return debias.ml1_forward(mlp, tape, x, g, delta, cfg.debias_params())


# Scheme -> forward pass on the tape. ``sgc`` is the MLP on features that
# ``_prepare_features`` has already propagated ``prop_k`` times. The entries
# look their callees up by name when called, so a rebound module attribute
# (a profiler's wrapper, say) is the one that runs.
_FORWARDS = {
    "mlp": _mlp,
    "gcn": _gcn,
    "sgc": _mlp,
    "appnp": _appnp,
    "ppnp_exact": _ppnp_exact,
    "fair": _fair,
    "ml1": _ml1,
}
SCHEMES = tuple(_FORWARDS)


def forward_logits(
    cfg: RunConfig,
    mlp: Mlp,
    tape: ad.Tape,
    x: ad.Tensor,
    dataset: Dataset,
    delta: IncidentVector,
    kernel: Array | None = None,
):
    """Dispatch the scheme-specific forward pass on the tape.

    ``x`` holds ``_prepare_features(cfg, dataset, masks)``. ``kernel`` is
    ``ppnp_kernel(cfg, dataset)``, required by ``ppnp_exact``.
    """
    return _FORWARDS[cfg.scheme](cfg, mlp, tape, x, dataset.graph, delta, kernel)


def _prepare_features(cfg: RunConfig, dataset: Dataset, masks: SplitMasks) -> Array:
    """Model input: standardized features, propagated ``prop_k`` times for ``sgc``.

    The propagation is constant for a run, so it runs once per ``train_one``
    and ``evaluate``, off the tape.
    """
    features = dataset.features
    if cfg.standardize:
        features = standardize_features(features, masks.train)
    if cfg.scheme == "sgc":
        for _ in range(cfg.prop_k):
            features = dataset.graph.adjacency @ features
    return features


def _num_classes(dataset: Dataset) -> int:
    return int(dataset.labels[dataset.labeled_mask].max()) + 1


def train_one(cfg: RunConfig, dataset: Dataset, masks: SplitMasks, seed: int):
    """Train a single seed; returns (best model, MetricsReport, TrainTrace)."""
    start = time.perf_counter()
    delta = incident_vector(dataset.sensitive)
    features = _prepare_features(cfg, dataset, masks)
    mlp_cfg = MlpConfig(
        in_dim=features.shape[1], hidden=list(cfg.hidden), out_dim=_num_classes(dataset)
    )
    mlp = init_weights(mlp_cfg, seed)
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    kernel = ppnp_kernel(cfg, dataset)

    trace = TrainTrace()
    best_val = -1.0
    best = mlp.copy()
    for epoch in range(cfg.epochs):
        tape = ad.Tape()
        x = tape.leaf(features)
        logits, param_tensors = forward_logits(cfg, mlp, tape, x, dataset, delta, kernel)
        loss = ad.cross_entropy_with_logits(logits, dataset.labels, masks.train)
        loss_val = float(loss.data[0, 0])
        if not np.isfinite(loss_val):
            raise RuntimeError(
                f"training diverged: non-finite loss at epoch {epoch} (seed {seed})"
            )
        # the logits score the weights before this epoch's update, so a
        # selected model is snapshot before it
        y_hat = predict_labels(logits.data)
        val_acc = accuracy(y_hat, dataset.labels, masks.val)
        val_dp = demographic_parity(y_hat, dataset.sensitive, masks.val)
        trace.train_loss.append(loss_val)
        trace.val_accuracy.append(val_acc)
        trace.val_dp.append(val_dp)
        if cfg.selection == "last" or val_acc > best_val:
            best_val = val_acc
            best = mlp.copy()
            trace.best_epoch = epoch

        grad_map = tape.backward(loss)
        params = mlp.parameters()
        grads = [
            grad_map.get(t.node_id, np.zeros(t.shape)).reshape(p.shape)
            for p, t in zip(params, param_tensors)
        ]
        mlp.set_parameters(adam_step(params, grads, state))

    report = evaluate(cfg, best, dataset, masks, seed=seed, mask_name="test")
    report.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return best, report, trace


def evaluate(
    cfg: RunConfig,
    mlp: Mlp,
    dataset: Dataset,
    masks: SplitMasks,
    seed: int = 0,
    mask_name: str = "test",
) -> MetricsReport:
    """Forward pass and metrics on the requested mask; no weight mutation."""
    delta = incident_vector(dataset.sensitive)
    features = _prepare_features(cfg, dataset, masks)
    tape = ad.Tape()
    x = tape.leaf(features)
    logits, _ = forward_logits(cfg, mlp, tape, x, dataset, delta, ppnp_kernel(cfg, dataset))
    tape.release()  # forward only: nothing replays it
    mask = getattr(masks, mask_name)
    y_hat = predict_labels(logits.data)
    fair_obj, _ = debias.fairness_objective(logits.data, delta, 1.0)
    return MetricsReport(
        accuracy=accuracy(y_hat, dataset.labels, mask),
        dp=demographic_parity(y_hat, dataset.sensitive, mask),
        eo=equal_opportunity(y_hat, dataset.labels, dataset.sensitive, mask),
        fairness_obj=fair_obj,
        n_eval=int(np.asarray(mask).sum()),
        seed=seed,
        config_fingerprint=cfg.fingerprint(),
        scheme=cfg.scheme,
        lambda_s=cfg.lambda_s,
        lambda_f=cfg.lambda_f,
    )


def run(cfg: RunConfig, dataset: Dataset | None = None, save: bool = True):
    """Train every configured seed; returns (reports, checkpoints, traces)."""
    if dataset is None:
        dataset = load_run_dataset(cfg)
    reports, models, traces = [], [], []
    for seed in cfg.seeds:
        masks = make_splits(dataset, cfg.split_fractions, seed)
        model, report, trace = train_one(cfg, dataset, masks, seed)
        reports.append(report)
        models.append(model)
        traces.append(trace)
    if save:
        os.makedirs(cfg.out_dir, exist_ok=True)
        from .nn import save_checkpoint

        for seed, model in zip(cfg.seeds, models):
            save_checkpoint(
                os.path.join(cfg.out_dir, f"{cfg.fingerprint()}-seed{seed}.json"), model, cfg
            )
        write_results(os.path.join(cfg.out_dir, "results.csv"), reports, append=True)
    return reports, models, traces


def sweep(cfg: RunConfig, lambda_s_grid, lambda_f_grid, results_path=None):
    """One training run per (grid point x seed), appended incrementally.

    Rows already present in the results file (same fingerprint and seed) are
    skipped, so an interrupted sweep can resume without duplicates. Per-run
    failures are recorded as NaN rows and do not abort the sweep; a resumed
    sweep removes those rows and runs them again.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    if results_path is None:
        results_path = os.path.join(cfg.out_dir, "sweep.csv")
    done = set()
    if os.path.exists(results_path):
        # an interrupted append leaves a torn last row: drop it so it is re-run
        with open(results_path, "rb+") as f:
            f.truncate(f.read().rfind(b"\n") + 1)
        prior = read_results(results_path)
        kept = [r for r in prior if np.isfinite(r.accuracy)]
        if len(kept) < len(prior):  # a failed run's row is dropped so it is re-run too
            write_results(results_path, kept)
        done = {(r.config_fingerprint, r.seed) for r in kept}

    dataset = load_run_dataset(cfg)
    reports = []
    for lam_s in lambda_s_grid:
        for lam_f in lambda_f_grid:
            point = replace(cfg, lambda_s=float(lam_s), lambda_f=float(lam_f))
            fp = point.fingerprint()
            for seed in cfg.seeds:
                if (fp, seed) in done:
                    continue
                masks = make_splits(dataset, point.split_fractions, seed)
                try:
                    _, report, _ = train_one(point, dataset, masks, seed)
                except Exception as exc:  # record the failure, keep sweeping
                    print(
                        f"run failed (lambda_s={lam_s}, lambda_f={lam_f}, "
                        f"seed={seed}): {exc}",
                        file=sys.stderr,
                    )
                    report = MetricsReport(
                        accuracy=float("nan"),
                        dp=float("nan"),
                        eo=float("nan"),
                        fairness_obj=float("nan"),
                        n_eval=0,
                        seed=seed,
                        config_fingerprint=fp,
                        scheme=point.scheme,
                        lambda_s=point.lambda_s,
                        lambda_f=point.lambda_f,
                    )
                write_results(results_path, [report], append=True)
                reports.append(report)
                done.add((fp, seed))
    return reports, results_path


def summarize(reports):
    """Per-(lambda_s, lambda_f) mean and sample std of accuracy and dp."""
    groups = {}
    for r in reports:
        groups.setdefault((r.lambda_s, r.lambda_f), []).append(r)
    summary = {}
    for key, rs in sorted(groups.items()):
        accs = np.array([r.accuracy for r in rs])
        dps = np.array([r.dp for r in rs])
        summary[key] = {
            "n": len(rs),
            "acc_mean": float(accs.mean()),
            "acc_std": float(accs.std(ddof=1)) if len(rs) > 1 else 0.0,
            "dp_mean": float(dps.mean()),
            "dp_std": float(dps.std(ddof=1)) if len(rs) > 1 else 0.0,
        }
    return summary

"""Training loop, evaluation, and hyperparameter sweeps."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
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
        if self.prop_k < 0:
            raise ValueError(f"prop_k must be >= 0, got {self.prop_k}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        for name, value in (
            ("lambda_smooth", self.lambda_s),
            ("lambda_fair", self.lambda_f),
            ("num_layers", self.num_layers),
        ):
            if not value >= 0:  # NaN too
                raise ValueError(f"{name} must be >= 0, got {value}")

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
            source["sha256"] = [_file_digest(source[key]) for key in ("node_csv", "edges")]
        return doc

    def fingerprint(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# path -> sha256 of each dataset file hashed inside an open ``hashing_files_once``
_file_digests: ContextVar[dict | None] = ContextVar("file_digests", default=None)


@contextmanager
def hashing_files_once():
    """Within the block, each dataset file is hashed at most once.

    A command fingerprints its configs many times (each run's report and
    checkpoint, each grid point), and its data files do not change under
    it. Nothing is kept after the block, so the next command hashes the
    files again and sees an edit. A nested block shares the outer one's
    digests.
    """
    token = _file_digests.set({}) if _file_digests.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _file_digests.reset(token)


def _file_digest(path) -> str:
    digests = _file_digests.get()
    if digests is None:
        return file_sha256(path)
    if path not in digests:
        digests[path] = file_sha256(path)
    return digests[path]


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


def scheme_constant(cfg: RunConfig, dataset: Dataset) -> Array | None:
    """What a scheme's forward pass reads besides the features, else None.

    It is constant for a run: the dense teleport kernel of ``ppnp_exact``
    (one solve), or the row sums ``A 1`` that scale the first-layer bias of
    ``gcn``. ``train_one`` and ``evaluate`` compute it once and pass it to
    every ``forward_logits`` call.
    """
    if cfg.scheme == "ppnp_exact":
        return ppnp_exact(dataset.graph, np.eye(dataset.graph.n), cfg.alpha)
    if cfg.scheme == "gcn":
        return dataset.graph.adjacency @ np.ones(dataset.graph.n)
    return None


def _mlp(cfg, mlp, tape, x, g, delta, constant):
    return mlp_forward(mlp, tape, x)


def _gcn(cfg, mlp, tape, x, g, delta, constant):
    # transform + aggregate in every layer, ReLU between layers
    if constant is None:
        raise ValueError("gcn needs the row sums from scheme_constant(cfg, dataset)")
    params = []
    h = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        wt = tape.leaf(w, requires_grad=True)
        bt = tape.leaf(b.reshape(1, -1), requires_grad=True)
        params += [wt, bt]
        if i == 0:  # A (X W + 1 b) = (A X) W + (A 1) b: x holds A X, constant is A 1
            h = ad.dense(h, wt, bt, relu=last != 0, row_scale=constant)
        else:
            h = ad.spmm_const(g, ad.dense(h, wt, bt, relu=False))
            if i != last:
                h = ad.relu(h)
    return h, params


def _appnp(cfg, mlp, tape, x, g, delta, constant):
    # teleport propagation is the debiasing stack at radius 0 with teleport alpha
    x_trans, params = mlp_forward(mlp, tape, x)
    return debias.stack(x_trans, g, delta, cfg.prop_k, cfg.alpha, 0.0, 0.0), params


def _ppnp_exact(cfg, mlp, tape, x, g, delta, constant):
    if constant is None:
        raise ValueError("ppnp_exact needs the kernel from scheme_constant(cfg, dataset)")
    x_trans, params = mlp_forward(mlp, tape, x)
    return ad.matmul(tape.leaf(constant), x_trans), params


def _fair(cfg, mlp, tape, x, g, delta, constant):
    x_trans, params = mlp_forward(mlp, tape, x)
    gamma, beta = debias.steps(cfg.lambda_s)
    ml1 = cfg.scheme == "ml1"
    return debias.stack(x_trans, g, delta, cfg.num_layers, gamma, beta, cfg.lambda_f, ml1), params


# Scheme -> forward pass on the tape. ``sgc`` is the MLP on features that
# ``_prepare_features`` has already propagated ``prop_k`` times (once for
# ``gcn``, whose first layer reads them), and ``ml1`` the debiasing stack with
# the constant dual lambda_f * sign(p). The entries look their callees up by
# name when called, so a rebound module attribute (a profiler's wrapper, say)
# is the one that runs.
_FORWARDS = {
    "mlp": _mlp,
    "gcn": _gcn,
    "sgc": _mlp,
    "appnp": _appnp,
    "ppnp_exact": _ppnp_exact,
    "fair": _fair,
    "ml1": _fair,
}
SCHEMES = tuple(_FORWARDS)


def forward_logits(
    cfg: RunConfig,
    mlp: Mlp,
    tape: ad.Tape,
    x: ad.Tensor,
    dataset: Dataset,
    delta: IncidentVector,
    constant: Array | None = None,
):
    """Dispatch the scheme-specific forward pass on the tape.

    ``x`` holds ``_prepare_features(cfg, dataset, masks)``. ``constant`` is
    ``scheme_constant(cfg, dataset)``, required by ``ppnp_exact`` and ``gcn``.
    """
    return _FORWARDS[cfg.scheme](cfg, mlp, tape, x, dataset.graph, delta, constant)


def _prepare_features(cfg: RunConfig, dataset: Dataset, masks: SplitMasks) -> Array:
    """Model input: standardized features, propagated ``prop_k`` times for
    ``sgc`` and once for ``gcn``.

    The propagation is constant for a run, so it runs once per ``train_one``
    and ``evaluate``, off the tape.
    """
    features = dataset.features
    if cfg.standardize:
        features = standardize_features(features, masks.train)
    steps = {"sgc": cfg.prop_k, "gcn": 1}.get(cfg.scheme, 0)
    for _ in range(steps):
        features = dataset.graph.adjacency @ features
    return features


def _num_classes(dataset: Dataset) -> int:
    return int(dataset.labels[dataset.labeled_mask].max()) + 1


def train_one(cfg: RunConfig, dataset: Dataset, masks: SplitMasks, seed: int):
    """Train a single seed; returns (best model, MetricsReport, TrainTrace).

    Everything constant for the run is computed once: the model input, the
    scheme constant, the train rows the loss averages over and the
    validation rows selection scores. The test report comes from the logits
    of the selected epoch, which scored the selected weights.
    """
    start = time.perf_counter()
    delta = incident_vector(dataset.sensitive)
    features = _prepare_features(cfg, dataset, masks)
    num_classes = _num_classes(dataset)
    mlp_cfg = MlpConfig(in_dim=features.shape[1], hidden=list(cfg.hidden), out_dim=num_classes)
    mlp = init_weights(mlp_cfg, seed)
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    constant = scheme_constant(cfg, dataset)
    train_rows = ad.RowLabels.of(dataset.labels, masks.train, num_classes)
    val = np.flatnonzero(masks.val)
    val_labels, val_groups = dataset.labels[val], dataset.sensitive[val]

    trace = TrainTrace()
    best_val = -1.0
    best = mlp.copy()
    for epoch in range(cfg.epochs):
        tape = ad.Tape()
        x = tape.leaf(features)
        logits, param_tensors = forward_logits(cfg, mlp, tape, x, dataset, delta, constant)
        loss = ad.cross_entropy_with_logits(logits, train_rows)
        loss_val = float(loss.data[0, 0])
        if not np.isfinite(loss_val):
            raise RuntimeError(
                f"training diverged: non-finite loss at epoch {epoch} (seed {seed})"
            )
        # the logits score the weights before this epoch's update, so a
        # selected model is snapshot before it; only the array is kept, as a
        # tensor would keep its tape alive
        y_hat = predict_labels(logits.data[val])
        val_acc = accuracy(y_hat, val_labels)
        val_dp = demographic_parity(y_hat, val_groups)
        trace.train_loss.append(loss_val)
        trace.val_accuracy.append(val_acc)
        trace.val_dp.append(val_dp)
        if cfg.selection == "last" or val_acc > best_val:
            best_val = val_acc
            best = mlp.copy()
            best_logits = logits.data
            trace.best_epoch = epoch

        grad_map = tape.backward(loss)
        params = mlp.parameters()
        grads = []
        for p, t in zip(params, param_tensors):
            grad = grad_map.get(t.node_id)
            grads.append((np.zeros(t.shape) if grad is None else grad).reshape(p.shape))
        mlp.set_parameters(adam_step(params, grads, state))

    report = _report(cfg, best_logits, dataset, masks.test, delta, seed)
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
    logits, _ = forward_logits(cfg, mlp, tape, x, dataset, delta, scheme_constant(cfg, dataset))
    tape.release()  # forward only: nothing replays it
    return _report(cfg, logits.data, dataset, getattr(masks, mask_name), delta, seed)


def _report(cfg, logits: Array, dataset: Dataset, mask, delta, seed) -> MetricsReport:
    """Metrics of one model's logits on ``mask``; the soft parity gap is over every node."""
    y_hat = predict_labels(logits)
    fair_obj, _ = debias.fairness_objective(logits, delta, 1.0)
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
    with hashing_files_once():
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
    skipped, so an interrupted sweep can resume without duplicates; the
    dataset is loaded only when a run is left to train. Per-run failures are
    recorded as NaN rows and do not abort the sweep; a resumed sweep removes
    those rows and runs them again.
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

    reports = []
    with hashing_files_once():
        pending = []  # (lambda_s, lambda_f, point, fingerprint, seed) of each run to train
        for lam_s in lambda_s_grid:
            for lam_f in lambda_f_grid:
                point = replace(cfg, lambda_s=float(lam_s), lambda_f=float(lam_f))
                fp = point.fingerprint()
                for seed in cfg.seeds:
                    if (fp, seed) not in done:
                        done.add((fp, seed))
                        pending.append((lam_s, lam_f, point, fp, seed))
        dataset = load_run_dataset(cfg) if pending else None
        for lam_s, lam_f, point, fp, seed in pending:
            masks = make_splits(dataset, point.split_fractions, seed)
            try:
                _, report, _ = train_one(point, dataset, masks, seed)
            except Exception as exc:  # record the failure, keep sweeping
                print(
                    f"run failed (lambda_s={lam_s}, lambda_f={lam_f}, seed={seed}): {exc}",
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

"""Training loop, evaluation, and hyperparameter sweeps.

An epoch is one forward pass of the run's scheme, which returns the logits
and a single-use pullback composed of its stages' pullbacks (the MLP, then
the debiasing stack or ``ppnp_exact``'s kernel product), the loss and its
gradient in the logits, the validation score of the weights it read, and
one Adam step on the gradient the pullback returns for ``Mlp.theta``. The
last epoch is scored and takes no step, as no later epoch would score its
weights: its pullback is dropped unrun. Evaluation drops the pullback.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from . import debias
from .data import (
    SYNTH_GENERATOR,
    Dataset,
    SplitMasks,
    SynthConfig,
    check_keys,
    check_schema,
    check_split_fractions,
    file_sha256,
    is_integer,
    is_number,
    load_dataset,
    make_splits,
    read_results,
    standardize_features,
    synth_generate,
    write_results,
)
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
        _check_dataset_entry(self.dataset)
        for name, value in (("hidden", self.hidden), ("seeds", self.seeds)):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list of integers, got {value!r}")
        for name, value in (
            ("epochs", self.epochs),
            ("num_layers", self.num_layers),
            ("prop_k", self.prop_k),
            *(("hidden width", width) for width in self.hidden),
            *(("seed in seeds", seed) for seed in self.seeds),
        ):
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, value in (
            ("lambda_smooth", self.lambda_s),
            ("lambda_fair", self.lambda_f),
            ("alpha", self.alpha),
            ("lr", self.lr),
            ("weight_decay", self.weight_decay),
        ):
            if not is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        check_split_fractions(self.split_fractions)
        if not isinstance(self.standardize, bool):
            raise ValueError(f"standardize must be true or false, got {self.standardize!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for i, seed in enumerate(self.seeds):
            if seed in self.seeds[:i]:
                raise ValueError(f"seed {seed} is listed twice")
        if self.selection not in ("val_acc", "last"):
            raise ValueError(f"unknown selection rule {self.selection!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.lr > 0:  # NaN too
            raise ValueError(f"lr must be > 0, got {self.lr}")
        for name, value, low in (
            ("lambda_smooth", self.lambda_s, 0),
            ("lambda_fair", self.lambda_f, 0),
            ("num_layers", self.num_layers, 0),
            ("prop_k", self.prop_k, 0),
            ("weight_decay", self.weight_decay, 0),
            ("hidden width", min(self.hidden, default=1), 1),
            ("seed in seeds", min(self.seeds), 0),
        ):
            if not value >= low:  # NaN too
                raise ValueError(f"{name} must be >= {low}, got {value}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        extra = set(doc) - set(cls.__dataclass_fields__)
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


def _check_dataset_entry(source) -> None:
    """One ValueError line naming the key unless ``source`` is a dataset entry.

    An entry is ``{"synth": {...}}``, whose fields ``SynthConfig`` checks, or
    ``node_csv``, ``edges`` and ``schema`` (``data.check_schema``) with an
    optional ``name``; no file is read. An empty entry passes: ``run`` may
    be handed its dataset, and ``load_run_dataset`` refuses it.
    """
    if not isinstance(source, dict):
        raise ValueError(f"dataset must be an object, got {source!r}")
    if "synth" in source:
        for key in source:
            if key != "synth":
                raise ValueError(f"dataset entry holds {key!r} beside 'synth'")
        SynthConfig.from_doc(source["synth"], "dataset 'synth'")
        return
    if not source:
        return
    check_keys(source, "dataset entry", ("node_csv", "edges", "schema"), ("name",))
    for key in ("node_csv", "edges", "name"):
        if key in source and not isinstance(source[key], str):
            raise ValueError(f"dataset {key!r} must be a string, got {source[key]!r}")
    check_schema(source["schema"])


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
    best_epoch: int = 0


def load_run_dataset(cfg: RunConfig) -> Dataset:
    """The dataset of ``cfg``'s entry; an empty entry is one ValueError line."""
    source = cfg.dataset
    if not source:
        raise ValueError('dataset entry is empty: expected {"synth": {...}} or node_csv, edges and schema')
    if "synth" in source:
        return synth_generate(SynthConfig.from_doc(source["synth"], "dataset 'synth'"))
    return load_dataset(source["node_csv"], source["edges"], source["schema"], source.get("name", ""))


def _standardized(x, stats):
    return x if stats is None else stats.apply(x)


def _mlp(cfg, g, delta, x, stats):
    return x, lambda mlp, x: mlp_forward(mlp, x, stats)


def _sgc(cfg, g, delta, x, stats):
    # the MLP on standardized features propagated prop_k times, once per run
    x = _standardized(x, stats)
    for _ in range(cfg.prop_k):
        x = g.adjacency @ x
    return _mlp(cfg, g, delta, x, None)


def _gcn(cfg, g, delta, x, stats):
    # the MLP with A after every later layer's affine map; the first layer's
    # A (X W + 1 b) = (A X) W + (A 1) b reads A X and A 1, once per run
    x = g.adjacency @ _standardized(x, stats)
    row_sums = g.adjacency @ np.ones(g.n)
    return x, lambda mlp, x: mlp_forward(mlp, x, adjacency=g.adjacency, row_scale=row_sums)


def _mlp_then_stack(stats, g, delta, *stack_args):
    """A forward pass: the MLP, then ``debias.stack(x_trans, g, delta, *stack_args)``."""

    def forward(mlp, x):
        x_trans, mlp_pullback = mlp_forward(mlp, x, stats)
        logits, stack_pullback = debias.stack(x_trans, g, delta, *stack_args)
        return logits, lambda dlogits: mlp_pullback(stack_pullback(dlogits))

    return forward


def _appnp(cfg, g, delta, x, stats):
    # teleport propagation is the debiasing stack at radius 0 with teleport alpha
    return x, _mlp_then_stack(stats, g, delta, cfg.prop_k, cfg.alpha, 0.0, 0.0)


def _ppnp_exact(cfg, g, delta, x, stats):
    kernel = ppnp_exact(g, np.eye(g.n), cfg.alpha)  # one dense solve per run

    def forward(mlp, x):
        # the product by the constant kernel, K X, whose cotangent is K^T g
        x_trans, mlp_pullback = mlp_forward(mlp, x, stats)
        return kernel @ x_trans, lambda dlogits: mlp_pullback(kernel.T @ dlogits)

    return x, forward


def _fair(cfg, g, delta, x, stats, ml1=False):
    # ml1 is the stack with the constant dual lambda_f * sign(p)
    gamma, beta = debias.steps(cfg.lambda_s)
    return x, _mlp_then_stack(stats, g, delta, cfg.num_layers, gamma, beta, cfg.lambda_f, ml1)


# Scheme -> (cfg, graph, delta, features, standardization or None) -> (model
# input, forward), where forward(mlp, x) -> (logits, pullback) has the run's
# constants bound, and pullback(dlogits), single-use, returns the gradient of
# mlp.theta. Every forward is mlp_forward, then at most one debias.stack or,
# for ppnp_exact, its own kernel product, and its pullback is theirs composed
# in reverse. An MLP that reads the features standardizes them in its first
# layer; gcn and sgc standardize a copy, which they propagate once per run.
# The forwards look their callees up by name when called, so a rebound module
# attribute (a profiler's wrapper, say) is the one that runs.
_SCHEME_TABLE = {
    "mlp": _mlp,
    "gcn": _gcn,
    "sgc": _sgc,
    "appnp": _appnp,
    "ppnp_exact": _ppnp_exact,
    "fair": _fair,
    "ml1": partial(_fair, ml1=True),
}
SCHEMES = tuple(_SCHEME_TABLE)


def prepare(cfg: RunConfig, dataset: Dataset, masks: SplitMasks | None):
    """A run's model input and forward pass: (input array, forward).

    The standardization (``data.standardize_features``) is computed on the
    train rows (``masks`` may be None when ``cfg.standardize`` is off), and
    the scheme's entry computes what is constant for the run once; the
    debiasing stack reads the dataset's incident vector, ``dataset.delta``.
    ``forward(mlp, x)`` takes the input array and returns (logits,
    pullback): ``pullback(dlogits)``, single-use, maps the logits' cotangent
    to the gradient of ``mlp.theta``.

    For ``mlp``, ``appnp``, ``ppnp_exact``, ``fair`` and ``ml1`` the input is
    ``dataset.features`` itself, and the first MLP layer standardizes it as
    it reads it (``nn.mlp_forward``, on ``nn._affine``), so a run holds no
    standardized copy; its values differ from standardizing first by about
    ``|shift| / scale`` times the float64 eps. For ``gcn`` and ``sgc`` the
    input is the standardized features propagated once per run, and ``gcn``
    is ``nn.mlp_forward`` with the adjacency and the first layer's row sums
    bound.
    """
    stats = standardize_features(dataset.features, masks.train) if cfg.standardize else None
    return _SCHEME_TABLE[cfg.scheme](cfg, dataset.graph, dataset.delta, dataset.features, stats)


def _check_labels(dataset: Dataset) -> None:
    """One ValueError line unless the labeled nodes hold both classes (``Dataset`` refuses a third)."""
    labels = dataset.labels[dataset.labeled_mask]
    if not labels.size:
        raise ValueError("no node is labeled: node classification needs labeled nodes of 2 classes")
    lowest = int(labels.min())
    if lowest == labels.max():
        raise ValueError(
            f"labeled nodes hold one class ({lowest}): node classification needs at least 2"
        )


def train_one(cfg: RunConfig, dataset: Dataset, masks: SplitMasks, seed: int):
    """Train a single seed; returns (best model, MetricsReport, TrainTrace).

    Everything constant for the run is computed once: the model input and
    the constants its forward pass binds (one ``prepare`` call), the train
    rows the loss averages over and the validation rows selection scores.
    The test report comes from the logits of the selected epoch, which
    scored the selected weights. Each epoch but the last then takes one
    Adam step; the last epoch's step would make weights nothing scores,
    saves or returns, so it runs neither that step nor its pullback.
    """
    start = time.perf_counter()
    _check_labels(dataset)
    features, forward = prepare(cfg, dataset, masks)
    mlp_cfg = MlpConfig(in_dim=features.shape[1], hidden=list(cfg.hidden))
    mlp = init_weights(mlp_cfg, seed)
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    train_rows = ad.RowLabels.of(dataset.labels, masks.train)
    val = np.flatnonzero(masks.val)
    val_labels = dataset.labels[val]

    trace = TrainTrace()
    best_val = -1.0
    best = mlp.copy()
    for epoch in range(cfg.epochs):
        logits, pullback = forward(mlp, features)
        loss, dlogits = ad.cross_entropy_with_logits(logits, train_rows)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"training diverged: non-finite loss at epoch {epoch} (seed {seed})"
            )
        # the logits score the weights before this epoch's update, so a
        # selected model is snapshot before it
        y_hat = predict_labels(logits[val])
        val_acc = accuracy(y_hat, val_labels)
        trace.train_loss.append(loss)
        trace.val_accuracy.append(val_acc)
        if cfg.selection == "last" or val_acc > best_val:
            best_val = val_acc
            best = mlp.copy()
            best_logits = logits
            trace.best_epoch = epoch

        if epoch + 1 < cfg.epochs:  # the last step's weights would never be scored
            adam_step(mlp.theta, pullback(dlogits), state)
        del pullback, dlogits  # nothing of this epoch's pass is held through the next forward

    report = _report(cfg, best_logits, dataset, masks.test, seed)
    report.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return best, report, trace


def evaluate(
    cfg: RunConfig,
    mlp: Mlp,
    dataset: Dataset,
    masks: SplitMasks,
    seed: int | None = None,
    mask_name: str = "test",
) -> MetricsReport:
    """Forward pass and metrics on the requested mask; no weight mutation.

    The run's constants come from one ``prepare`` call, as in ``train_one``.
    The report carries the split's seed, ``masks.seed``; a ``seed`` that
    differs from it is refused. Labels that training refuses are refused
    with its line, and a model with other than two outputs is refused.
    """
    if seed is not None and seed != masks.seed:
        raise ValueError(f"seed {seed} is not the seed of the split, {masks.seed}")
    _check_labels(dataset)
    if mlp.config.out_dim != 2:
        raise ValueError(f"the model outputs {mlp.config.out_dim} classes: fairprop is two-class, labels 0 and 1")
    features, forward = prepare(cfg, dataset, masks)
    logits, _ = forward(mlp, features)
    return _report(cfg, logits, dataset, getattr(masks, mask_name), masks.seed)


def _report(cfg, logits: Array, dataset: Dataset, mask, seed) -> MetricsReport:
    """Metrics of one model's logits on ``mask``; the soft parity gap is over every node."""
    y_hat = predict_labels(logits)
    fair_obj, _ = debias.fairness_objective(logits, dataset.delta, 1.0)
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
    """Train every configured seed; returns (reports, checkpoints, traces).

    With ``save`` it writes each seed's checkpoint and appends its
    ``results.csv`` row, having first dropped any row of the same fingerprint
    and seed, so the file holds one row per run.
    """
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
            path = os.path.join(cfg.out_dir, "results.csv")
            trained = {(r.config_fingerprint, r.seed) for r in reports}
            _kept_rows(path, lambda r: (r.config_fingerprint, r.seed) in trained)
            write_results(path, reports, append=True)
    return reports, models, traces


def _kept_rows(path, drop):
    """The rows of the results file at ``path`` that ``drop`` does not refuse.

    An interrupted append leaves a torn last row, which is cut off first. If
    ``drop`` refuses a row, the file is replaced by the kept rows (atomically,
    through ``write_results``). A missing file holds no rows.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb+") as f:
        f.truncate(f.read().rfind(b"\n") + 1)
    prior = read_results(path)
    kept = [r for r in prior if not drop(r)]
    if len(kept) < len(prior):
        write_results(path, kept)
    return kept


def sweep(cfg: RunConfig, lambda_s_values, lambda_f_values):
    """One training run per (grid point x seed), appended incrementally;
    returns (every finished row of the grid, the path of its ``sweep.csv``).

    Rows already present in the results file (same fingerprint and seed) are
    skipped, so an interrupted sweep can resume without duplicates; the
    dataset is loaded only when a run is left to train. Per-run failures are
    recorded as NaN rows and do not abort the sweep; a resumed sweep removes
    those rows and runs them again. The returned rows are those of the file
    for a grid point and a seed of ``cfg`` whose run finished, in file order:
    the rows a resume kept, then the runs it trained. ``cfg.out_dir`` is
    made only once the dataset has loaded for a run to train, so a refused
    input leaves no directory behind.
    """
    path = os.path.join(cfg.out_dir, "sweep.csv")
    # a torn last row and a failed run's row are dropped, so their runs are re-run
    kept = _kept_rows(path, lambda r: not np.isfinite(r.accuracy))
    done = {(r.config_fingerprint, r.seed) for r in kept}

    with hashing_files_once():
        pending = []  # (lambda_s, lambda_f, point, fingerprint, seed) of each run to train
        keys = set()  # (fingerprint, seed) of each run of the grid
        for lam_s in lambda_s_values:
            for lam_f in lambda_f_values:
                point = replace(cfg, lambda_s=float(lam_s), lambda_f=float(lam_f))
                fp = point.fingerprint()
                for seed in cfg.seeds:
                    keys.add((fp, seed))
                    if (fp, seed) not in done:
                        done.add((fp, seed))
                        pending.append((lam_s, lam_f, point, fp, seed))
        rows = [r for r in kept if (r.config_fingerprint, r.seed) in keys]
        dataset = None
        if pending:
            dataset = load_run_dataset(cfg)
            _check_labels(dataset)  # labels every run would refuse fail the sweep at once
            os.makedirs(cfg.out_dir, exist_ok=True)  # only once a run is to be written
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
            write_results(path, [report], append=True)
            if np.isfinite(report.accuracy):
                rows.append(report)
    return rows, path


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

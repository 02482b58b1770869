"""Command-line surface: train, sweep, eval, synth, metrics."""

from __future__ import annotations

import csv
import os
import sys

import click
import numpy as np

from .data import MISSING_LABEL, SynthConfig, check_keys, is_number, make_splits, parse_labels
from .data import read_json, synth_generate
from .metrics import accuracy as accuracy_metric
from .metrics import demographic_parity, equal_opportunity
from .nn import load_checkpoint
from .train import RunConfig, evaluate, hashing_files_once, load_run_dataset, run, summarize, sweep

# Rows of text built before each write: the text of a whole file would peak
# above the generator itself.
WRITE_BLOCK_ROWS = 1024


def _load_config(path) -> RunConfig:
    doc = read_json(path, "config")
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be an object, got {doc!r}")
    out_dir = os.environ.get("FAIRPROP_OUT_DIR")
    if out_dir:
        doc["out_dir"] = out_dir
    return RunConfig.from_dict(doc)


@click.group()
def main():
    """Graph node classification with an explicit debiasing step."""


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def train_cmd(config_path):
    """Train all configured seeds and write checkpoints plus a results CSV."""
    cfg = _load_config(config_path)
    reports, _, _ = run(cfg)
    (stats,) = summarize(reports).values()
    click.echo(
        f"scheme={cfg.scheme} {_acc_dp(stats)} "
        f"results={os.path.join(cfg.out_dir, 'results.csv')}"
    )


def _acc_dp(stats) -> str:
    """The mean and std of accuracy and dp in one of ``summarize``'s entries."""
    return (
        f"acc={stats['acc_mean']:.4f}±{stats['acc_std']:.4f} "
        f"dp={stats['dp_mean']:.4f}±{stats['dp_std']:.4f}"
    )


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--grid", "grid_path", required=True, type=click.Path(exists=True))
def sweep_cmd(config_path, grid_path):
    """Run a lambda_s x lambda_f grid; rows append incrementally.

    Prints one line per grid point: the mean and std over every finished
    seed in the results file, the rows a resume kept included.
    """
    cfg = _load_config(config_path)
    grid = read_json(grid_path, "grid file")
    for key in ("lambda_s", "lambda_f"):
        if not isinstance(grid, dict) or not isinstance(grid.get(key), list) or not grid[key]:
            raise ValueError(f"grid file {grid_path} needs a list of values under {key!r}")
        for value in grid[key]:
            if not is_number(value):
                raise ValueError(f"grid file {grid_path} needs numbers under {key!r}, got {value!r}")
    rows, path = sweep(cfg, grid["lambda_s"], grid["lambda_f"])
    for (lam_s, lam_f), stats in summarize(rows).items():
        click.echo(f"lambda_s={lam_s} lambda_f={lam_f} {_acc_dp(stats)} seeds={stats['n']}")
    click.echo(f"results={path}")


@main.command("eval")
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, help="split seed  [default: the checkpoint's seed]")
@click.option("--mask", default="test", show_default=True,
              type=click.Choice(["train", "val", "test"]))
def eval_cmd(checkpoint, config_path, seed, mask):
    """Evaluate a saved checkpoint on one split mask.

    The checkpoint must have been trained under this config: one whose
    fingerprint differs, the scheme included, is refused. The split and its
    standardization come from the seed the checkpoint was trained with; a
    ``--seed`` that differs from it is refused.
    """
    cfg = _load_config(config_path)
    with hashing_files_once():
        mlp = load_checkpoint(checkpoint, cfg)
        if seed is None:
            seed = mlp.seed
        if seed is None:
            raise ValueError(f"checkpoint {checkpoint} records no seed: pass --seed")
        if mlp.seed is not None and seed != mlp.seed:
            raise ValueError(
                f"checkpoint {checkpoint} was trained with seed {mlp.seed}, not --seed {seed}"
            )
        dataset = load_run_dataset(cfg)
        masks = make_splits(dataset, cfg.split_fractions, seed)
        report = evaluate(cfg, mlp, dataset, masks, seed=seed, mask_name=mask)
    click.echo(
        f"acc={report.accuracy:.4f} dp={report.dp:.4f} eo={report.eo:.4f} "
        f"fairness_obj={report.fairness_obj:.6f} n_eval={report.n_eval}"
    )


@main.command("synth")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def synth_cmd(config_path, out_dir):
    """Generate a synthetic dataset and write node CSV plus edge list."""
    doc = read_json(config_path, "synth config")
    check_keys(doc, f"synth config {config_path}", (), SynthConfig.__dataclass_fields__)
    cfg = SynthConfig(**doc)
    dataset = synth_generate(cfg)
    os.makedirs(out_dir, exist_ok=True)
    node_path = os.path.join(out_dir, "nodes.csv")
    edge_path = os.path.join(out_dir, "edges.txt")
    d = dataset.features.shape[1]
    n, edges = dataset.graph.n, dataset.graph.edges
    with open(node_path, "w", newline="") as f:  # the bytes csv.writer writes: no cell needs quotes
        f.write(",".join(["id", "sensitive", "label"] + [f"f{k}" for k in range(d)]) + "\r\n")
        for lo in range(0, n, WRITE_BLOCK_ROWS):
            block = slice(lo, lo + WRITE_BLOCK_ROWS)
            rows = zip(
                dataset.sensitive[block].tolist(),
                dataset.labels[block].tolist(),
                dataset.features[block].tolist(),
            )
            lines = (",".join(map(repr, (i, s, y, *x))) + "\r\n" for i, (s, y, x) in enumerate(rows, lo))
            f.write("".join(lines))
    with open(edge_path, "w", newline="") as f:
        for lo in range(0, len(edges), WRITE_BLOCK_ROWS):
            f.write("".join(f"{i} {j}\n" for i, j in edges[lo : lo + WRITE_BLOCK_ROWS].tolist()))
    click.echo(
        f"n={dataset.graph.n} m={dataset.graph.num_edges} "
        f"nodes={node_path} edges={edge_path}"
    )


def _check_unique_ids(rows, path):
    """One ValueError line naming the first id that repeats in the CSV at ``path``."""
    seen = set()
    for row in rows:
        if row["id"] in seen:
            raise ValueError(f"duplicate id {row['id']!r} in {path}")
        seen.add(row["id"])


def _integer_cell(row, column, path, expected):
    """The integer in ``row[column]``; anything else is one ValueError line naming ``path``."""
    try:
        return int(row[column])
    except (TypeError, ValueError):
        raise ValueError(f"{column} value {row[column]!r} in {path}: expected {expected}") from None


@main.command("metrics")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True))
def metrics_cmd(pred_path, truth_path):
    """Compute accuracy/dp/eo from prediction and truth CSVs.

    Prediction CSV: columns id,pred, with pred an integer class. Truth CSV:
    columns id,label,sensitive, with sensitive -1 or 1; labels follow the
    node CSV's rule (``parse_labels``): a row with an empty or negative
    label is unlabeled and is left out, and ``1.0`` is class 1. A pred or
    sensitive cell outside its range is one ValueError line naming the file.
    """
    with open(pred_path, newline="") as f:
        pred_rows = list(csv.DictReader(f))
    _check_unique_ids(pred_rows, pred_path)
    preds = {row["id"]: _integer_cell(row, "pred", pred_path, "an integer") for row in pred_rows}
    with open(truth_path, newline="") as f:
        rows = list(csv.DictReader(f))
    _check_unique_ids(rows, truth_path)
    labels = parse_labels([row["label"] for row in rows], "label")
    y_hat, y, s = [], [], []
    for row, label in zip(rows, labels.tolist()):
        if label == MISSING_LABEL:
            continue
        if row["id"] not in preds:
            raise ValueError(f"no prediction for id {row['id']}")
        y_hat.append(preds[row["id"]])
        y.append(label)
        s.append(_integer_cell(row, "sensitive", truth_path, "-1 or 1"))
        if s[-1] not in (-1, 1):
            raise ValueError(
                f"sensitive value {row['sensitive']!r} in {truth_path}: expected -1 or 1"
            )
    if not y:
        raise ValueError(f"no labeled row in {truth_path}")
    y_hat, y, s = np.array(y_hat), np.array(y), np.array(s)
    mask = np.ones(len(y), dtype=bool)
    click.echo(
        f"acc={accuracy_metric(y_hat, y, mask):.4f} "
        f"dp={demographic_parity(y_hat, s, mask):.4f} "
        f"eo={equal_opportunity(y_hat, y, s, mask):.4f}"
    )


def entry():
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:
        print(f"error: {exc.format_message()}", file=sys.stderr)
        sys.exit(2)
    except click.Abort:
        sys.exit(130)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    entry()

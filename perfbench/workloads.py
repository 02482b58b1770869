"""The benchmark's workloads.

``prepare`` writes a workload's inputs from the benchmark seed; the package
sees only these files. Run as a script, this module executes one repetition of
one workload in a fresh interpreter and prints its result as one JSON line:

    python3 perfbench/workloads.py --workload fair-deep --inputs DIR --work DIR --trace 0

It must be started from the root of a checkout; it imports the package from
``src/`` of that checkout and from nowhere else.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time

import numpy as np

# Criterion 7's synthetic graph (tests/test_acceptance.py::TestCriterion7).
FAIR_DEEP_SYNTH = dict(
    n=2000,
    eps_sens=0.9,
    eps_label=0.7,
    mean_degree=10.0,
    feat_dim=16,
    class_shift=0.15,
    group_shift=0.8,
    label_group_corr=0.75,
    group_frac=0.15,
)
FAIR_DEEP_RUN = dict(scheme="fair", lambda_s=1.0, num_layers=32, hidden=[64], epochs=25)
FAIR_DEEP_LAMBDA_F = (0.0, 30.0)

# A synthetic graph the size of the NBA dataset.
TABLE_SMALL_SYNTH = dict(n=400, mean_degree=40.0, feat_dim=39)
TABLE_SMALL_RUN = dict(num_layers=2, epochs=300)
TABLE_SMALL_GRID = {"lambda_s": [1.0, 4.0], "lambda_f": [0.0, 30.0]}
TABLE_SMALL_BASELINES = ("mlp", "gcn", "sgc", "appnp", "ppnp_exact", "ml1")

INGEST_NODES = 100_000
INGEST_FEATURES = 16
INGEST_EDGES = 500_000  # edge-file lines, repeats and reversals included
INGEST_SYNTH = dict(n=25_000)
INGEST_RUN = dict(scheme="fair", lambda_s=1.0, num_layers=2, hidden=[16], epochs=3, lr=0.01)
INGEST_LAMBDA_F = (0.0, 30.0)

NODE_SCHEMA = {"id": "id", "sensitive": "sensitive", "sensitive_pos_value": "1", "label": "label"}

# -- inputs -----------------------------------------------------------------


def prepare(workload, seed, inputs):
    """Write the inputs of ``workload`` for ``seed`` into the directory ``inputs``."""
    os.makedirs(inputs, exist_ok=True)
    seed %= 2**32  # numpy seeds are nonnegative
    if workload == "fair-deep":
        spec = {"synth": {**FAIR_DEEP_SYNTH, "seed": seed}, "seeds": [seed]}
    elif workload == "table-small":
        spec = {"synth": {**TABLE_SMALL_SYNTH, "seed": seed}, "seeds": [seed]}
    elif workload == "ingest-large":
        spec = {"synth": {**INGEST_SYNTH, "seed": seed}, "seeds": [seed]}
        spec["expected"] = _write_ingest_files(seed, inputs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(inputs, "spec.json"), "w") as f:
        json.dump(spec, f)


def _write_ingest_files(seed, inputs):
    """Node CSV and an edge list with repeated and reversed pairs, plus their numpy summary."""
    rng = np.random.default_rng(seed)
    n, d = INGEST_NODES, INGEST_FEATURES
    group = rng.random(n) < 0.3
    labels = (rng.random(n) < np.where(group, 0.7, 0.3)).astype(np.int64)
    features = rng.standard_normal((n, d))
    features[:, : d // 2] += 0.5 * labels[:, None]
    features[:, d // 2 :] += 0.5 * group[:, None]
    ids = rng.permutation(n) + 100_000  # file order differs from id order
    table = np.column_stack([ids, np.where(group, 1, 2), labels, features])
    header = ",".join(["id", "sensitive", "label"] + [f"f{k}" for k in range(d)])
    np.savetxt(
        os.path.join(inputs, "nodes.csv"),
        table,
        fmt=["%d", "%d", "%d"] + ["%.6f"] * d,
        delimiter=",",
        header=header,
        comments="",
    )

    # 90% fresh random pairs, 10% copies of earlier pairs, half of them reversed
    m_fresh = INGEST_EDGES * 9 // 10
    a = rng.integers(n, size=m_fresh)
    b = (a + rng.integers(1, n, size=m_fresh)) % n  # never a self-loop
    pick = rng.integers(m_fresh, size=INGEST_EDGES - m_fresh)
    flip = rng.random(pick.size) < 0.5
    a = np.concatenate([a, np.where(flip, b[pick], a[pick])])
    b = np.concatenate([b, np.where(flip, a[pick], b[pick])])
    order = rng.permutation(a.size)
    a, b = a[order], b[order]
    np.savetxt(os.path.join(inputs, "edges.txt"), np.column_stack([ids[a], ids[b]]), fmt="%d")

    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    lo, hi = keys // n, keys % n
    same = int(np.count_nonzero(labels[lo] == labels[hi]))
    return {"num_edges": int(keys.size), "homophily": same / int(keys.size)}


# -- one repetition -----------------------------------------------------------


class Rep:
    """Results of one repetition: per-run rows, attempts, failures and checks."""

    def __init__(self):
        self.runs = []  # [scheme, lambda_s, lambda_f, seed, acc, dp, eo]
        self.attempted = 0
        self.failed = 0
        self.epochs = 0
        self.checks = []

    def check(self, name, ok, detail):
        self.checks.append([name, bool(ok), detail])

    def add_reports(self, reports, epochs):
        for r in reports:
            self.add_run(r.scheme, r.lambda_s, r.lambda_f, r.seed, r.accuracy, r.dp, r.eo, epochs)

    def add_run(self, scheme, lambda_s, lambda_f, seed, acc, dp, eo, epochs):
        self.attempted += 1
        if not all(math.isfinite(v) for v in (acc, dp, eo)):
            self.failed += 1
        self.epochs += epochs
        self.runs.append([scheme, lambda_s, lambda_f, seed, acc, dp, eo])


def _cli(args):
    """Run one CLI command in-process, from a collected heap as in a process of its own."""
    from fairprop import cli

    # Otherwise the cyclic GC schedule inside a command, and with it peak RSS,
    # depends on the hash seed through earlier commands' allocations (finding c).
    gc.collect()
    cli.main(args, standalone_mode=False)


def run_fair_deep(rep, spec, inputs, work):
    from fairprop import data, train

    dataset = data.synth_generate(data.SynthConfig(**spec["synth"]))
    cfgs, reports, models = {}, {}, {}
    for lambda_f in FAIR_DEEP_LAMBDA_F:
        cfgs[lambda_f] = train.RunConfig.from_dict(
            dict(FAIR_DEEP_RUN, dataset={}, lambda_f=lambda_f, seeds=spec["seeds"])
        )
        reports[lambda_f], models[lambda_f], _ = train.run(cfgs[lambda_f], dataset=dataset, save=False)
        rep.add_reports(reports[lambda_f], cfgs[lambda_f].epochs)
    lo, hi = FAIR_DEEP_LAMBDA_F
    acc = {lam: np.mean([r.accuracy for r in reports[lam]]) for lam in FAIR_DEEP_LAMBDA_F}
    rep.check("accuracy drop <= 5 points", acc[lo] - acc[hi] <= 0.05, f"{acc[lo] - acc[hi]:+.4f}")
    # Whether the trained lambda_f=30 model has a lower dp than the lambda_f=0 one
    # varies with the seed at this size, so the check holds the weights fixed:
    # the debiasing layers must lower the soft parity gap of the same model.
    for seed, model, plain in zip(spec["seeds"], models[lo], reports[lo]):
        masks = data.make_splits(dataset, cfgs[lo].split_fractions, seed)
        debiased = train.evaluate(cfgs[hi], model, dataset, masks, seed=seed)
        rep.check(
            "debiasing lowers the soft parity gap at fixed weights",
            debiased.fairness_obj < plain.fairness_obj,
            f"{debiased.fairness_obj:.5f} vs {plain.fairness_obj:.5f}",
        )


def run_table_small(rep, spec, inputs, work):
    synth_path = _write_json(work, "synth.json", spec["synth"])
    data_dir = os.path.join(work, "data")
    _cli(["synth", "--config", synth_path, "--out", data_dir])
    dataset = {
        "node_csv": os.path.join(data_dir, "nodes.csv"),
        "edges": os.path.join(data_dir, "edges.txt"),
        "schema": NODE_SCHEMA,
        "name": "table-small",
    }
    out_dir = os.path.join(work, "out")
    base = dict(TABLE_SMALL_RUN, dataset=dataset, seeds=spec["seeds"], out_dir=out_dir)
    sweep_cfg = _write_json(work, "sweep.json", dict(base, scheme="fair"))
    grid = _write_json(work, "grid.json", TABLE_SMALL_GRID)
    sweep_csv = os.path.join(out_dir, "sweep.csv")

    expected = len(TABLE_SMALL_GRID["lambda_s"]) * len(TABLE_SMALL_GRID["lambda_f"]) * len(spec["seeds"])
    _cli_runs(rep, ["sweep", "--config", sweep_cfg, "--grid", grid], expected)
    rows = _read_rows(sweep_csv)
    _cli_runs(rep, ["sweep", "--config", sweep_cfg, "--grid", grid], 0)  # resume
    resumed = _read_rows(sweep_csv)
    rep.check("resume pass trains zero runs", len(resumed) == len(rows), f"{len(resumed) - len(rows)} new rows")
    keys = [(r["fingerprint"], r["seed"]) for r in resumed]
    rep.check(
        "one sweep row per (fingerprint, seed)",
        len(keys) == len(set(keys)) == expected,
        f"{len(keys)} rows, {len(set(keys))} distinct, {expected} expected",
    )
    for r in rows:
        _add_row(rep, r)

    results_csv = os.path.join(out_dir, "results.csv")
    for scheme in TABLE_SMALL_BASELINES:
        cfg = _write_json(work, f"{scheme}.json", dict(base, scheme=scheme))
        before = len(_read_rows(results_csv))
        _cli_runs(rep, ["train", "--config", cfg], len(spec["seeds"]))
        new = _read_rows(results_csv)[before:]
        rep.check(f"train {scheme} writes one row per seed", len(new) == len(spec["seeds"]), f"{len(new)} rows")
        for r in new:
            _add_row(rep, r)


def run_ingest_large(rep, spec, inputs, work):
    from fairprop import data, graph, train

    dataset = data.load_dataset(
        os.path.join(inputs, "nodes.csv"), os.path.join(inputs, "edges.txt"), NODE_SCHEMA, name="ingest"
    )
    homophily = graph.edge_homophily(dataset.graph, dataset.labels)
    expected = spec["expected"]
    rep.check(
        "edge count equals numpy count",
        dataset.graph.num_edges == expected["num_edges"],
        f"{dataset.graph.num_edges} vs {expected['num_edges']}",
    )
    rep.check(
        "edge homophily equals numpy value",
        homophily == expected["homophily"],
        f"{homophily!r} vs {expected['homophily']!r}",
    )

    synth_path = _write_json(work, "synth.json", spec["synth"])
    synth_dir = os.path.join(work, "synth")
    _cli(["synth", "--config", synth_path, "--out", synth_dir])
    with open(os.path.join(synth_dir, "nodes.csv")) as f:
        written = sum(1 for _ in f) - 1
    rep.check("synth writes every node", written == spec["synth"]["n"], f"{written} rows")

    for lambda_f in INGEST_LAMBDA_F:
        cfg = train.RunConfig.from_dict(dict(INGEST_RUN, dataset={}, lambda_f=lambda_f, seeds=spec["seeds"]))
        reports, _, _ = train.run(cfg, dataset=dataset, save=False)
        rep.add_reports(reports, cfg.epochs)


RUNNERS = {"fair-deep": run_fair_deep, "table-small": run_table_small, "ingest-large": run_ingest_large}
WORKLOADS = tuple(RUNNERS)


def _cli_runs(rep, args, runs):
    """Run a CLI command that trains ``runs`` runs.

    An exception fails the repetition and counts as ``runs`` failed runs, or as
    one failed operation for a command that should train none.
    """
    try:
        _cli(args)
    except Exception as exc:  # the benchmark records the failure and keeps going
        print(f"{args[0]} failed: {exc!r}", file=sys.stderr)
        rep.check(f"{args[0]} completes", False, repr(exc))
        rep.attempted += max(runs, 1)
        rep.failed += max(runs, 1)


def _add_row(rep, row):
    rep.add_run(
        row["scheme"],
        float(row["lambda_s"]),
        float(row["lambda_f"]),
        int(row["seed"]),
        float(row["acc"]),
        float(row["dp"]),
        float(row["eo"]),
        TABLE_SMALL_RUN["epochs"],
    )


def _read_rows(path):
    if not os.path.exists(path):
        return []
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _write_json(work, name, doc):
    path = os.path.join(work, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def digest(runs):
    """Hash of every run's (acc, dp, eo), bit for bit."""
    blob = ";".join(",".join(float(v).hex() for v in run[4:7]) for run in runs)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def execute(workload, inputs, work, traced):
    """One repetition in this process; returns the result document."""
    from tracer import PHASES, Tracer

    tracer = Tracer(only=None if traced else PHASES).install()
    with open(os.path.join(inputs, "spec.json")) as f:
        spec = json.load(f)
    rep = Rep()
    # Start from an empty cyclic-GC generation. Interpreter start-up and imports
    # allocate a hash-seed-dependent number of objects, which otherwise shifts
    # when the collector frees earlier epochs' tapes (README, finding c).
    gc.collect()
    start = time.perf_counter()
    try:
        RUNNERS[workload](rep, spec, inputs, work)
    except Exception as exc:  # a raised exception is a failed repetition, not a crash
        print(f"{workload} failed: {exc!r}", file=sys.stderr)
        rep.check("workload completes", False, repr(exc))
        rep.attempted += 1
        rep.failed += 1
    total_s = time.perf_counter() - start
    doc = {
        "total_s": total_s,
        "setup_s": tracer.phase_s["setup"],
        "train_s": tracer.phase_s["train"],
        "epochs": rep.epochs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": rep.runs,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "checks": rep.checks,
        "digest": digest(rep.runs),
    }
    if traced:
        doc["trace"] = {
            "spans": tracer.table(),
            "pairs": {f"{a}>{b}": n for (a, b), n in tracer.pair_calls.items()},
            "wrapped": sorted(tracer.wrapped),
        }
    return doc


def _import_package_from_checkout():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fairprop", "__init__.py")):
        sys.exit(f"no src/fairprop under {os.getcwd()}: run from the root of a checkout")
    sys.path.insert(0, src)
    import fairprop

    if os.path.dirname(os.path.dirname(os.path.abspath(fairprop.__file__))) != src:
        sys.exit(f"fairprop imported from {fairprop.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package_from_checkout()
    os.makedirs(args.work, exist_ok=True)
    doc = execute(args.workload, args.inputs, args.work, bool(args.trace))
    print(json.dumps(doc))


if __name__ == "__main__":
    main()

"""Dataset ingestion, deterministic splits, synthetic generation, results I/O."""

from __future__ import annotations

import csv
import hashlib
import os
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, build_graph, edge_homophily
from .metrics import RESULT_COLUMNS, MetricsReport

Array = np.ndarray

MISSING_LABEL = -1

# Characters of edge-list lines parsed at a time (``readlines`` hint): the
# text and tokens of one block, not of the whole file, are held at once.
EDGE_BLOCK_CHARS = 1 << 20


@dataclass
class Dataset:
    graph: SparseGraph
    features: Array  # n x d, sensitive column excluded
    sensitive: Array  # length n, values in {-1, +1}
    labels: Array  # length n integers, MISSING_LABEL where unknown
    name: str = ""

    def __post_init__(self):
        n = self.graph.n
        if not (
            self.features.shape[0] == n
            and self.sensitive.shape[0] == n
            and self.labels.shape[0] == n
        ):
            raise ValueError("feature/sensitive/label lengths must equal node count")
        if not (np.any(self.sensitive == 1) and np.any(self.sensitive == -1)):
            raise ValueError("sensitive attribute must contain both values")

    @property
    def labeled_mask(self) -> Array:
        return self.labels != MISSING_LABEL


@dataclass
class SplitMasks:
    train: Array
    val: Array
    test: Array
    seed: int


def load_dataset(node_csv_path, edge_path, schema: dict, name: str = "") -> Dataset:
    """Load a node CSV plus edge list.

    ``schema`` declares {"id": col, "sensitive": col, "sensitive_pos_value":
    raw, "label": col, "drop": [cols]}. Nodes are indexed densely in file
    order. The node CSV is read in one pass and no row outlives its parse;
    the edge list is parsed in blocks of lines (``EDGE_BLOCK_CHARS``), one
    pair of ids per line, split on whitespace or commas, with ``#`` starting
    a comment. An empty feature cell reads as 0, and an empty or negative
    label marks the node unlabeled. Each of these raises one ValueError
    line: a missing column, a row whose cell count differs from the
    header's (named by file and line), a repeated node id, a non-numeric or
    non-finite feature cell (``nan``, ``inf``) or a non-numeric,
    non-integer or non-finite label (named by column), a sensitive column
    with a single value, and an edge line that is malformed or names an
    unknown id (quoted without its comment).
    """
    with open(node_csv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        for key in ("id", "sensitive", "label"):
            if schema[key] not in header:
                raise ValueError(f"missing column {schema[key]!r} in node CSV")
        drop = set(schema.get("drop", []))
        id_col = header.index(schema["id"])
        sens_col = header.index(schema["sensitive"])
        label_col = header.index(schema["label"])
        feat_cols = [
            i
            for i, col in enumerate(header)
            if i not in (id_col, sens_col, label_col) and col not in drop
        ]
        pos_value = str(schema["sensitive_pos_value"])
        ids, positive, label_cells = [], [], []
        features = array("d")  # row-major feature values, 8 bytes each
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise ValueError(
                    f"{node_csv_path}, line {reader.line_num}: "
                    f"expected {len(header)} cells, got {len(row)}"
                )
            ids.append(row[id_col])
            positive.append(row[sens_col] == pos_value)
            label_cells.append(row[label_col])
            start = len(features)
            try:
                features.extend(map(float, map(row.__getitem__, feat_cols)))
            except ValueError:  # an empty cell reads as 0; anything else is an error
                del features[start:]
                for col in feat_cols:
                    try:
                        features.append(float(row[col] or 0))
                    except ValueError:
                        raise ValueError(
                            f"non-numeric feature cell {row[col]!r} in column {header[col]!r}"
                        ) from None

    n = len(ids)
    id_map = dict(zip(ids, range(n)))
    if len(id_map) < n:
        repeated = next(node_id for k, node_id in enumerate(ids) if id_map[node_id] != k)
        raise ValueError(f"duplicate node id {repeated!r} in node CSV")
    sensitive = np.where(np.array(positive, dtype=bool), 1, -1)
    labels = parse_labels(label_cells, header[label_col])
    features = np.frombuffer(features, dtype=np.float64).reshape(n, len(feat_cols))
    if not np.isfinite(features).all():
        r, c = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(
            f"non-finite feature cell {str(features[r, c])!r} in column "
            f"{header[feat_cols[c]]!r} (node {ids[r]!r})"
        )
    if len(set(sensitive.tolist())) < 2:
        raise ValueError("sensitive column takes a single value")
    del ids, positive, label_cells  # free the cell strings before the edge parse

    blocks = [np.empty((0, 2), dtype=np.int64)]  # the edges of each block of lines
    with open(edge_path) as f:
        while lines := f.readlines(EDGE_BLOCK_CHARS):
            text = re.sub(r"#[^\n]*", "", "".join(lines))
            del lines
            commas_only_line = "," in text and _COMMAS_ONLY_LINE.search(text)
            text = text.replace(",", " ")
            if commas_only_line or not set(map(len, map(str.split, text.split("\n")))) <= {0, 2}:
                raise ValueError(_first_bad_edge_line(edge_path, id_map))
            try:
                ends = np.fromiter(map(id_map.__getitem__, text.split()), np.int64)
            except KeyError:
                raise ValueError(_first_bad_edge_line(edge_path, id_map)) from None
            del text
            pairs = ends.reshape(-1, 2)
            blocks.append(pairs[pairs[:, 0] != pairs[:, 1]])  # self-loops are dropped
    del id_map
    edges = np.concatenate(blocks)
    del blocks
    graph = build_graph(n, edges)
    return Dataset(graph=graph, features=features, sensitive=sensitive, labels=labels, name=name)


def file_sha256(path) -> str:
    """Hex sha256 of a file's bytes; a missing file raises one ValueError line."""
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise ValueError(f"dataset file not found: {path!r}") from None
    digest = hashlib.sha256()
    with f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_labels(cells, column: str) -> Array:
    """Integer classes from label cells, the node CSV's rule.

    An empty or negative cell marks the node unlabeled (MISSING_LABEL); a
    cell written ``1.0`` is class 1. A non-numeric, non-finite or
    non-integer cell raises one ValueError line naming it and ``column``.
    """
    try:
        raw = np.array([float(cell or MISSING_LABEL) for cell in cells])
    except ValueError:  # name the first cell that is not a number
        for cell in cells:
            try:
                float(cell or MISSING_LABEL)
            except ValueError:
                raise ValueError(f"non-numeric label {cell!r} in column {column!r}") from None
    labels = np.where(raw < 0, MISSING_LABEL, raw)
    if not np.all(np.isfinite(labels)):
        raise ValueError(f"non-finite label in column {column!r}")
    fractional = labels != np.floor(labels)
    if fractional.any():
        raise ValueError(
            f"non-integer label {cells[np.argmax(fractional)]!r} in column {column!r}"
        )
    return labels.astype(np.int64)


# a line holding commas and nothing else, which has no ids but is not blank
_COMMAS_ONLY_LINE = re.compile(r"^[^\S\n]*,(?:[^\S\n]|,)*$", re.MULTILINE)


def _first_bad_edge_line(edge_path, id_map) -> str:
    """The error for the first edge line that is malformed or names an unknown id."""
    with open(edge_path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            parts = line.replace(",", " ").split()
            if line and len(parts) != 2:
                return f"malformed edge line {line!r}"
            if not all(part in id_map for part in parts):
                return f"edge references unknown node id in {line!r}"
    raise AssertionError("no malformed edge line or unknown id found")


def make_splits(dataset: Dataset, fractions=(0.5, 0.25, 0.25), seed: int = 0) -> SplitMasks:
    """Deterministic shuffle of labeled nodes, sliced into train/val/test.

    Train and val take floor(fraction * n_labeled); test takes the remainder.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    labeled = np.flatnonzero(dataset.labeled_mask)
    if labeled.size < 4:
        raise ValueError("too few labeled nodes to split")
    order = np.random.default_rng(seed).permutation(labeled)
    n_train = int(fractions[0] * labeled.size)
    n_val = int(fractions[1] * labeled.size)
    n = dataset.graph.n
    masks = [np.zeros(n, dtype=bool) for _ in range(3)]
    masks[0][order[:n_train]] = True
    masks[1][order[n_train : n_train + n_val]] = True
    masks[2][order[n_train + n_val :]] = True
    return SplitMasks(train=masks[0], val=masks[1], test=masks[2], seed=seed)


# Version of synth_generate's draw, part of a synthetic run's fingerprint: a
# change that alters any generated graph must bump it, so that a resumed
# sweep does not keep rows trained on the old graph.
SYNTH_GENERATOR = 2


@dataclass
class SynthConfig:
    n: int = 1000
    group_frac: float = 0.5  # fraction of nodes with s = +1
    eps_sens: float = 0.8  # target sensitive edge homophily
    eps_label: float = 0.7  # target label edge homophily
    mean_degree: float = 10.0
    feat_dim: int = 16
    class_shift: float = 1.0  # class-conditional feature mean shift
    group_shift: float = 1.0  # group-conditional feature mean shift
    label_group_corr: float = 0.75  # P(label == group indicator)
    seed: int = 0

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need at least 4 nodes")
        if not (0.0 <= self.eps_sens <= 1.0 and 0.0 <= self.eps_label <= 1.0):
            raise ValueError("homophily targets must lie in [0, 1]")


def synth_generate(cfg: SynthConfig, max_attempts: int = 20) -> Dataset:
    """Two-group synthetic graph with tunable sensitive and label homophily.

    Each of the ``m = round(mean_degree * n / 2)`` edges draws two decisions
    once: whether its endpoints share a sensitive group (probability
    ``eps_sens``) and whether they share a label (``eps_label``). The edges
    are then drawn in batches: each round draws a first endpoint ``i`` for
    every pending edge and a second endpoint ``j`` from the (group, label)
    cell its decisions pick relative to ``i``; an empty cell is replaced by
    its whole group, so the group constraint stays exact (eps_sens of 1 or
    0 forbids the other kind). An edge is accepted when ``i != j`` and its
    pair is new, the first of a round's repeats winning; a rejected edge
    keeps its decisions and is drawn again, for at most 100 rounds, after
    which it is dropped. The whole draw, labels included, is retried until
    the measured label homophily lands within 0.05 of the target.
    ``SYNTH_GENERATOR`` names this draw order.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    n_pos = max(1, min(n - 1, int(round(cfg.group_frac * n))))
    sensitive = np.full(n, -1, dtype=np.int64)
    sensitive[:n_pos] = 1
    indicator = (sensitive == 1).astype(np.int64)
    m = int(round(cfg.mean_degree * n / 2.0))

    for _ in range(max_attempts):
        flip = rng.random(n) >= cfg.label_group_corr
        labels = np.where(flip, 1 - indicator, indicator)
        same_group = rng.random(m) < cfg.eps_sens
        same_label = rng.random(m) < cfg.eps_label

        # one pool per cell c = 2 * (group == -1) + label, concatenated
        pools = []
        for grp in (1, -1):
            for lab in (0, 1):
                cell = np.flatnonzero((sensitive == grp) & (labels == lab))
                pools.append(cell if cell.size else np.flatnonzero(sensitive == grp))
        size = np.array([pool.size for pool in pools])
        start = np.cumsum(size) - size
        pool = np.concatenate(pools)

        keys = np.array([n * n])  # accepted pairs as min * n + max, sorted, and a sentinel
        pending = np.arange(m)
        for _round in range(100):
            if pending.size == 0:
                break
            i = rng.integers(n, size=pending.size)
            j_negative = (sensitive[i] == 1) != same_group[pending]
            j_label = np.where(same_label[pending], labels[i], 1 - labels[i])
            c = 2 * j_negative + j_label
            j = pool[start[c] + rng.integers(0, size[c])]
            key = np.minimum(i, j) * n + np.maximum(i, j)
            accept = np.zeros(pending.size, dtype=bool)
            accept[np.unique(key, return_index=True)[1]] = True  # first of each key
            accept &= (i != j) & (keys[np.searchsorted(keys, key)] != key)
            new = np.sort(key[accept])
            keys = np.insert(keys, np.searchsorted(keys, new), new)
            pending = pending[~accept]

        graph = build_graph(n, np.column_stack(np.divmod(keys[:-1], n)))
        if abs(edge_homophily(graph, labels) - cfg.eps_label) <= 0.05:
            break
    else:
        raise RuntimeError(
            f"could not reach label homophily {cfg.eps_label} "
            f"(sensitive homophily {cfg.eps_sens}) after {max_attempts} attempts"
        )

    d = cfg.feat_dim
    features = rng.standard_normal((n, d))
    half = d // 2
    features[:, :half] += cfg.class_shift * labels[:, None]
    features[:, half:] += cfg.group_shift * indicator[:, None]

    return Dataset(
        graph=graph,
        features=features,
        sensitive=sensitive,
        labels=labels,
        name=f"synth-n{n}-es{cfg.eps_sens}-el{cfg.eps_label}-seed{cfg.seed}",
    )


def standardize_features(features: Array, train_mask) -> Array:
    """Per-column zero mean, unit variance computed over training nodes."""
    train = features[np.asarray(train_mask, dtype=bool)]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    del train
    std[std == 0.0] = 1.0
    out = features - mean
    out /= std
    return out


def write_results(path, reports, append: bool = False):
    """Write one CSV row per report; appending suppresses the header.

    Without ``append`` the rows go to a sibling temporary file that then
    replaces ``path``, so a failure part-way leaves the old file whole.
    """
    if append:
        header = not (os.path.exists(path) and os.path.getsize(path) > 0)
        with open(path, "a", newline="") as f:
            _write_rows(f, reports, header=header)
        return
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as f:
            _write_rows(f, reports, header=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_rows(f, reports, header: bool):
    writer = csv.writer(f)
    if header:
        writer.writerow(RESULT_COLUMNS)
    for report in reports:
        writer.writerow(report.row())


def read_results(path):
    """Parse a results CSV back into MetricsReport objects.

    A row with the wrong number of fields or an unparseable value raises one
    ValueError line naming the file and the line.
    """
    reports = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(reader.fieldnames)} fields")
                reports.append(
                    MetricsReport(
                        accuracy=float(row["acc"]),
                        dp=float(row["dp"]),
                        eo=float(row["eo"]),
                        fairness_obj=float(row["fairness_obj"]),
                        n_eval=int(row["n_eval"]),
                        seed=int(row["seed"]),
                        config_fingerprint=row["fingerprint"],
                        scheme=row["scheme"],
                        lambda_s=float(row["lambda_s"]),
                        lambda_f=float(row["lambda_f"]),
                        wall_time_ms=float(row["wall_time_ms"]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return reports

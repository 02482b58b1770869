"""Document checks, dataset ingestion, deterministic splits, synthetic generation, results I/O."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import re
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .graph import IncidentVector, SparseGraph, build_graph, edge_homophily, incident_vector
from .metrics import RESULT_COLUMNS, MetricsReport

Array = np.ndarray

MISSING_LABEL = -1

# Characters parsed at a time, a block completed to its line end: the text,
# cells and tokens of one block, not of the whole file, are held at once.
BLOCK_CHARS = 1 << 20


def read_json(path, what):
    """The JSON document in the file at ``path``, a ``what`` file; text that
    does not parse is one ValueError line naming the file."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path}: not a JSON object ({exc})") from None


def check_keys(doc, where, required, optional) -> None:
    """One ValueError line unless ``doc`` is an object that holds every key
    of ``required`` and no key outside ``required`` and ``optional``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {doc!r}")
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError(f"{where} has unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{where} lacks {key!r}")


def is_integer(value) -> bool:
    """Whether a document's ``value`` is an integer; ``true`` is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a document's ``value`` is a real number; ``true`` is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_schema(schema) -> str:
    """The cell text ``sensitive_pos_value`` names (an integer names its decimal text), or one
    ValueError line naming a schema key that is missing, unknown or of the wrong type."""
    check_keys(schema, "dataset schema", ("id", "sensitive", "sensitive_pos_value", "label"), ("drop",))
    for key in ("id", "sensitive", "label"):
        if not isinstance(schema[key], str):
            raise ValueError(f"dataset schema {key!r} must be a string, got {schema[key]!r}")
    pos_value = schema["sensitive_pos_value"]
    if not (isinstance(pos_value, str) or is_integer(pos_value)):
        raise ValueError(f"dataset schema 'sensitive_pos_value' must be a string or an integer, got {pos_value!r}")
    drop = schema.get("drop", [])
    if not isinstance(drop, (list, tuple)) or not all(isinstance(column, str) for column in drop):
        raise ValueError(f"dataset schema 'drop' must be a list of column names, got {drop!r}")
    return str(pos_value)


@dataclass
class Dataset:
    """A graph's node features, sensitive attribute and labels, checked once, when built:
    a length other than the node count, a sensitive attribute ``incident_vector``
    refuses and a label above 1 are one ValueError line each. ``delta``, the
    incident vector every run reads, is computed here, and anew by ``dataclasses.replace``."""

    graph: SparseGraph
    features: Array  # n x d, sensitive column excluded
    sensitive: Array  # length n, values in {-1, +1}
    labels: Array  # length n integers, MISSING_LABEL where unknown
    name: str = ""
    delta: IncidentVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.graph.n
        if not (
            self.features.shape[0] == n
            and self.sensitive.shape[0] == n
            and self.labels.shape[0] == n
        ):
            raise ValueError("feature/sensitive/label lengths must equal node count")
        self.delta = _check_columns(self.sensitive, self.labels)

    @property
    def labeled_mask(self) -> Array:
        return self.labels != MISSING_LABEL


def _check_columns(sensitive, labels) -> IncidentVector:
    """``sensitive``'s incident vector, or one ValueError line for an attribute
    ``incident_vector`` refuses or a label above 1."""
    delta = incident_vector(sensitive)
    highest = int(labels.max())  # an unlabeled node is MISSING_LABEL, below every class
    if highest > 1:
        raise ValueError(f"labeled nodes hold {highest + 1} classes: fairprop is two-class, labels 0 and 1")
    return delta


@dataclass
class SplitMasks:
    train: Array
    val: Array
    test: Array
    seed: int


def load_dataset(node_csv_path, edge_path, schema: dict, name: str = "") -> Dataset:
    """Load a node CSV plus edge list.

    ``check_schema`` checks ``schema`` first. Nodes are indexed densely in
    file order. The node CSV is parsed in blocks of lines (``BLOCK_CHARS``)
    or row by row, and the edge list in blocks of ``BLOCK_CHARS`` characters,
    each completed to its line end, so of the text only the id and label
    cells outlive their row.
    The edge list holds one pair of ids per line, split on whitespace or
    commas, with ``#`` starting a comment. An empty feature cell reads as 0,
    and an empty or negative label marks the node unlabeled. Each of these
    raises one ValueError line: a node CSV without a header or without a row
    below it (named by file), a missing column, a row whose cell count
    differs from the header's (named by file and line), a repeated node id,
    a non-numeric or non-finite feature cell (``nan``, ``inf``) or a
    non-numeric, non-integer or non-finite label (named by column), a
    ``sensitive_pos_value`` that matches no cell (named with the column),
    an edge line that is malformed or names an unknown id (quoted without
    its comment), and what ``Dataset`` refuses, before the edge list is
    read: a sensitive column whose cells all match, and a label above 1.

    Two readers give the same arrays. numpy's text reader takes a node CSV
    that holds no quote or NUL and whose non-blank rows all have the
    header's cell count, and each block of edge lines whose ids are all
    canonical nonnegative decimal integers (``str(int(i)) == i``) when the
    node ids are too; ``fairprop synth`` writes such files. Any other node
    CSV goes through ``csv`` row by row, and any other block through a dict
    of the ids; these raise the errors above that concern a row or a line.
    """
    pos_value = check_schema(schema)
    with open(node_csv_path, newline="") as f:
        header = next(csv.reader(f), None)
    if header is None:
        raise ValueError(f"empty node CSV {str(node_csv_path)!r}: expected a header row")
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
    columns = (node_csv_path, header, (id_col, sens_col, label_col), feat_cols, pos_value)
    ids, positive, label_cells, features = _plain_node_table(*columns) or _csv_node_table(*columns)

    n = len(ids)
    if not n:
        raise ValueError(f"empty node CSV {str(node_csv_path)!r}: expected a row per node below the header")
    id_index = _integer_index(ids)
    id_map = None
    if id_index is None or np.any(id_index[0][1:] == id_index[0][:-1]):
        id_map = dict(zip(ids, range(n)))
        if len(id_map) < n:
            repeated = next(node for k, node in enumerate(ids) if id_map[node] != k)
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
    if not np.any(sensitive == 1):
        raise ValueError(f"sensitive_pos_value {pos_value!r} matches no cell of column {schema['sensitive']!r}")
    _check_columns(sensitive, labels)  # what Dataset refuses, before the edge parse
    del ids, positive, label_cells  # free the cell strings before the edge parse

    blocks = [np.empty((0, 2), dtype=np.int64)]  # the edges of each block of lines
    with open(edge_path) as f:
        while text := f.read(BLOCK_CHARS) + f.readline():
            text = re.sub(r"#[^\n]*", "", text)
            commas_only_line = "," in text and _COMMAS_ONLY_LINE.search(text)
            text = text.replace(",", " ")
            ends = None if commas_only_line else _integer_ends(text, id_index)
            if ends is None:
                if id_map is None:  # the ids are the strings of the indexed values
                    id_map = dict(zip(map(str, id_index[0].tolist()), id_index[1].tolist()))
                if commas_only_line or not set(map(len, map(str.split, text.split("\n")))) <= {0, 2}:
                    raise ValueError(_first_bad_edge_line(edge_path, id_map))
                try:
                    ends = np.fromiter(map(id_map.__getitem__, text.split()), np.int64)
                except KeyError:
                    raise ValueError(_first_bad_edge_line(edge_path, id_map)) from None
            del text
            pairs = ends.reshape(-1, 2)
            blocks.append(pairs[pairs[:, 0] != pairs[:, 1]])  # self-loops are dropped
    del id_map, id_index
    edges = np.concatenate(blocks)
    del blocks
    graph = build_graph(n, edges)
    return Dataset(graph=graph, features=features, sensitive=sensitive, labels=labels, name=name)


def _csv_node_table(path, header, key_cols, feat_cols, pos_value):
    """Ids, positive-group flags, label cells and row-major features, read by ``csv``."""
    id_col, sens_col, label_col = key_cols
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        ids, positive, label_cells = [], [], []
        features = array("d")  # row-major feature values, 8 bytes each
        for row in csv_rows(reader, len(header), path):
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
    return ids, positive, label_cells, features


def csv_rows(reader, width, path):
    """The rows a ``csv.reader`` of the file at ``path`` yields, blank lines skipped.

    A row of other than ``width`` cells, the header's count, is one
    ValueError line naming ``path`` and the line.
    """
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            raise ValueError(f"{path}, line {reader.line_num}: expected {width} cells, got {len(row)}")
        yield row


def _plain_node_table(path, header, key_cols, feat_cols, pos_value):
    """``_csv_node_table`` by numpy's text reader, or None where the two could differ.

    Without a quote, ``csv`` splits a row at every comma and ends it at
    ``\\r``, ``\\n`` or ``\\r\\n``, as universal newlines and ``np.loadtxt(
    delimiter=",", quotechar=None)`` do. ``loadtxt`` keeps a ``str`` cell
    as it is, whitespace and all, and parses a float cell as ``float()``
    does or not at all (an empty cell, ``1_0``). A NUL, a row that could
    hold a cell past ``csv``'s size limit, and a short or long row are left
    to ``csv``, which raises their errors.
    """
    row_type = np.dtype([("keys", object, (3,)), ("features", np.float64, (len(feat_cols),))])
    ids, positive, label_cells = [], [], []
    features = array("d")
    with open(path) as f:
        f.readline()  # the header, which csv has read: a quote in it would show below
        while lines := f.readlines(BLOCK_CHARS):
            rows = [line for line in lines if line != "\n"]  # csv skips empty lines
            del lines
            if not rows:
                continue
            text = "".join(rows)
            if (
                '"' in text
                or "\0" in text  # an error for csv before Python 3.11
                or set(map(str.count, rows, repeat(","))) != {len(header) - 1}
                or max(map(len, rows)) > csv.field_size_limit()
            ):
                return None
            del text
            try:
                table = np.loadtxt(
                    rows,
                    dtype=row_type,
                    delimiter=",",
                    comments=None,
                    quotechar=None,
                    usecols=[*key_cols, *feat_cols],
                    ndmin=1,
                )
            except ValueError:
                return None
            del rows
            ids += table["keys"][:, 0].tolist()
            positive.append(table["keys"][:, 1] == pos_value)
            label_cells += table["keys"][:, 2].tolist()
            features.frombytes(table["features"].tobytes())
    return ids, np.concatenate([np.zeros(0, dtype=bool), *positive]), label_cells, features


def _integer_index(ids):
    """The ids as sorted int64 values and the node of each, or None unless
    every id is a canonical nonnegative decimal integer below 2**63."""
    text = "".join(ids)
    if not text.isascii():  # int() reads other digits too
        return None
    try:
        values = np.fromiter(map(int, ids), np.int64, len(ids))
    except (ValueError, OverflowError):  # not an integer, or past int64
        return None
    if _digit_count(values) != len(text):  # a sign, a space, an underscore or a leading zero
        return None
    order = np.argsort(values, kind="stable")
    return values[order], order


# the least value with 2, 3, ..., 19 decimal digits
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _digit_count(values) -> int:
    """Decimal digits of int64 values, summed; a negative value counts one,
    fewer than the characters of its sign and digits."""
    return values.size + int(np.searchsorted(_POWERS_OF_TEN, values, side="right").sum())


def _integer_ends(text, id_index):
    """The node of every id in a block of edge lines, by numpy, or None.

    ``text`` has its comments cut and its commas made spaces. numpy takes
    the block when its ids are canonical ASCII decimal integers, two to a
    line, separated by spaces and tabs and all in ``id_index``. A sign, a
    leading zero or any other character shows as more characters than the
    parsed values have digits. Else the block is left to the dict of ids.
    """
    if id_index is None or not text.isascii():  # no other digit may read as an ASCII one
        return None
    if text.isspace() or not text:  # loadtxt warns on a block without data
        return np.empty(0, dtype=np.int64)
    try:
        values = np.loadtxt(text.split("\n"), dtype=np.int64, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != 2:
        return None
    values = values.ravel()
    if _digit_count(values) != len(text) - text.count(" ") - text.count("\t") - text.count("\n"):
        return None
    tokens, inverse = np.unique(values, return_inverse=True)
    sorted_ids, order = id_index
    at = np.minimum(np.searchsorted(sorted_ids, tokens), len(sorted_ids) - 1)
    if not np.array_equal(sorted_ids[at], tokens):
        return None
    return order[at][inverse]


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


def check_split_fractions(fractions) -> None:
    """One ValueError line unless ``fractions`` is a list of three numbers,
    each >= 0, that sum to 1: the train, val and test shares."""
    if not isinstance(fractions, (list, tuple)) or len(fractions) != 3 or not all(map(is_number, fractions)):
        raise ValueError(f"split_fractions must be a list of three numbers, got {fractions!r}")
    if not all(f >= 0 for f in fractions):  # NaN too
        raise ValueError(f"split fractions must be >= 0, got {tuple(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")


def make_splits(dataset: Dataset, fractions=(0.5, 0.25, 0.25), seed: int = 0) -> SplitMasks:
    """Deterministic shuffle of labeled nodes, sliced into train/val/test.

    Train and val take floor(fraction * n_labeled); test takes the remainder.
    Fractions that ``check_split_fractions`` refuses, and a split left empty,
    raise one ValueError line: training, selection and the report each need
    rows.
    """
    check_split_fractions(fractions)
    labeled = np.flatnonzero(dataset.labeled_mask)
    if labeled.size < 4:
        raise ValueError("too few labeled nodes to split")
    n_train = int(fractions[0] * labeled.size)
    n_val = int(fractions[1] * labeled.size)
    sizes = {"train": n_train, "val": n_val, "test": labeled.size - n_train - n_val}
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(
                f"split fractions {tuple(fractions)} leave the {name} split empty "
                f"with {labeled.size} labeled nodes"
            )
    order = np.random.default_rng(seed).permutation(labeled)
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
SYNTH_MAX_ATTEMPTS = 20  # draws of synth_generate before it gives up


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

    @classmethod
    def from_doc(cls, doc, where) -> "SynthConfig":
        check_keys(doc, where, (), cls.__dataclass_fields__)
        return cls(**doc)

    def __post_init__(self):
        for name, low in (("n", 4), ("feat_dim", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in (
            "mean_degree", "group_frac", "eps_sens", "eps_label", "label_group_corr", "class_shift", "group_shift"
        ):
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.mean_degree < math.inf:  # NaN too
            raise ValueError(f"mean_degree must be > 0 and finite, got {self.mean_degree}")
        if not 0 < self.group_frac < 1:
            raise ValueError(f"group_frac must be in (0, 1), got {self.group_frac}")
        for name in ("eps_sens", "eps_label", "label_group_corr"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("class_shift", "group_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def synth_generate(cfg: SynthConfig) -> Dataset:
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
    the label homophily lands within 0.05 of the target, at most
    ``SYNTH_MAX_ATTEMPTS`` times. ``SYNTH_GENERATOR`` names this draw order.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    n_pos = max(1, min(n - 1, int(round(cfg.group_frac * n))))
    sensitive = np.full(n, -1, dtype=np.int64)
    sensitive[:n_pos] = 1
    indicator = (sensitive == 1).astype(np.int64)
    m = int(round(cfg.mean_degree * n / 2.0))

    for _ in range(SYNTH_MAX_ATTEMPTS):
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
            f"(sensitive homophily {cfg.eps_sens}) after {SYNTH_MAX_ATTEMPTS} attempts"
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


class Standardization(NamedTuple):
    """Per-column shift and scale of a feature matrix: ``(x - shift) / scale``."""

    shift: Array
    scale: Array

    def apply(self, features: Array) -> Array:
        """A standardized copy of ``features``."""
        out = features - self.shift
        out /= self.scale
        return out


def standardize_features(features: Array, train_mask) -> Standardization:
    """The standardization of ``features`` to per-column zero mean and unit
    variance over the training nodes; ``.apply`` makes the standardized copy.

    A column whose training rows are all equal gets that value as its shift
    and a scale of 1, so it standardizes to exact zeros: its computed mean
    can be an ulp off and its std a few ulps above 0, which would read as
    -1 or +1 on every row.
    """
    train = features[np.asarray(train_mask, dtype=bool)]
    shift = train.mean(axis=0)
    scale = train.std(axis=0)
    constant = np.ptp(train, axis=0) == 0.0
    shift[constant] = train[0, constant]
    del train
    scale[constant | (scale == 0.0)] = 1.0
    return Standardization(shift, scale)


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

    A header that lacks a column of ``RESULT_COLUMNS``, a row with the wrong
    number of fields or an unparseable value raises one ValueError line
    naming the file and the line. An empty file holds no rows.
    """
    reports = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or RESULT_COLUMNS
        missing = [column for column in RESULT_COLUMNS if column not in header]
        if missing:
            raise ValueError(f"{path}, line 1: no column {missing[0]!r}")
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(reader.fieldnames)} fields")
                reports.append(MetricsReport.from_row(row))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return reports

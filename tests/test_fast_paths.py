"""Differential property tests for the two fast paths.

Each fast path claims to give what a slower, simpler path gives: numpy's text
reader what ``csv`` and the dict of ids give (``data.load_dataset``), and the
closed-form contrast sweep what the C-row reference layer gives
(``debias.stack`` against ``conftest.reference_stack``). hypothesis draws the
inputs; ``derandomize`` keeps every run on the same examples.
"""

import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close_rel, centred, reference_stack
from fairprop import data
from fairprop.debias import stack, steps
from fairprop.graph import build_graph, incident_vector
from fairprop.train import RunConfig

def examples(count):
    """Settings for ``count`` examples, the same ones on every run."""
    return settings(max_examples=count, derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


# ---------------------------------------------------------------------------
# node table: numpy's text reader against csv
# ---------------------------------------------------------------------------

NUMBER_CELLS = ["0", "1", "-2", "1.5", "1e3", ".5", "5.", "+4", "-0", "1e400", "Infinity", "nan", "-inf"]
ODD_CELLS = ["", " 3", "3\t", "1_0", "0x1", "1e", "abc", "١", "١.٥", '"1.5"']

# a feature cell: mostly a number as fairprop synth or numpy writes it, now and then an odd one
cell = st.integers(0, 9).flatmap(
    lambda k: st.floats(allow_nan=False).map(repr) if k < 5
    else st.sampled_from(NUMBER_CELLS) if k < 9
    else st.sampled_from(ODD_CELLS)
)


def mostly(common, rare, one_in=10):
    """A strategy that draws from ``rare`` once in ``one_in`` draws, else from ``common``."""
    return st.integers(1, one_in).flatmap(lambda k: st.sampled_from(common if k > 1 else rare))


@st.composite
def node_csvs(draw):
    """The text of a node CSV with columns id, sens, y, f0, ...: odd cells,
    line endings, blank lines and rows of the wrong length included."""
    features = draw(st.integers(0, 3))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(["id", "sens", "y"] + [f"f{k}" for k in range(features)])]
    for k in range(draw(st.integers(0, 12))):
        row = [
            draw(mostly([str(k), f"n{k}"], [f" {k}", "٣", "", f'"n{k}"'])),
            draw(mostly(["1", "-1", "0"], [" 1", "1.0", ""])),
            draw(mostly(["0", "1", ""], ["-1", "1.0", "2.5", "x"])),
            *(draw(cell) for _ in range(features)),
        ]
        if draw(st.integers(0, 29)) == 0:  # a row of the wrong length
            row = row[:-1] if draw(st.booleans()) else row + ["0"]
        lines.append(",".join(row))
        if draw(st.integers(0, 7)) == 0:
            lines.append("")
    trailing = newline * draw(st.integers(0, 2))
    return newline.join(lines) + newline + trailing, features


def node_table(reader, path, features):
    """``reader``'s node table as comparable values, or the error it raises."""
    header = ["id", "sens", "y"] + [f"f{k}" for k in range(features)]
    try:
        result = reader(path, header, (0, 1, 2), list(range(3, 3 + features)), "1")
    except ValueError as exc:
        return f"ValueError: {exc}"
    if result is None:
        return None
    ids, positive, label_cells, values = result
    return ids, np.asarray(positive, dtype=bool).tolist(), label_cells, values.tobytes()


@examples(400)
@given(node_csvs())
def test_plain_node_table_matches_csv(scratch, drawn):
    text, features = drawn
    path = scratch / "nodes.csv"
    path.write_bytes(text.encode())
    plain = node_table(data._plain_node_table, path, features)
    if plain is not None:  # None leaves the file to csv, which raises its errors
        assert plain == node_table(data._csv_node_table, path, features)


# ---------------------------------------------------------------------------
# edge list: integer ids (numpy) against letter-prefixed ids (the dict of ids),
# each read in blocks of any size and with any line end against one block
# ---------------------------------------------------------------------------

SEPARATORS = [" ", "\t", ",", ", ", " , ", "  "]
SCHEMA = {"id": "id", "sensitive": "sens", "sensitive_pos_value": "1", "label": "y"}


@st.composite
def edge_lists(draw):
    """(node count, edge lines as lists of pieces): an id piece is an
    ("id", text) pair, anything else is a separator, comment or stray text."""
    n = draw(st.integers(2, 8))
    id_token = st.builds(
        lambda prefix, k: ("id", prefix + str(k)),
        mostly([""], ["+", "-", "0"], 40),
        mostly(range(n), [n, n + 1], 40),  # n and n + 1 name no node
    )
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 39))
        if kind == 0:  # a line without ids
            lines.append([draw(mostly(["", "  ", "# c", "\t"], [",", " , ,"], 3))])
            continue
        count = {1: 1, 2: 3, 3: 4}.get(kind, 2)
        pieces = [draw(mostly([""], [" ", "\t"]))]
        for k in range(count):
            if k:
                pieces.append(draw(st.sampled_from(SEPARATORS)))
            pieces.append(draw(id_token))
        pieces.append(draw(mostly(["", "# c"], [" ", " # c d"])))
        lines.append(pieces)
    return n, lines


def load_with_ids(directory, n, lines, prefix, newline="\n"):
    """``load_dataset`` on n nodes named ``prefix + str(k)`` and the edge lines
    with each id token so prefixed, each line ended by ``newline``: the
    arrays' bytes, or the error without the prefix."""
    directory.mkdir(exist_ok=True)
    nodes, edges = directory / "nodes.csv", directory / "edges.txt"
    order = np.random.default_rng(n).permutation(n)  # ids out of file order
    rows = [f"{prefix}{k},{1 if k % 2 else -1},{k % 2},{k * 0.5}" for k in order.tolist()]
    nodes.write_text("\n".join(["id,sens,y,f0", *rows]) + "\n")
    text = "".join(
        "".join(prefix + piece[1] if isinstance(piece, tuple) else piece for piece in line) + newline
        for line in lines
    )
    edges.write_bytes(text.encode())
    try:
        ds = data.load_dataset(nodes, edges, SCHEMA)
    except ValueError as exc:
        return str(exc).replace(prefix, "")
    a = ds.graph.adjacency
    return [x.tobytes() for x in (a.indptr, a.indices, a.data, ds.features, ds.sensitive, ds.labels)]


@examples(300)
@given(edge_lists(), st.sampled_from([1, 5, 64, data.BLOCK_CHARS]), st.sampled_from(["\n", "\r\n", "\r"]))
def test_integer_ids_match_letter_ids(scratch, drawn, block_chars, newline):
    n, lines = drawn
    one_block = load_with_ids(scratch / "one", n, lines, "")
    with patch.object(data, "BLOCK_CHARS", block_chars):
        assert load_with_ids(scratch / "int", n, lines, "", newline) == one_block
        assert load_with_ids(scratch / "letter", n, lines, "v", newline) == one_block


# ---------------------------------------------------------------------------
# debiasing stack: the closed-form contrast sweep against the reference layer
# ---------------------------------------------------------------------------


@examples(500)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    density=st.floats(0.1, 0.9),
    lambda_s=st.floats(0.0, 10.0),
    lambda_f=st.sampled_from([0.0, 0.05, 0.5, 3.0, 30.0, 1e4]),
    layers=st.integers(1, 6),
    ml1=st.booleans(),
)
def test_stack_matches_reference(seed, n, density, lambda_s, lambda_f, layers, ml1):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    g = build_graph(n, pairs)
    s = np.where(rng.random(n) < 0.5, 1, -1)
    s[:2] = [1, -1]
    delta = incident_vector(s)
    Xt = rng.standard_normal((n, 2)) * 3.0
    w = centred(rng.standard_normal((n, 2)))  # the stack's logits are centred per node
    cfg = RunConfig(lambda_s=lambda_s, lambda_f=lambda_f, num_layers=layers)

    F, pullback = stack(Xt, g, delta, layers, *steps(lambda_s), lambda_f, ml1)
    F_ref, ref_pullback = reference_stack(Xt, g, delta, cfg, ml1)
    assert_close_rel(F, centred(F_ref), rtol=1e-9, afloor=1e-9)
    grad_ref = ref_pullback(w)
    assert_close_rel(pullback(w), grad_ref, rtol=1e-7, afloor=1e-7 * np.abs(grad_ref).max())

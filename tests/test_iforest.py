import base64
import binascii
import errno
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import tempfile
import tracemalloc
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch import iforest
from natwatch.iforest import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    CHUNK_ROWS,
    ModelArtifact,
    anomaly_scores,
    c_factor,
    load_artifact,
    normality_score,
    normality_scores,
    save_artifact,
    train_forest,
)
from natwatch.flowdata import DeviceModelId, FlowDataset, LabeledFlow, filter_model
from natwatch.preprocess import InsufficientDataError, fit_schema, flow_columns, transform_many
from natwatch.synth import builtin_scenario, generate_flows

from util import WEBCAM, dataset, make_flow, make_labeled


@dataclass(slots=True)
class TreeNode:
    """A linked node of the reference trees: a split (split_dim >= 0) or a
    leaf (split_dim = -1), which alone has a size, the sample points that
    end in it."""

    split_dim: int = -1
    split_value: float = 0.0
    size: int = 0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None


@dataclass
class IsolationTree:
    root: TreeNode


def exact_c(n):
    """Reference: c(n) with an exact harmonic sum instead of the ln
    approximation."""
    if n <= 1:
        return 0.0
    harmonic = sum(1.0 / i for i in range(1, n))
    return 2.0 * harmonic - 2.0 * (n - 1) / n


def reference_tree(X, subsample, master_seed, t) -> TreeNode:
    """Independent recursive oracle for tree t of train_forest(X, ...,
    subsample, master_seed): from its own stream, a subsample, then depth
    first one dimension (integers) and one value (uniform) per split."""
    n = X.shape[0]
    psi = min(subsample, n)
    rng = iforest._tree_rng(master_seed, t)
    idx = rng.choice(n, size=psi, replace=False)
    return _reference_node(X, idx, 0, math.ceil(math.log2(psi)), rng)


def _reference_node(X, idx, depth, height_limit, rng) -> TreeNode:
    n = idx.size
    if n <= 1 or depth >= height_limit:
        return TreeNode(size=n)
    sub = X[idx]
    lo = sub.min(axis=0)
    hi = sub.max(axis=0)
    splittable = np.flatnonzero(hi > lo)
    if splittable.size == 0:
        return TreeNode(size=n)
    dim = int(splittable[rng.integers(splittable.size)])
    value = float(rng.uniform(lo[dim], hi[dim]))
    mask = sub[:, dim] < value
    return TreeNode(
        split_dim=dim,
        split_value=value,
        left=_reference_node(X, idx[mask], depth + 1, height_limit, rng),
        right=_reference_node(X, idx[~mask], depth + 1, height_limit, rng),
    )


def preorder_columns(root: TreeNode) -> list:
    """A linked tree's nodes in preorder as two columns [dims, values]: a
    split is its dim and value, a leaf is -1 and its size."""
    dims, values, stack = [], [], [root]
    while stack:
        node = stack.pop()
        dims.append(node.split_dim)  # -1 at a leaf
        values.append(node.size if node.split_dim < 0 else node.split_value)
        if node.split_dim >= 0:
            stack += (node.right, node.left)
    return [dims, values]


@st.composite
def training_matrices(draw):
    """An (n, d) matrix, n in 1..300 and d in 1..8, of real, integer-valued,
    one-hot and constant columns, with rows drawn from 1..n distinct ones."""
    n, d = draw(st.integers(1, 300)), draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(["real", "integer", "one-hot", "constant"]),
                          min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, n))
    hot = rng.integers(0, max(1, kinds.count("one-hot")), distinct)  # each row's hot column
    X, one_hot = np.empty((distinct, d)), 0
    for j, kind in enumerate(kinds):
        if kind == "real":
            X[:, j] = rng.normal(size=distinct) * 10.0 ** rng.integers(-3, 4)
        elif kind == "integer":
            X[:, j] = rng.integers(0, rng.integers(1, 6), distinct)
        elif kind == "one-hot":
            X[:, j], one_hot = hot == one_hot, one_hot + 1
        else:
            X[:, j] = rng.normal()
    return X[rng.integers(0, distinct, n)]


@given(X=training_matrices(), subsample=st.integers(1, 300), n_trees=st.integers(1, 7),
       seed=st.integers(min_value=0), pass_rows=st.integers(1, 600))
def test_train_forest_grows_the_reference_trees(X, subsample, n_trees, seed, pass_rows):
    default, iforest.PASS_ROWS = iforest.PASS_ROWS, pass_rows  # so that rounds take many passes
    try:
        forest = train_forest(X, n_trees, subsample, seed)
    finally:
        iforest.PASS_ROWS = default
    assert decode_trees(iforest._forest_to_dict(forest)) == \
        [preorder_columns(reference_tree(X, subsample, seed, t)) for t in range(n_trees)]


@pytest.mark.parametrize("seed", [1, 2])
def test_a_bench_size_forest_grows_the_reference_trees(seed):
    """One separable-13 model at bench size: 100 trees at psi 256 on 12
    features, grown in passes cut at the default PASS_ROWS, as in training."""
    data = generate_flows(builtin_scenario("separable-13", flows_per_device=2000, seed=seed))
    model = next(lf.label for lf in data if isinstance(lf.label, DeviceModelId))
    training = filter_model(data.split.training, model)
    X = transform_many(fit_schema(training, model), flow_columns(training))
    assert X.shape == (1400, 12) and 100 * 256 > 2 * iforest.PASS_ROWS  # rounds of many passes
    forest = train_forest(X, 100, 256, seed)
    assert decode_trees(iforest._forest_to_dict(forest)) == \
        [preorder_columns(reference_tree(X, 256, seed, t)) for t in range(100)]


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def crafted_generator(first_word: int, has_uint32: int = 0, uinteger: int = 0,
                      inc: int = 0x5851F42D4C957F2D14057B7EF767814F) -> np.random.Generator:
    """A PCG64 generator whose next raw word is first_word: its state steps
    to first_word itself (high 64 bits 0), whose output is its low 64 bits."""
    bit_generator = np.random.PCG64(0)
    before = (first_word - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                           "has_uint32": has_uint32, "uinteger": uinteger}
    return np.random.Generator(bit_generator)


def replay_matches_the_calls(make_rngs, calls, ahead: int) -> None:
    """The draws of calls, (m, lo, hi) per stream or None, replayed by
    _Draws from streams drawn `ahead` words at a time, are those of
    rng.integers(m) then rng.uniform(lo, hi) on twin streams, neither at m =
    0 (no split), and leave the twins' streams where the replay leaves its."""
    draws, twins = iforest._Draws(make_rngs(), ahead), make_rngs()
    for call in calls:
        trees = np.array([t for t, drawn in enumerate(call) if drawn], dtype=np.intp)
        m, lo, hi = (np.array([call[t][i] for t in trees.tolist()]) for i in range(3))
        expected_picks = [twins[t].integers(call[t][0]) if call[t][0] else 0
                          for t in trees.tolist()]
        assert draws.integers(trees, m).tolist() == expected_picks
        trees, lo, hi = trees[m > 0], lo[m > 0], hi[m > 0]
        expected_values = [twins[t].uniform(call[t][1], call[t][2]) for t in trees.tolist()]
        assert draws.uniform(trees, lo, hi).tobytes() == np.array(expected_values).tobytes()
    states = [twin.bit_generator.state for twin in twins]
    assert draws.held.tolist() == [bool(state["has_uint32"]) for state in states]
    assert draws.half[draws.held].tolist() == [state["uinteger"] for state in states
                                               if state["has_uint32"]]
    assert draws._next_words(np.arange(len(twins))).tolist() == \
        [twin.bit_generator.random_raw() for twin in twins]


def test_draws_replay_a_lemire_rejection():
    """A first half of 0 is rejected at m = 3, (2^32 - 3) mod 3 = 1: the
    pick comes from the word's high half, the next half."""
    first = 0x9E3779B900000000
    assert crafted_generator(first).bit_generator.random_raw() == first
    twin = crafted_generator(first)
    assert twin.integers(3) == (0x9E3779B9 * 3) >> 32
    assert twin.bit_generator.state["has_uint32"] == 0  # both halves taken
    replay_matches_the_calls(lambda: [crafted_generator(first)],
                             [[(3, 0.0, 1.0)], [(5, -2.0, 3.5)], [(2, 1.0, 2.0)]], 8)


def test_draws_replay_a_half_held_on_entry():
    """A half held before the first call is the first integers draws, and
    uniform leaves a held half held."""
    def rngs():
        return [crafted_generator(0x0123456789ABCDEF, has_uint32=1, uinteger=0xFFFFFFFF),
                crafted_generator(0xFEDCBA9876543210, has_uint32=1, uinteger=7)]
    replay_matches_the_calls(rngs, [[(1, 0.5, 0.75), (7, -1.0, 0.0)], [(12, 2.0, 3.0), None],
                                    [None, (1, 0.0, 1.0)], [(2, 0.0, 1e-300), (3, -1e300, 1e300)]],
                             4)


@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       ahead=st.integers(1, 4),
       calls=st.lists(st.lists(st.one_of(st.none(), st.tuples(
           st.integers(0, 40), st.floats(-1e6, 1e6), st.floats(0.0, 1e6, exclude_min=True))),
           min_size=4, max_size=4), max_size=25))
def test_draws_replay_past_the_words_drawn_ahead(seeds, ahead, calls):
    """Streams drawn 1 to 4 words ahead, with calls that take many more,
    some streams skipped: each draws the further words from its stream."""
    calls = [[c and (c[0], c[1], c[1] + c[2]) for c in call[:len(seeds)]] for call in calls]
    replay_matches_the_calls(lambda: [iforest._tree_rng(seed, t) for t, seed in enumerate(seeds)],
                             calls, ahead)


def test_draws_refuse_a_stream_that_is_not_pcg64():
    other = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(ValueError, match="PCG64"):
        iforest._Draws([iforest._tree_rng(0, 0), other], 4)
    with pytest.raises(ValueError, match="PCG64"):
        iforest._grow_trees(np.zeros((10, 2)), [np.random.Generator(np.random.PCG64DXSM(1))], 8)


def linked_path_length(tree: IsolationTree, x) -> float:
    """Edges from the root of a linked tree to the leaf row x reaches,
    plus c(leaf size)."""
    node, depth = tree.root, 0
    while node.split_dim >= 0:
        node = node.left if x[node.split_dim] < node.split_value else node.right
        depth += 1
    return depth + c_factor(node.size)


def reference_scores(trees: list, sample_count: int, Q: np.ndarray) -> np.ndarray:
    """Anomaly scores of the rows of Q from linked trees: each row's path
    lengths (linked_path_length) added tree after tree in forest order."""
    c = c_factor(sample_count)
    if c == 0.0:
        return np.full(len(Q), 0.5)
    mean_h = []
    for row in Q.tolist():
        h = 0.0
        for tree in trees:
            h += linked_path_length(tree, row)
        mean_h.append(h / len(trees))
    return np.power(2.0, -np.array(mean_h) / c)


CHUNK_EDGES = [1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 1]


@given(X=training_matrices(), subsample=st.integers(1, 300), n_trees=st.integers(1, 7),
       seed=st.integers(min_value=0),
       rows=st.one_of(st.sampled_from(CHUNK_EDGES), st.integers(0, 3 * CHUNK_ROWS + 1)),
       query_seed=st.integers(0, 2**32 - 1))
def test_node_table_adds_every_trees_path_length(X, subsample, n_trees, seed, rows, query_seed):
    """A batch of one or more chunks of rows, NaN and +-inf cells among
    them, scores bit for bit as the path lengths of the saved trees, decoded
    node by node, add up in forest order, and as its rows score in a batch
    of another size."""
    forest = train_forest(X, n_trees, subsample, seed)
    rng = np.random.default_rng(query_seed)
    # training rows, some moved off the values the trees split between
    Q = X[rng.integers(0, len(X), rows)] + rng.normal(size=(rows, X.shape[1])) \
        * rng.integers(0, 2, (rows, X.shape[1]))
    cells = rng.random(Q.shape)
    Q[cells < 0.1], Q[(0.1 <= cells) & (cells < 0.15)] = math.nan, math.inf
    Q[(0.15 <= cells) & (cells < 0.2)] = -math.inf
    scores = anomaly_scores(forest, Q)
    expected = reference_scores(reference_forest_from_dict(iforest._forest_to_dict(forest)),
                                forest.sample_count, Q)
    assert scores.shape == (rows,) and scores.tobytes() == expected.tobytes()
    if rows:  # the same rows repeated past the next chunk boundary
        tiled = anomaly_scores(forest, np.tile(Q, (CHUNK_ROWS // rows + 1, 1)))[:rows]
        assert tiled.tobytes() == scores.tobytes()
    assert anomaly_scores(forest, Q[:0]).shape == (0,)


class TestCFactor:
    def test_known_values(self):
        assert c_factor(2) == pytest.approx(1.0)  # 2*H(1) - 2*(1/2)
        assert c_factor(256) == pytest.approx(10.244, abs=1e-2)

    def test_close_to_harmonic_sum(self):
        for n in range(2, 1025):
            assert abs(c_factor(n) - exact_c(n)) < 0.01

    def test_degenerate(self):
        assert c_factor(0) == 0.0
        assert c_factor(1) == 0.0


def table_path_length(tree: list, psi: int, x: list) -> float:
    """The path length of row x down one tree, given as its preorder
    columns [dims, values], on the node table loading decodes from them."""
    dims, values = tree
    columns = (np.array([len(dims)]), np.array(dims, np.int32), np.array(values, np.float64))
    forest = iforest._forest(columns, psi, 0, len(x))
    return float(iforest._forest_paths(forest, np.array([x], dtype=float))[0, 0])


class TestPathLength:
    def test_singleton_leaf(self):
        assert table_path_length([[-1], [1]], 1, [0.0]) == 0.0

    def test_two_point_leaf(self):
        tree = [[0, -1, -1], [0.5, 2, 2]]
        assert table_path_length(tree, 4, [0.1]) == pytest.approx(1 + c_factor(2))

    def test_uneven_leaf(self):
        tree = [[0, -1, -1], [0.5, 1, 3]]
        assert table_path_length(tree, 4, [0.9]) == pytest.approx(1 + c_factor(3))
        assert table_path_length(tree, 4, [0.1]) == 1.0

    def test_boundary_goes_right(self):
        tree = [[0, -1, -1], [0.5, 1, 1]]
        assert table_path_length(tree, 2, [0.5]) == 1.0  # x >= v goes right


# Split values, and most query cells, are drawn from these, so that rows
# meet splits at x == v (a row goes right) as well as either side.
_GRID = [-1.0, 0.0, 0.25, 0.5, 1.0]


@st.composite
def tree_columns(draw, psi: int, dimension: int) -> list:
    """One tree train_forest could write for psi, as preorder columns
    [dims, values]: a single leaf, a lopsided chain (each split has a leaf
    on a drawn side and goes on on the other) down to any depth up to the
    height limit, or random splits of at most 40 nodes."""
    height_limit = math.ceil(math.log2(psi))
    shape = draw(st.sampled_from(["leaf", "chain", "random"])) if height_limit else "leaf"
    chain_depth = draw(st.integers(1, height_limit)) if shape == "chain" else 0
    dims, values, room = [], [], [40]

    def leaf():
        dims.append(-1)
        values.append(float(draw(st.integers(0, psi))))

    def grow(depth):
        room[0] -= 1
        if shape == "chain" and depth < chain_depth:
            dims.append(draw(st.integers(0, dimension - 1)))
            values.append(draw(st.sampled_from(_GRID) | st.floats(-2, 2)))
            if draw(st.booleans()):  # the leaf on the left
                leaf()
                grow(depth + 1)
            else:
                grow(depth + 1)
                leaf()
        elif shape == "random" and depth < height_limit and room[0] >= 2 \
                and draw(st.booleans()):
            dims.append(draw(st.integers(0, dimension - 1)))
            values.append(draw(st.sampled_from(_GRID) | st.floats(-2, 2)))
            grow(depth + 1)
            grow(depth + 1)
        else:
            leaf()

    grow(0)
    return [dims, values]


@given(data=st.data(),
       psi=st.sampled_from([1, 2, 3, 256, 2**53 - 1]) | st.integers(1, 2**53 - 1),
       dimension=st.integers(1, 3), n_trees=st.integers(1, 5),
       rows=st.one_of(st.sampled_from(CHUNK_EDGES), st.integers(0, 3 * CHUNK_ROWS + 1)),
       query_seed=st.integers(0, 2**32 - 1))
def test_table_walk_gives_the_linked_trees_path_lengths(data, psi, dimension, n_trees,
                                                        rows, query_seed):
    """Trees of any shape train_forest could write, walked on the node
    table they decode into: every tree's path lengths of rows with NaN and
    +-inf cells are bit for bit those of the reference decoder's linked
    tree, and so are the anomaly scores of a batch of one or more chunks."""
    trees = [data.draw(tree_columns(psi, dimension)) for _ in range(n_trees)]
    forest = {"sample_count": psi, "dimension": dimension}
    encode_trees(forest, trees)
    columns = tuple(np.array(read_column(forest, name), DTYPES[name]) for name in DTYPES)
    decoded = iforest._forest(columns, psi, 0, dimension)
    linked = [reference_tree_from_columns(tree, dimension, psi, math.ceil(math.log2(psi)))
              for tree in trees]
    rng = np.random.default_rng(query_seed)
    Q = rng.choice(_GRID + [math.nan, math.inf, -math.inf], (rows, dimension))
    off_grid = rng.random(Q.shape) < 0.3
    Q[off_grid] = rng.uniform(-2, 2, off_grid.sum())
    walked = iforest._forest_paths(decoded, Q)
    assert walked.shape == (n_trees, rows)
    for tree, paths in zip(linked, walked.tolist()):
        assert [float(linked_path_length(tree, row)).hex() for row in Q.tolist()] == \
            [path.hex() for path in paths]
    assert anomaly_scores(decoded, Q).tobytes() == reference_scores(linked, psi, Q).tobytes()
    assert decode_trees(iforest._forest_to_dict(decoded)) == trees


@given(n=st.integers(2, 300), dimension=st.integers(2, 4), n_trees=st.integers(1, 5),
       subsample=st.sampled_from([2, 3, 256]), one_leaf=st.booleans(),
       rows=st.sampled_from([CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5, CHUNK_ROWS - 1, CHUNK_ROWS]),
       distinct=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_a_batch_of_repeated_rows_scores_as_each_row_alone(n, dimension, n_trees, subsample,
                                                           one_leaf, rows, distinct, seed):
    """A few rows repeated in shuffled order, in a batch of a chunk more or
    less than CHUNK_ROWS or of several chunks, score bit for bit as each row
    alone and as the saved trees, decoded node by node, score them. Their
    cells fall below a dimension's least split, above its greatest, on
    either, NaN, +-inf, and -0.0 beside +0.0. The forest is trained on a
    last column that is constant, which no tree splits, or on rows all
    alike, which makes every tree one leaf."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, dimension)) if one_leaf else rng.normal(size=(n, dimension))
    X[:, -1] = 0.5
    forest = train_forest(X, n_trees, subsample, seed)
    assert forest.low[-1] == math.inf and forest.high[-1] == -math.inf
    base = np.empty((distinct, dimension))
    for j, (low, high) in enumerate(zip(forest.low.tolist(), forest.high.tolist())):
        edges = [low - 0.5, low, high, high + 0.5] if low <= high else []
        base[:, j] = rng.choice([-0.0, 0.0, math.nan, math.inf, -math.inf, *edges,
                                 *rng.normal(size=2)], distinct)
    twins = np.repeat(base[:1], 2, axis=0)  # one row with +0.0, one with -0.0
    twins[:, rng.integers(dimension)] = [0.0, -0.0]
    base = np.vstack([base, twins])
    Q = base[rng.permutation(np.arange(rows) % len(base))]
    scores = anomaly_scores(forest, Q)
    alone = np.concatenate([anomaly_scores(forest, row[None]) for row in Q])
    expected = reference_scores(reference_forest_from_dict(iforest._forest_to_dict(forest)),
                                forest.sample_count, Q)
    assert scores.tobytes() == alone.tobytes() == expected.tobytes()


def test_a_batch_walks_one_row_of_each_class_of_rows_it_holds(monkeypatch):
    """A 1,000-row batch of k rows that differ once clamped to the split
    range walks k rows: rows below every dimension's least split are one
    class, as are rows above every greatest. A batch of CHUNK_ROWS rows or
    fewer walks every row, repeated or not."""
    rng = np.random.default_rng(7)
    forest = train_forest(rng.normal(size=(300, 3)), n_trees=20)
    assert (forest.low < forest.high).all()
    inside = rng.uniform(forest.low, forest.high, (7, 3))
    below = forest.low - rng.uniform(0.1, 10, (400, 3))
    above = forest.high + rng.uniform(0.0, 10, (400, 3))
    # each inside row with its first cell below the range: 7 more classes,
    # which share that clamped cell with below's
    mixed = inside[np.arange(186) % 7]
    mixed[:, 0] = below[:186, 0]
    X = np.vstack([inside, below, above, mixed, inside])[rng.permutation(1000)]
    walked, forest_paths = [], iforest._forest_paths
    monkeypatch.setattr(iforest, "_forest_paths",
                        lambda forest, X: walked.append(len(X)) or forest_paths(forest, X))
    anomaly_scores(forest, X)
    assert walked == [7 + 1 + 1 + 7]
    walked.clear()
    anomaly_scores(forest, X[:CHUNK_ROWS])
    assert walked == [CHUNK_ROWS]


def linked_node_table(trees: list) -> dict:
    """The node table fields of linked trees, read node by node in preorder,
    the trees end to end: a split's dim, value, and its right and left
    children's rows; a leaf's 0, depth + c(size), and its own row as both
    children."""
    table = {name: [] for name in ("dim", "value", "right", "left", "roots")}
    depths = []

    def read(node, depth):
        row = len(table["dim"])
        leaf = node.split_dim < 0
        table["dim"].append(0 if leaf else node.split_dim)
        table["value"].append(depth + c_factor(node.size) if leaf else node.split_value)
        table["right"].append(row)
        table["left"].append(row)
        if leaf:
            depths.append(depth)
        else:
            table["left"][row] = row + 1
            read(node.left, depth + 1)
            table["right"][row] = len(table["dim"])
            read(node.right, depth + 1)

    for tree in trees:
        table["roots"].append(len(table["dim"]))
        read(tree.root, 0)
    return {**table, "steps": max(depths)}


@given(data=st.data(),
       psi=st.sampled_from([1, 2, 3, 256, 1025, 2**53 - 1]) | st.integers(1, 2**53 - 1),
       dimension=st.integers(1, 3), n_trees=st.integers(1, 5))
def test_node_decoder_gives_the_linked_trees_node_table(data, psi, dimension, n_trees):
    """The node table that _forest decodes from trees of any
    shape train_forest could write (chains down to the height limit, and
    leaf sizes past the c(size) lookup table at a psi above 1024) is, row
    for row, that of the reference decoder's linked trees: right and left
    children, roots and steps, and each leaf's depth + c(size) bit for
    bit."""
    trees = [data.draw(tree_columns(psi, dimension)) for _ in range(n_trees)]
    forest = {"sample_count": psi, "dimension": dimension}
    encode_trees(forest, trees)
    table = iforest._forest(tuple(np.array(read_column(forest, name), DTYPES[name])
                                  for name in DTYPES), psi, 0, dimension)
    expected = linked_node_table([reference_tree_from_columns(
        tree, dimension, psi, math.ceil(math.log2(psi))) for tree in trees])
    assert [table.dim.dtype, table.child.dtype, table.roots.dtype] == [np.intp] * 3
    for name, column in (("dim", table.dim), ("right", table.child[0::2]),
                         ("left", table.child[1::2]), ("roots", table.roots)):
        assert column.tolist() == expected[name], name
    assert [value.hex() for value in table.value.tolist()] == \
        [value.hex() for value in expected["value"]]
    assert table.steps == expected["steps"]


class TestTrainForest:
    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 5))
        a = train_forest(X, n_trees=20, subsample=64, master_seed=42)
        b = train_forest(X, n_trees=20, subsample=64, master_seed=42)
        q = rng.normal(size=(50, 5))
        assert np.array_equal(anomaly_scores(a, q), anomaly_scores(b, q))

    def test_shared_seed_tree_prefix(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 4))
        small = train_forest(X, n_trees=5, subsample=64, master_seed=7)
        big = train_forest(X, n_trees=20, subsample=64, master_seed=7)
        q = np.zeros((1, 4))
        small_paths, big_paths = (iforest._forest_paths(f, q)[:, 0] for f in (small, big))
        assert small_paths.tolist() == big_paths[:5].tolist()
        assert decode_trees(iforest._forest_to_dict(small)) == \
            decode_trees(iforest._forest_to_dict(big))[:5]

    def test_different_seed_differs(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 4))
        a = train_forest(X, n_trees=10, subsample=64, master_seed=1)
        b = train_forest(X, n_trees=10, subsample=64, master_seed=2)
        q = rng.normal(size=(20, 4))
        assert not np.array_equal(anomaly_scores(a, q), anomaly_scores(b, q))

    @pytest.mark.parametrize("column", [[0.0, math.inf], [-math.inf, 0.0], [-1e308, 1e308]])
    def test_a_split_range_past_float64_raises_as_uniform_does(self, column):
        """uniform refuses a range high - low that overflows; so does its
        replay, and no forest is built."""
        with pytest.raises(OverflowError, match="range exceeds valid bounds"):
            np.random.default_rng(0).uniform(*column)
        with pytest.raises(OverflowError, match="range exceeds valid bounds"):
            train_forest(np.array([column, column]).T, n_trees=3, subsample=2)

    def test_subsample_capped_at_n(self):
        X = np.random.default_rng(3).normal(size=(40, 3))
        forest = train_forest(X, n_trees=5, subsample=256, master_seed=0)
        assert forest.sample_count == 40

    def test_height_limit(self):
        X = np.random.default_rng(4).normal(size=(500, 3))
        forest = train_forest(X, n_trees=3, subsample=256, master_seed=0)
        for tree in reference_forest_from_dict(iforest._forest_to_dict(forest)):
            deepest, stack = 0, [(tree.root, 0)]
            while stack:
                node, depth = stack.pop()
                if node.split_dim < 0:
                    deepest = max(deepest, depth)
                else:
                    stack += [(node.left, depth + 1), (node.right, depth + 1)]
            assert deepest == math.ceil(math.log2(forest.sample_count)) == 8

    def test_no_trees_raises(self):
        with pytest.raises(ValueError, match="n_trees"):
            train_forest(np.zeros((5, 2)), n_trees=0)

    @pytest.mark.parametrize("subsample", [0, -3])
    def test_no_subsample_raises(self, subsample):
        with pytest.raises(ValueError, match="subsample must be at least 1"):
            train_forest(np.zeros((5, 2)), subsample=subsample)

    def test_empty_matrix_raises(self):
        with pytest.raises(InsufficientDataError):
            train_forest(np.empty((0, 3)))

    def test_constant_data_scores_half(self):
        X = np.ones((50, 4))
        forest = train_forest(X, n_trees=10, subsample=32, master_seed=0)
        assert anomaly_scores(forest, np.ones((1, 4)))[0] == pytest.approx(0.5)
        assert anomaly_scores(forest, np.full((1, 4), 99.0))[0] == pytest.approx(0.5)

    def test_single_point_training(self):
        forest = train_forest(np.array([[1.0, 2.0]]), n_trees=5, master_seed=0)
        assert anomaly_scores(forest, np.array([[1.0, 2.0]]))[0] == 0.5


class TestScoring:
    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 4))
        forest = train_forest(X, master_seed=0)
        s = anomaly_scores(forest, rng.uniform(-5, 5, size=(200, 4)))
        assert np.all(s > 0.0) and np.all(s <= 1.0)

    def test_outlier_scores_higher_than_centroid(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(500, 3))
        forest = train_forest(X, master_seed=0)
        centroid = X.mean(axis=0)
        outlier = np.full(3, 10.0)
        assert normality_score(forest, outlier) < normality_score(forest, centroid)

    def test_normality_is_half_minus_anomaly(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 3))
        forest = train_forest(X, master_seed=0)
        q = rng.normal(size=(30, 3))
        assert np.allclose(normality_scores(forest, q), 0.5 - anomaly_scores(forest, q))

    def test_single_matches_batch(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 3))
        forest = train_forest(X, n_trees=25, master_seed=0)
        # one chunk of the walk, one and a row, three and a row, and more
        for n in CHUNK_EDGES + [1000]:
            q = rng.normal(size=(n, 3))
            batch = normality_scores(forest, q).tolist()
            assert [normality_score(forest, row) for row in q] == batch, n

    def test_dimension_mismatch(self):
        forest = train_forest(np.random.default_rng(9).normal(size=(50, 3)), n_trees=5)
        with pytest.raises(ValueError, match="dimension"):
            normality_score(forest, np.zeros(4))


def small_artifact():
    train = dataset(
        make_labeled(in_bytes=100, dst_port=53),
        make_labeled(in_bytes=300, dst_port=123),
        make_labeled(in_bytes=200, dst_port=53),
    )
    schema = fit_schema(train, WEBCAM)
    X = transform_many(schema, [lf.flow for lf in train])
    forest = train_forest(X, n_trees=10, subsample=3, master_seed=11)
    return ModelArtifact(
        model=WEBCAM,
        schema=schema,
        forest=forest,
        calibrated_thresholds={10: -0.03},
        trained_at="2026-01-01T00:00:00Z",
        training_flow_count=3,
    )


# Format 4's column types, written out here rather than read from iforest.
DTYPES = {"lengths": "<i4", "dims": "<i4", "values": "<f8"}


def read_column(forest: dict, name: str) -> list:
    """Column name of a format-4 forest as Python ints or floats, read
    through np.frombuffer; refused (ValueError) as the loader refuses it:
    not a string, not base64, not the canonical base64 of its bytes, or
    not whole items."""
    text, dtype = forest[name], np.dtype(DTYPES[name])
    if type(text) is not str:
        raise ValueError(f"{name} is not a base64 string: {text!r:.30}")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error) as exc:
        raise ValueError(f"{name} is not base64: {exc}") from None
    if base64.b64encode(raw).decode() != text:
        raise ValueError(f"{name} is not canonical base64")
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{name} holds {len(raw)} bytes, not whole {dtype.itemsize}-byte items")
    return np.frombuffer(raw, dtype).tolist()


def write_column(forest: dict, name: str, items: list) -> None:
    forest[name] = base64.b64encode(np.array(items, dtype=DTYPES[name]).tobytes()).decode()


def decode_trees(forest: dict) -> list:
    """A format-4 forest's trees, [dims, values] each, cut by its lengths;
    refused (ValueError) as the loader refuses columns that do not agree."""
    lengths, dims, values = (read_column(forest, name) for name in DTYPES)
    if not lengths:
        raise ValueError("a forest needs at least one tree")
    if min(lengths) < 0 or sum(lengths) != len(dims) or len(values) != len(dims):
        raise ValueError(f"tree lengths are not counts of the {len(dims)} dims and "
                         f"{len(values)} values")
    ends = np.cumsum(lengths).tolist()
    return [[dims[end - length:end], values[end - length:end]]
            for length, end in zip(lengths, ends)]


def encode_trees(forest: dict, trees: list) -> None:
    """Write trees, [dims, values] each, into a format-4 forest. A tree's
    length is its count of dims, so columns of unequal length stay so."""
    write_column(forest, "lengths", [len(dims) for dims, _ in trees])
    write_column(forest, "dims", [dim for dims, _ in trees for dim in dims])
    write_column(forest, "values", [value for _, values in trees for value in values])


def edit_trees(edit):
    """A tamper of a payload: edit its decoded trees, then encode them again."""
    def tamper(payload):
        trees = decode_trees(payload["forest"])
        edit(trees)
        encode_trees(payload["forest"], trees)
    return tamper


def edit_lengths(edit):
    """A tamper of a payload: edit its forest's decoded lengths, then encode them again."""
    def tamper(payload):
        lengths = read_column(payload["forest"], "lengths")
        edit(lengths)
        write_column(payload["forest"], "lengths", lengths)
    return tamper


def write_with_checksum(path, payload) -> None:
    """Write payload as a format-4 artifact with a correct checksum, the
    way a tool that edits artifacts by hand would."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {"checksum": hashlib.sha256(body.encode()).hexdigest(),
           "format_version": ARTIFACT_FORMAT_VERSION, "payload": payload}
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))


flows_st = st.lists(
    st.builds(
        make_flow,
        in_bytes=st.integers(0, 5000),
        out_bytes=st.integers(0, 5000),
        dst_port=st.sampled_from([53, 80, 123, 443]),
        flow_end_ms=st.integers(1000, 9000),
    ),
    min_size=1,
    max_size=30,
)


@given(
    train=flows_st,
    queries=flows_st,
    n_trees=st.integers(1, 6),
    subsample=st.integers(1, 32),
    seed=st.integers(0, 2**16),
)
def test_artifact_round_trip_keeps_g_and_bytes(train, queries, n_trees, subsample, seed):
    schema = fit_schema(FlowDataset([LabeledFlow(f, WEBCAM, "m") for f in train]), WEBCAM)
    forest = train_forest(transform_many(schema, train), n_trees, subsample, seed)
    artifact = ModelArtifact(model=WEBCAM, schema=schema, forest=forest,
                             calibrated_thresholds={10: -0.01})
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_artifact(artifact, first)
        restored = load_artifact(first)
        save_artifact(restored, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    # one row at a time, and the rows repeated to a chunk, a chunk and a
    # row, and three chunks and a row
    Q = transform_many(schema, queries)
    big = [Q[np.arange(rows) % len(Q)] for rows in CHUNK_EDGES[1:]]
    for X in [Q[i : i + 1] for i in range(len(Q))] + big:
        assert normality_scores(restored.forest, X).tolist() == \
            normality_scores(forest, X).tolist()


@functools.lru_cache(maxsize=1)
def _saved_payload() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_artifact(small_artifact(), path)
        with open(path) as fh:
            return json.dumps(json.load(fh)["payload"])


_COLUMN_EDITS = ["truncate", "extend", "dim-out-of-range", "unequal-lengths"]


def _edit_columns(data, tree: list, dimension: int) -> None:
    """One random edit, in place, to a tree's preorder columns [dims, values]."""
    dims, values = tree
    edit = data.draw(st.sampled_from(_COLUMN_EDITS))
    at = data.draw(st.integers(0, len(dims)))  # len(dims) only reached by truncate/extend
    if edit == "truncate":
        del dims[at:], values[at:]
    elif edit == "extend":
        dims.insert(at, data.draw(st.integers(-2, dimension + 1)))
        values.insert(at, data.draw(st.one_of(st.integers(-1, 9), st.floats())))
    elif at == len(dims):
        return
    elif edit == "dim-out-of-range":  # as far as an int32 reaches
        dims[at] = data.draw(st.one_of(st.integers(-2**31, -2), st.integers(dimension, 2**31 - 1)))
    else:  # unequal lengths
        data.draw(st.sampled_from(tree)).pop(at)


_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _set_stray_bits(data, forest: dict, name: str) -> None:
    """Set some of the bits that the padding of column name leaves unused:
    the same bytes, in base64 that is not their canonical encoding."""
    text = forest[name]
    pad = len(text) - len(text.rstrip("="))
    if pad and len(text) > pad and text[-pad - 1] in _BASE64:
        at = len(text) - pad - 1  # 2 unused bits before "=", 4 before "=="
        digit = _BASE64.index(text[at]) | data.draw(st.integers(1, (1 << 2 * pad) - 1))
        forest[name] = text[:at] + _BASE64[digit] + text[at + 1:]


_BYTE_EDITS = ["bad-character", "bad-padding", "stray-bits", "ragged", "lengths-off",
               "zero-length-tree", "not-a-string"]


def _edit_bytes(data, forest: dict) -> None:
    """One random edit, in place, to a format-4 forest's encoded columns:
    what no list of ints and floats encodes to."""
    name = data.draw(st.sampled_from(list(DTYPES)))
    text, edit = forest[name], data.draw(st.sampled_from(_BYTE_EDITS))
    if edit == "not-a-string":  # format 3's lists among them
        forest[name] = data.draw(st.sampled_from([None, 5, [], [[0, 0.5]], {"k": 1}]))
    elif type(text) is not str:
        return
    elif edit == "bad-character":
        at = data.draw(st.integers(0, len(text)))
        forest[name] = text[:at] + data.draw(st.sampled_from(list("!-_ \n=\xe9"))) + text[at + 1:]
    elif edit == "bad-padding":
        forest[name] = data.draw(st.sampled_from([text.rstrip("="), text + "=", text[:-1]]))
    elif edit == "stray-bits":
        _set_stray_bits(data, forest, name)
    elif edit == "ragged":  # bytes cut from or added to the last item
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError:  # binascii.Error, or a character an earlier edit put in that is not ASCII
            return
        cut = data.draw(st.integers(1, np.dtype(DTYPES[name]).itemsize - 1))
        raw = raw[:-cut] if data.draw(st.booleans()) else raw + bytes(cut)
        forest[name] = base64.b64encode(raw).decode()
    else:
        try:
            lengths = read_column(forest, "lengths")
        except ValueError:
            return
        at = data.draw(st.integers(0, len(lengths)))
        if edit == "zero-length-tree":
            lengths.insert(at, 0)
        elif at < len(lengths):  # a tree longer or shorter, the next one too by as much
            change = data.draw(st.integers(-3, 3))
            lengths[at] += change
            if at + 1 < len(lengths) and data.draw(st.booleans()):
                lengths[at + 1] -= change  # the same sum, and perhaps a negative length
        write_column(forest, "lengths", lengths)


@given(data=st.data())
def test_edited_tree_columns_load_or_raise_artifact_error(data):
    payload = json.loads(_saved_payload())
    forest = payload["forest"]
    trees = decode_trees(forest)
    tree = data.draw(st.sampled_from(trees))
    for _ in range(data.draw(st.integers(1, 3))):
        _edit_columns(data, tree, forest["dimension"])
    encode_trees(forest, trees)
    if data.draw(st.booleans()):
        _edit_bytes(data, forest)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "model.json")
        write_with_checksum(path, payload)
        try:
            artifact = load_artifact(path)
        except ArtifactError as exc:
            assert str(exc).startswith("corrupt-artifact: ")
            return
    # an edit that keeps a tree train_forest could write still scores
    X = np.zeros((CHUNK_ROWS + 1, forest["dimension"]))
    assert np.all(np.isfinite(normality_scores(artifact.forest, X)))


@pytest.mark.parametrize("items", [3, 1, 2], ids=["whole-quads", "pad-2", "pad-1"])
def test_a_column_in_strict_base64_that_is_not_canonical_is_refused(items):
    """Strict base64 decoding gives a column's bytes from spellings other
    than their canonical one: "=" or "==" after a whole quad, and bits set
    that the padding leaves unused before "==" or "=". A column of 3, 1 or
    2 int32 items (0, 1 or 2 bytes past whole 3-byte groups) loads in its
    canonical spelling and is refused in each other."""
    raw = np.arange(1, items + 1, dtype="<i4").tobytes()
    text = base64.b64encode(raw).decode()
    assert iforest._column({"lengths": text}, "lengths").tolist() == list(range(1, items + 1))
    pad = text.count("=")
    if pad:  # the digit before the padding, with some of its unused low bits set
        at = len(text) - pad - 1
        spellings = [text[:at] + _BASE64[_BASE64.index(text[at]) | bits] + text[at + 1:]
                     for bits in range(1, 1 << 2 * pad)]
    else:
        spellings = [text + "=", text + "=="]
    for spelling in spellings:
        assert binascii.a2b_base64(spelling, strict_mode=True) == raw
        with pytest.raises(ValueError, match="^lengths is not canonical base64$"):
            iforest._column({"lengths": spelling}, "lengths")


def test_a_column_that_is_not_ascii_is_refused_naming_the_character():
    text = base64.b64encode(np.arange(4, dtype="<i4").tobytes()).decode()
    with pytest.raises(ValueError) as refused:
        iforest._column({"dims": text[:5] + "\xe9" + text[6:]}, "dims")
    assert str(refused.value) == ("dims is not base64: 'ascii' codec can't encode character "
                                  "'\\xe9' in position 5: ordinal not in range(128)")


def reference_tree_from_columns(tree, dimension: int, sample_count: int,
                                height_limit: int) -> IsolationTree:
    """Independent node-by-node decoder of one tree's preorder columns
    [dims, values], ints and floats as decode_trees reads them, into linked
    nodes, rejecting any tree train_forest cannot write: columns of another
    shape, a malformed node, a split on a dimension the forest lacks, a leaf
    size that is not a count up to the sample's, a missing or extra node,
    or a split at or below the height limit."""
    if type(tree) is not list or len(tree) != 2 or type(tree[0]) is not list \
            or type(tree[1]) is not list or len(tree[0]) != len(tree[1]):
        raise ValueError(f"a tree is not [dims, values] of equal length: {tree!r:.60}")
    root = None
    waiting: list[TreeNode] = []  # internal nodes short of a child
    depths: list[int] = []  # the depth of each
    for dim, value in zip(*tree):
        if not waiting and root is not None:
            raise ValueError("nodes after the last leaf of a tree")
        if dim == -1 and type(value) is float and value.is_integer() \
                and 0 <= value <= sample_count and math.copysign(1.0, value) > 0:
            node = TreeNode(-1, 0.0, int(value))
        elif type(dim) is int and 0 <= dim < dimension and type(value) is float \
                and math.isfinite(value):
            node = TreeNode(dim, value)
        else:
            raise ValueError(f"bad node {[dim, value]!r:.60}")
        if waiting:
            depth = depths[-1] + 1
            if waiting[-1].left is None:
                waiting[-1].left = node
            else:
                waiting.pop().right = node
                depths.pop()
        else:
            root, depth = node, 0
        if dim != -1:
            if depth >= height_limit:
                raise ValueError("a tree is deeper than its height limit")
            waiting.append(node)
            depths.append(depth)
    if root is None or waiting:
        raise ValueError("truncated node list")
    return IsolationTree(root)


def reference_forest_from_dict(forest: dict) -> list:
    """The linked trees of a format-4 forest, each decoded node by node."""
    psi = forest["sample_count"]
    return [reference_tree_from_columns(tree, forest["dimension"], psi, math.ceil(math.log2(psi)))
            for tree in decode_trees(forest)]


@functools.lru_cache(maxsize=1)
def _payloads() -> tuple:
    """The small artifact's payload, and the same with a forest of psi 64."""
    payload = json.loads(_saved_payload())
    X = np.random.default_rng(14).uniform(size=(300, payload["forest"]["dimension"]))
    deeper = dict(payload, forest=iforest._forest_to_dict(train_forest(X, 6, 64, 5)))
    return json.dumps(payload), json.dumps(deeper)


def _node_depths(dims: list) -> list:
    """Each node's depth, reading dims as preorder (a leaf is -1); -1 past
    the end of the tree."""
    depths, pending = [], [0]
    for dim in dims:
        depth = pending.pop() if pending else -1
        depths.append(depth)
        if dim != -1 and depth >= 0:
            pending += [depth + 1, depth + 1]
    return depths


_NODE_EDITS = ["non-finite", "leaf-over-psi", "leaf-not-a-count", "move-subtree", "split-a-leaf"]


def _edit_nodes(data, trees: list, sample_count: int, dimension: int) -> None:
    """One random edit, in place, to the nodes of trees, [dims, values]
    each, past what _edit_columns makes."""
    trees = [tree for tree in trees if tree[0] and tree[1]]
    if not trees:
        return
    dims, values = data.draw(st.sampled_from(trees))
    at = data.draw(st.integers(0, min(len(dims), len(values)) - 1))
    leaves = [i for i, dim in enumerate(dims[:len(values)]) if dim == -1]
    edit = data.draw(st.sampled_from(_NODE_EDITS))
    if edit == "non-finite":
        values[at] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif edit == "leaf-over-psi" and leaves:
        values[data.draw(st.sampled_from(leaves))] = \
            sample_count + data.draw(st.integers(1, 2**70))
    elif edit == "leaf-not-a-count" and leaves:  # -0.0, or a size with a fraction
        values[data.draw(st.sampled_from(leaves))] = data.draw(st.sampled_from(
            [-0.0, 0.5, 1.25, sample_count - 0.5, -1.0, 5e-324]))
    elif edit == "move-subtree":  # into another tree, or the same, at any node
        end, pending = at, 1
        while pending and end < len(dims):
            pending += 1 if dims[end] != -1 else -1
            end += 1
        moved = [dims[at:end], values[at:end]]
        del dims[at:end], values[at:end]
        if data.draw(st.booleans()):  # a leaf in its place
            dims.insert(at, -1)
            values.insert(at, 1)
        into = data.draw(st.sampled_from(trees))
        where = data.draw(st.integers(0, len(into[0])))
        if data.draw(st.booleans()) and where < len(into[0]):  # in place of a node
            del into[0][where], into[1][where]
        into[0][where:where] = moved[0]
        into[1][where:where] = moved[1]
    elif edit == "split-a-leaf" and leaves:  # too deep if the leaf is at the height limit
        depths = _node_depths(dims)
        if data.draw(st.booleans()):  # the deepest
            at = max(leaves, key=lambda i: (depths[i], i))
        else:
            at = data.draw(st.sampled_from(leaves))
        dims[at:at + 1] = [data.draw(st.integers(0, dimension - 1)), -1, -1]
        values[at:at + 1] = [data.draw(st.floats(0, 1)), 1, 1]


@given(data=st.data())
def test_table_loader_refuses_what_the_node_decoder_refuses(data):
    """Of edited trees and edited column bytes, load_artifact accepts
    exactly what the node-by-node decoder accepts; it refuses the rest as
    corrupt-artifact with the decoder's reason, and a forest it accepts
    scores bit for bit as the decoder's linked trees do."""
    payload = json.loads(data.draw(st.sampled_from(_payloads())))
    forest = payload["forest"]
    trees = decode_trees(forest)
    # few trees, so that edits meet in neighbouring trees too
    del trees[data.draw(st.integers(1, len(trees))):]
    for _ in range(data.draw(st.integers(0, 3))):
        tree = data.draw(st.sampled_from(trees))
        if data.draw(st.booleans()):
            _edit_nodes(data, trees, forest["sample_count"], forest["dimension"])
        elif len(tree[0]) == len(tree[1]):
            _edit_columns(data, tree, forest["dimension"])
    encode_trees(forest, trees)
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        _edit_bytes(data, forest)
    try:
        expected = reference_forest_from_dict(forest)
    except ValueError as exc:
        expected = exc
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "model.json")
        write_with_checksum(path, payload)
        try:
            loaded = load_artifact(path).forest
        except ArtifactError as exc:
            assert str(exc) == f"corrupt-artifact: ValueError: {expected}"
            return
    assert isinstance(expected, list), expected
    rows = data.draw(st.sampled_from(CHUNK_EDGES[:3]))
    Q = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(
        -0.5, 1.5, (rows, forest["dimension"]))
    assert anomaly_scores(loaded, Q).tobytes() == \
        reference_scores(expected, forest["sample_count"], Q).tobytes()


# Spellings JSON has for a field's value that the field's type does not
# take, each beside the saved value, which loads.
_RESAVE_SCALARS = {
    ("training_flow_count",): [3.7, "12", -5, True, 3.0],
    ("forest", "master_seed"): ["5", 2.5, -1, True, 11.0],
    ("forest", "dimension"): [12.0, "12", True],
    ("forest", "sample_count"): [3.0, "3"],
    ("default_threshold",): ["0.1", 0, True, -0.0, 1e-300],
    ("trained_at",): [5, None, ["2026"]],
}


@given(data=st.data())
def test_every_artifact_load_accepts_saves_back_the_same_bytes(data):
    """load_artifact coerces nothing: an artifact it accepts saves back
    byte for byte, which natwatch calibrate relies on. Edited here: the
    payload's scalars, a threshold and its key, leaf sizes (-0.0,
    fractions), the unused bits of a column's base64 tail and a key of
    the payload, forest or schema that save_artifact never writes."""
    payload = json.loads(_saved_payload())
    forest = payload["forest"]
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(["scalar", "threshold-key", "threshold", "leaf-size",
                                          "stray-bits", "unknown-key"]))
        if edit == "scalar":
            *keys, key = data.draw(st.sampled_from(list(_RESAVE_SCALARS)))
            owner = functools.reduce(dict.__getitem__, keys, payload)
            owner[key] = data.draw(st.sampled_from(_RESAVE_SCALARS[(*keys, key)] + [owner[key]]))
        elif edit == "threshold-key":
            thresholds = payload["calibrated_thresholds"]
            key = data.draw(st.sampled_from([" 10", "010", "+10", "1_0", "10 ", "10", "-0", "7"]))
            thresholds[key] = thresholds.pop(next(iter(thresholds)))
        elif edit == "threshold":
            thresholds = payload["calibrated_thresholds"]
            key = next(iter(thresholds))
            thresholds[key] = data.draw(st.sampled_from(["0.1", 1, False, -0.0, thresholds[key]]))
        elif edit == "leaf-size":
            try:
                trees = decode_trees(forest)
            except ValueError:  # stray bits set by an earlier edit
                continue
            dims, values = data.draw(st.sampled_from(trees))
            at = data.draw(st.sampled_from([i for i, dim in enumerate(dims) if dim == -1]))
            values[at] = data.draw(st.sampled_from([-0.0, 0.5, 2.25, 1.0, 3.0, values[at]]))
            encode_trees(forest, trees)
        elif edit == "unknown-key":
            owner = data.draw(st.sampled_from([payload, forest, payload["schema"]]))
            owner[data.draw(st.sampled_from(["note", "trees", "version"]))] = 1
        else:
            _set_stray_bits(data, forest, data.draw(st.sampled_from(list(DTYPES))))
    with tempfile.TemporaryDirectory() as tmp:
        path, again = pathlib.Path(tmp, "model.json"), pathlib.Path(tmp, "again.json")
        write_with_checksum(path, payload)
        try:
            artifact = load_artifact(path)
        except ArtifactError as exc:
            assert str(exc).startswith("corrupt-artifact: ")
            return
        save_artifact(artifact, again)
        assert again.read_bytes() == path.read_bytes()


@given(data=st.data())
def test_schema_edits_load_as_corrupt_artifacts(data):
    """The schema is read as written or not at all: a range that is not a
    list of two floats, a vocabulary that is not a list, or a category
    value not of its feature's type (True for protocol 1, "DNS" for
    ["DNS"]) each fail the load, where a coercion would load them."""
    payload = json.loads(_saved_payload())
    ranges, categories = payload["schema"]["numeric_ranges"], payload["schema"]["categories"]
    edit = data.draw(st.sampled_from(["bound", "range", "vocabulary", "value"]))
    if edit == "bound":
        bounds = ranges[data.draw(st.sampled_from(sorted(ranges)))]
        at = data.draw(st.integers(0, 1))
        bounds[at] = data.draw(st.sampled_from([int(bounds[at]), str(bounds[at]), True, None]))
    elif edit == "range":
        name = data.draw(st.sampled_from(sorted(ranges)))
        lo, hi = ranges[name]
        ranges[name] = data.draw(st.sampled_from([[lo, hi, hi], [lo], "19", {"0": lo, "1": hi}]))
    elif edit == "vocabulary":
        name = data.draw(st.sampled_from(sorted(categories)))
        vocab = categories[name]
        categories[name] = data.draw(st.sampled_from(
            ["".join(map(str, vocab)), {str(v): 0 for v in vocab}, None]))
    else:
        vocab = categories[data.draw(st.sampled_from(sorted(categories)))]
        at = data.draw(st.integers(0, len(vocab) - 1))
        vocab[at] = data.draw(st.sampled_from(
            [v for v in (True, 1, 1.0, "1", None) if type(v) is not type(vocab[at])]))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "model.json")
        write_with_checksum(path, payload)
        with pytest.raises(ArtifactError, match="^corrupt-artifact: "):
            load_artifact(path)


class TestArtifact:
    def test_trees_view_encodes_back_to_the_columns(self):
        """A trained and a loaded forest's trees view, which the benchmark
        counts, has one tree per lengths entry, and a preorder walk of it
        finds a split exactly where the columns' dims are not -1."""
        trained = train_forest(np.random.default_rng(5).normal(size=(300, 3)), n_trees=20)
        loaded = iforest._forest_from_dict(iforest._forest_to_dict(trained), 3)
        for forest in (trained, loaded):
            trees = forest.trees
            lengths, dims, _ = forest.columns
            assert len(trees) == len(lengths)
            splits = []
            for tree in trees:
                stack = [tree.root]
                while stack:
                    node = stack.pop()
                    splits.append(hasattr(node, "left"))
                    if splits[-1]:
                        stack += (node.right, node.left)
            assert splits == (dims >= 0).tolist()

    def test_a_matrix_of_another_dimension_is_refused(self):
        forest = train_forest(np.random.default_rng(7).normal(size=(50, 3)), n_trees=5)
        for X in (np.zeros((4, 2)), np.zeros((1, 4))):
            with pytest.raises(ValueError, match=f"^dimension mismatch: {X.shape[1]} != 3$"):
                anomaly_scores(forest, X)

    def test_the_benchmark_counts_a_trained_forest(self, monkeypatch):
        """bench/spans counts the trees and nodes of what train_forest
        returns; a traced benchmark run whose forests it cannot count
        (iforest.unknown_layouts) is marked incorrect. Imported as
        bench/tests import it, from the bench directory."""
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
        import spans
        forest = train_forest(np.random.default_rng(6).normal(size=(300, 3)), n_trees=20)
        assert spans._count_nodes(forest) == (forest.tree_count, len(forest.columns[1]))

    def test_a_loaded_forest_keeps_the_trained_split_range_and_saves_none_of_it(self, tmp_path):
        """low and high are each dimension's least and greatest split value
        in the saved trees, inf and -inf where none splits it, and read the
        same off a trained forest and the same forest saved and loaded. The
        saved forest holds its parameters and columns only."""
        artifact = small_artifact()
        trained = artifact.forest
        save_artifact(artifact, tmp_path / "model.json")
        loaded = load_artifact(tmp_path / "model.json").forest
        saved = iforest._forest_to_dict(trained)
        assert set(saved) == {"sample_count", "master_seed", "dimension", *DTYPES}
        assert iforest._forest_to_dict(loaded) == saved
        splits = [(dim, value) for dims, values in decode_trees(saved)
                  for dim, value in zip(dims, values) if dim >= 0]
        low = [min((v for d, v in splits if d == j), default=math.inf)
               for j in range(trained.dimension)]
        high = [max((v for d, v in splits if d == j), default=-math.inf)
                for j in range(trained.dimension)]
        assert math.inf in low and len(splits) > 1  # some dimension is split, some is not
        for forest in (trained, loaded):
            assert forest.low.dtype == forest.high.dtype == np.float64
            assert forest.low.tolist() == low and forest.high.tolist() == high

    def test_round_trip_scores_identical(self, tmp_path):
        artifact = small_artifact()
        path = tmp_path / "model.json"
        save_artifact(artifact, path)
        restored = load_artifact(path)
        assert restored.model == WEBCAM
        assert restored.calibrated_thresholds == {10: -0.03}
        assert restored.training_flow_count == 3
        q = np.random.default_rng(12).uniform(size=(20, artifact.schema.dimension))
        assert np.array_equal(
            anomaly_scores(artifact.forest, q), anomaly_scores(restored.forest, q)
        )

    def test_save_is_deterministic(self, tmp_path):
        artifact = small_artifact()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_artifact(artifact, p1)
        save_artifact(artifact, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ArtifactError, match="corrupt-artifact"):
            load_artifact(path)

    def test_deeply_nested_json_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ArtifactError, match="^corrupt-artifact: "):
            load_artifact(path)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)
        doc = json.loads(path.read_text())
        doc["payload"]["default_threshold"] = 0.25
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="corrupt-artifact"):
            load_artifact(path)

    def test_an_unknown_key_beside_the_payload_is_corrupt(self, tmp_path):
        """A key after the payload, inside the checksummed bytes."""
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)
        data = path.read_bytes()
        body = data[data.index(b'"payload":') + len(b'"payload":'):-1] + b',"signer":"x"'
        path.write_bytes(iforest._head(hashlib.sha256(body).hexdigest()) + body + b"}")
        assert json.loads(path.read_bytes())["signer"] == "x"
        with pytest.raises(ArtifactError, match="^corrupt-artifact: ValueError: "
                                                "unknown key 'signer' in artifact$"):
            load_artifact(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)
        doc = json.loads(path.read_text())
        # format 1 stored fields scoring never read, format 2 a list per
        # node, format 3 a list of two per tree; retraining with the seed
        # gives the same forest
        for version in (1, 2, 3, 99):
            doc["format_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ArtifactError, match=f"unsupported-version:{version}"):
                load_artifact(path)

    def test_a_failed_save_leaves_the_old_artifact_whole(self, tmp_path, monkeypatch):
        """save_artifact writes beside the artifact and renames over it: a
        write that fails halfway leaves the old bytes and no stray file."""
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)
        before = path.read_bytes()

        class DiskFull(io.FileIO):
            def write(self, chunk):
                super().write(bytes(chunk)[:100])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(iforest, "open", lambda file, mode: DiskFull(file, "w"),
                            raising=False)
        artifact = small_artifact()
        artifact.calibrated_thresholds[20] = 0.01
        with pytest.raises(OSError, match="No space left"):
            save_artifact(artifact, path)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["model.json"]
        monkeypatch.undo()
        save_artifact(artifact, path)  # and once the disk has room, the new one
        assert load_artifact(path).calibrated_thresholds == {10: -0.03, 20: 0.01}
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    def test_load_encodes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_artifact re-encoded JSON")

        monkeypatch.setattr(iforest.json, "dumps", refuse)
        assert load_artifact(path).model == WEBCAM

    @pytest.mark.parametrize(
        "tamper, reason",
        [
            (edit_trees(lambda t: [column.pop() for column in t[0]]), "truncated node list"),
            # the next tree's first node is bad too, but is read later
            (edit_trees(lambda t: [column.pop() for column in t[0]]
                        + [t[1][0].__setitem__(0, 999)]), "truncated node list"),
            (edit_trees(lambda t: [column.append(x) for column, x in zip(t[0], (-1, 1))]),
             "nodes after the last leaf"),
            # a bad node, but read as one past the tree's last leaf first
            (edit_trees(lambda t: [column.append(x) for column, x in zip(t[0], (999, 1))]),
             "nodes after the last leaf"),
            (edit_trees(lambda t: t[0][0].__setitem__(0, 999)), "bad node"),
            # format 3's list of nodes standing where format 4's column goes
            (lambda p: p["forest"].update(dims=[[0, 0.5]]), "dims is not a base64 string"),
            (edit_trees(lambda t: t[0].__setitem__(slice(None), [[-1], [4]])),  # 4 > psi
             "bad node"),
            (edit_trees(lambda t: t[0].__setitem__(
                slice(None), [[0, -1] * 3 + [-1], [0.5, 1] * 3 + [0]])),
             "deeper than its height limit"),
            # what is no whole node: bytes past the last item of a column
            (lambda p: p["forest"].update(dims=base64.b64encode(
                base64.b64decode(p["forest"]["dims"]) + b"\0\0").decode()),
             "dims holds .* bytes, not whole 4-byte items"),
            (edit_trees(lambda t: t[0][1].pop()), "tree lengths are not counts of"),
            (lambda p: p["forest"].update(lengths="", dims="", values=""), "at least one tree"),
            (lambda p: p["forest"].update(sample_count=0), "sample_count"),
            (lambda p: p["schema"]["numeric_ranges"].pop("in_bytes"), "schema features"),
            (lambda p: p["schema"]["categories"].update(vlan=[1]), "schema features"),
            (lambda p: p.pop("model"), "KeyError: 'model'"),
            (lambda p: p.update(default_threshold=float("nan")), "non-finite threshold"),
            (lambda p: p.update(training_flow_count=float("inf")), "training_flow_count inf"),
            # the columns' bytes
            (lambda p: p["forest"].update(values="!" + p["forest"]["values"][1:]),
             "values is not base64"),
            (lambda p: p["forest"].update(dims=p["forest"]["dims"] + "="), "dims is not base64"),
            (lambda p: p["forest"].update(lengths=p["forest"]["lengths"][:-1]),
             "lengths is not base64"),
            (lambda p: p["forest"].update(lengths="AAAAAB=="),  # "AAAAAA==": 4 zero bytes
             "lengths is not canonical base64"),
            (edit_lengths(lambda l: l.pop()), "tree lengths are not counts of"),
            # the same sum
            (edit_lengths(lambda l: [l.insert(0, -1), l.__setitem__(-1, l[-1] + 1)]),
             "tree lengths are not counts of"),
            (edit_lengths(lambda l: l.append(0)), "truncated node list"),
            (edit_trees(lambda t: t[0][1].__setitem__(0, float("nan"))), "bad node"),
            (edit_trees(lambda t: t[0][1].__setitem__(0, float("-inf"))), "bad node"),
            (edit_trees(lambda t: t[0][1].__setitem__(-1, -0.0)), r"bad node \[-1, -0\.0\]"),
            (edit_trees(lambda t: t[0][1].__setitem__(-1, 1.5)), r"bad node \[-1, 1\.5\]"),
            # the payload's scalars, in a type or spelling that would load coerced
            (lambda p: p.update(training_flow_count=3.7), "training_flow_count"),
            (lambda p: p.update(training_flow_count="12"), "training_flow_count"),
            (lambda p: p.update(training_flow_count=-5), "training_flow_count"),
            (lambda p: p.update(training_flow_count=True), "training_flow_count True: not int"),
            (lambda p: p["forest"].update(master_seed="5"), "master_seed"),
            (lambda p: p["forest"].update(master_seed=2.5), "master_seed"),
            (lambda p: p["forest"].update(dimension=float(p["forest"]["dimension"])),
             "dimension"),
            # refused before anything of that length is allocated
            (lambda p: p["forest"].update(dimension=-1), "forest dimension -1 != schema dimension"),
            (lambda p: p["forest"].update(dimension=2**40),
             "forest dimension 1099511627776 != schema dimension"),
            (lambda p: p.update(calibrated_thresholds={" 10": -0.03}),
             r"threshold keys \[' 10'\] are not plain ints"),
            (lambda p: p.update(default_threshold="0.1"), "threshold '0.1': not float"),
            (lambda p: p.update(trained_at=5), "trained_at 5: not str"),
            # a key save_artifact never writes, which saving back would drop
            (lambda p: p.update(notes="retrained"), "ValueError: unknown key 'notes' in payload$"),
            (lambda p: p["schema"].update(dimension=12), "unknown key 'dimension' in schema$"),
            (lambda p: p["forest"].update(n_trees=100), "unknown key 'n_trees' in forest$"),
            # a schema whose every value has its type, but not a schema fit_schema makes
            (lambda p: p["schema"]["numeric_ranges"].update(in_bytes=[300.0, 100.0]),
             r"ValueError: bad range \[300.0, 100.0\] for numeric feature in_bytes$"),
            (lambda p: p["schema"]["numeric_ranges"].update(out_bytes=[0.0, float("inf")]),
             r"ValueError: bad range \[0.0, inf\] for numeric feature out_bytes$"),
            (lambda p: p["schema"]["numeric_ranges"].update(flow_duration=[float("nan"), 1.0]),
             r"ValueError: bad range \[nan, 1.0\] for numeric feature flow_duration$"),
            (lambda p: p["schema"]["categories"]["l4_dst_port"].append(53),
             "ValueError: duplicate category value in l4_dst_port$"),
        ],
        ids=["truncated", "truncated-then-bad-node", "trailing-node", "trailing-bad-node",
             "split-dim-999", "node-not-a-list", "leaf-over-sample", "too-deep", "three-columns",
             "unequal-columns", "no-trees", "sample-count-0", "missing-numeric-range",
             "extra-categorical", "missing-model", "nan-threshold", "inf-count",
             "bad-base64-character", "bad-padding", "missing-padding", "stray-tail-bits",
             "lengths-short", "negative-length", "zero-length-tree", "nan-value", "inf-value",
             "minus-zero-leaf", "fractional-leaf", "fractional-count", "string-count",
             "negative-count", "bool-count", "string-seed", "fractional-seed", "float-dimension",
             "negative-dimension", "huge-dimension",
             "spaced-threshold-key", "string-threshold", "int-trained-at",
             "unknown-payload-key", "unknown-schema-key", "unknown-forest-key",
             "range-reversed", "range-inf", "range-nan", "vocabulary-repeated"],
    )
    def test_checksum_valid_tampering_is_corrupt(self, tmp_path, tamper, reason):
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)
        payload = json.loads(path.read_text())["payload"]
        write_with_checksum(path, payload)
        load_artifact(path)  # re-checksummed but untouched: loads
        tamper(payload)
        write_with_checksum(path, payload)
        with pytest.raises(ArtifactError, match=f"^corrupt-artifact: .*{reason}"):
            load_artifact(path)

    def test_a_deep_chain_at_the_largest_psi_loads_and_scores_in_bounded_memory(self, tmp_path):
        """psi 2^53 - 1 lets a tree be 52 splits deep. One chain that deep
        in a valid artifact loads and scores with a tracemalloc peak under
        1 MB, its walk taking one step a level, and its g is the linked
        tree's."""
        psi, depth = 2**53 - 1, 52
        dims, values, leaves = [], [], []
        for level in range(depth):  # x = 0 goes on at every split, others leave
            dims.append(0)
            if level % 2:  # the leaf on the right, reached by x >= level + 1
                values.append(float(level + 1))
                leaves.append(float(2**level))
            else:  # the leaf on the left, reached by x < -(level + 1)
                values.append(-float(level + 1))
                dims.append(-1)
                values.append(float(level))
        dims.append(-1)
        values.append(float(psi))
        dims += [-1] * len(leaves)
        values += leaves[::-1]
        payload = json.loads(_saved_payload())
        payload["forest"]["sample_count"] = psi
        encode_trees(payload["forest"], [[dims, values]])
        path = tmp_path / "deep.json"
        write_with_checksum(path, payload)
        rng = np.random.default_rng(15)
        Q = np.zeros((CHUNK_ROWS + 1, payload["forest"]["dimension"]))
        Q[:, 0] = rng.choice([0.0, math.nan, math.inf, -math.inf, 30.0, -30.0, 0.5], len(Q))
        tracemalloc.start()
        try:
            artifact = load_artifact(path)
            g = normality_scores(artifact.forest, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert artifact.forest.steps == depth
        linked = reference_forest_from_dict(payload["forest"])
        assert max(linked_path_length(linked[0], row) for row in Q.tolist()) > depth
        assert g.tobytes() == (0.5 - reference_scores(linked, psi, Q)).tobytes()

    def test_threshold_selectors(self):
        artifact = small_artifact()
        assert artifact.threshold("default") == 0.0
        assert artifact.threshold("p10") == artifact.threshold("P10") == -0.03
        with pytest.raises(ArtifactError, match="no calibrated threshold"):
            artifact.threshold("p20")
        # int() would read each of these as 10 (True as 1): none is "p" and ASCII digits
        for selector in ["bogus", "p", "p1_0", "p 10", "p+10", "p\u0661\u0660", "p10 ", "q10",
                         10, True, None]:
            with pytest.raises(ArtifactError, match="unknown threshold selector"):
                artifact.threshold(selector)

    def test_schema_forest_dimension_must_agree(self):
        artifact = small_artifact()
        forest = train_forest(np.zeros((5, 2)) + np.arange(5)[:, None], n_trees=2)
        with pytest.raises(ArtifactError):
            ModelArtifact(model=WEBCAM, schema=artifact.schema, forest=forest)

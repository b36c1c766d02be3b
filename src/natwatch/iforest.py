"""Isolation forest one-class classifier, built from scratch.

Each tree recursively splits a uniform subsample at a random value of a
random splittable dimension; anomalous points isolate in short paths.
The anomaly score is s = 2^(-E[h]/c(psi)) and the normality score used
for thresholding is g = 0.5 - s (classify as the model iff g >= th).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from natwatch.flowdata import DeviceModelId
from natwatch.preprocess import FeatureSchema, InsufficientDataError, _exact

EULER_GAMMA = 0.5772156649

ARTIFACT_FORMAT_VERSION = 4

# Format 4's forest columns, canonical padded base64 (RFC 4648) of little-endian arrays
FOREST_COLUMNS = {"lengths": "<i4", "dims": "<i4", "values": "<f8"}


class ArtifactError(ValueError):
    pass


# Exact harmonic numbers H(1)..H(1024); the usual ln(i) + gamma shortcut
# is off by ~1/i, which matters at the small leaf sizes trees produce.
_HARMONIC = [0.0]
for _i in range(1, 1025):
    _HARMONIC.append(_HARMONIC[-1] + 1.0 / _i)


def _harmonic(m: int) -> float:
    if m < len(_HARMONIC):
        return _HARMONIC[m]
    # Asymptotic expansion, error < 1/(120 m^4)
    return math.log(m) + EULER_GAMMA + 1.0 / (2 * m) - 1.0 / (12 * m * m)


def c_factor(n: int) -> float:
    """Average unsuccessful-search path length in a BST of n nodes:
    c(n) = 2*H(n-1) - 2*(n-1)/n."""
    if n <= 1:
        return 0.0
    return 2.0 * _harmonic(n - 1) - 2.0 * (n - 1) / n


# c(0)..c(1024), which a decoded forest's leaf sizes are looked up in
_C_TABLE = np.array([c_factor(m) for m in range(len(_HARMONIC))])


@dataclass(slots=True)
class TreeNode:
    """Internal node (split_dim >= 0) or external node (split_dim = -1).
    Only an external node has a `size`: the sample points that end in it."""

    split_dim: int = -1
    split_value: float = 0.0
    size: int = 0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None


@dataclass
class IsolationTree:
    root: TreeNode


def _tree_rng(master_seed: int, tree_index: int) -> np.random.Generator:
    # Per-tree stream derived deterministically from (master_seed, index);
    # PCG64 output is platform-independent.
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(tree_index,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class IsolationForest:
    """The trees as one NodeTable, which every row is scored on, decoded
    from the format-4 columns the forest keeps."""

    table: NodeTable
    # format 4's (lengths, dims, values) that the forest was grown or loaded
    # from, which an artifact stores: each tree's node count, then its nodes
    # in preorder, a split as its dim and value, a leaf as -1 and its size
    columns: tuple
    # float64 per dimension, its least and greatest split value (+inf and
    # -inf where no tree splits it): no x < v tells a cell below low from
    # -inf, nor one above high from high (anomaly_scores)
    low: np.ndarray
    high: np.ndarray
    sample_count: int  # psi, the subsample each tree was built on
    master_seed: int
    dimension: int

    @property
    def tree_count(self) -> int:
        return len(self.table.roots)

    @property
    def size(self) -> np.ndarray:
        """The leaves' sizes in preorder, as int64."""
        _, dims, values = self.columns
        return values[dims < 0].astype(np.int64)

    @property
    def trees(self) -> list[IsolationTree]:
        """The trees as linked nodes, decoded from the columns on each
        access. Only bench/spans reads it, to count the nodes; it goes with
        TreeNode and IsolationTree once the benchmark counts the columns.
        Read backwards, a preorder meets a split's subtrees before it: a
        split pops its left child, then its right, off the stack."""
        _, dims, values = self.columns
        stack = []
        for dim, value in zip(dims.tolist()[::-1], values.tolist()[::-1]):
            stack.append(TreeNode(-1, 0.0, int(value)) if dim < 0 else
                         TreeNode(dim, value, 0, stack.pop(), stack.pop()))
        return [IsolationTree(root) for root in stack[::-1]]


DEFAULT_TREES = 100
DEFAULT_SUBSAMPLE = 256


def train_forest(
    X: np.ndarray,
    n_trees: int = DEFAULT_TREES,
    subsample: int = DEFAULT_SUBSAMPLE,
    master_seed: int = 0,
) -> IsolationForest:
    """Train an isolation forest on an (n, d) feature matrix.

    Fully deterministic for a given master_seed; each tree draws its
    subsample and splits from an independent derived stream, so forests
    sharing a seed share their first k trees regardless of n_trees. The
    trees grow together (_grow_trees), each from its own stream, which
    gives each the same draws as growing it alone. Those draws replay
    numpy's Generator.integers and Generator.uniform from the stream's raw
    words (_Draws), so a NEP 19 change to either call makes the forest
    differ from test_iforest's reference trees, which make the calls, and
    from the pins, rather than being silently absorbed.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    if subsample < 1:
        raise ValueError(f"subsample must be at least 1, got {subsample}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InsufficientDataError("insufficient-data: empty training matrix")
    n, d = X.shape
    psi = min(subsample, n)
    rngs = [_tree_rng(master_seed, t) for t in range(n_trees)]
    columns = _grow_trees(X, rngs, psi)
    return _forest_from_table(_table_from_columns(*columns, d, psi), columns, psi, master_seed, d)


# A numpy pass of _grow_trees takes the next nodes of consecutive trees up
# to this many rows in all, or one node if it alone holds more, so that
# its temporaries stay small however many trees grow together.
PASS_ROWS = 4096


class _Draws:
    """The draws of numpy's Generator that growing a tree makes,
    integers(m) and uniform(low, high), replayed for many trees at once from
    the raw 64-bit words of each tree's PCG64 stream, by numpy's algorithms:
    the numbers the calls give, which leave each stream where they would.
    Each stream's words are drawn `ahead` at a time, and again when they run
    out. Refuses (ValueError) a stream of another bit generator."""

    def __init__(self, rngs: list, ahead: int):
        states = [rng.bit_generator.state for rng in rngs]
        if any(state["bit_generator"] != "PCG64" for state in states):
            raise ValueError("only PCG64 streams can be replayed")
        self.rngs = rngs
        # integers draws 32-bit halves: the low half of a new word, and
        # its high half, held for the next call
        self.held = np.array([state["has_uint32"] for state in states], dtype=bool)
        self.half = np.array([state["uinteger"] for state in states], dtype=np.uint64)
        self.words = np.stack([rng.bit_generator.random_raw(ahead) for rng in rngs])
        self.used = np.zeros(len(rngs), dtype=np.intp)

    def _next_words(self, trees: np.ndarray) -> np.ndarray:
        """The next word of the streams of trees, distinct indices."""
        for t in trees[self.used[trees] == self.words.shape[1]].tolist():
            self.words[t] = self.rngs[t].bit_generator.random_raw(self.words.shape[1])
            self.used[t] = 0
        words = self.words[trees, self.used[trees]]
        self.used[trees] += 1
        return words

    def integers(self, trees: np.ndarray, m: np.ndarray) -> np.ndarray:
        """integers(m) of each of trees: Lemire's draw of a 32-bit half x,
        x * m >> 32 unless the low 32 bits of x * m fall below (2^32 - m)
        mod m, when it draws again. m = 1 draws nothing, nor does m = 0,
        where numpy raises: 0 for both."""
        pick = np.zeros(len(trees), dtype=np.int64)
        at = np.flatnonzero(m > 1)
        trees, m = trees[at], m[at].astype(np.uint64)
        while at.size:
            held = self.held[trees]
            fresh = trees[~held]
            words = self._next_words(fresh)
            x = self.half[trees]
            x[~held] = words & 0xFFFFFFFF
            self.half[fresh] = words >> 32
            self.held[trees] = ~held
            x *= m
            pick[at] = x >> 32
            again = (x & 0xFFFFFFFF) < (2**32 - m) % m
            at, trees, m = at[again], trees[again], m[again]
        return pick

    def uniform(self, trees: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """uniform(low, high) of each of trees: low + (high - low) times a
        whole word's top 53 bits over 2^53. A held half stays held."""
        with np.errstate(over="ignore"):  # refused below, without a warning, as uniform does
            span = high - low
        if not np.isfinite(span).all():
            raise OverflowError("high - low range exceeds valid bounds")
        return low + span * ((self._next_words(trees) >> 11) * 2.0**-53)


def _grow_trees(X: np.ndarray, rngs: list, psi: int) -> tuple:
    """Format 4's columns (lengths, dims, values) of one tree per stream in
    rngs, grown on the rows of the training matrix X: each tree's
    nodes in preorder, a split as its dim and value, a leaf as -1 and its
    size.

    A tree draws its subsample of psi rows (choice). Then, depth first from
    the root, it splits each node of two or more rows above the height
    limit whose rows differ somewhere: on a dimension among those where
    they differ (integers), at a value between their least and greatest
    (uniform); the rows below the value go left. The trees grow in rounds,
    in which each tree splits its next node, so each draws from its own
    stream in the order it would alone; _Draws replays those draws for all
    of a pass's trees at once.
    """
    n_trees, height_limit = len(rngs), math.ceil(math.log2(psi))
    # Every tree's subsample, end to end: a node is a slice [a, a + size) of
    # rows, and its split orders it as its left child's rows, then its right's.
    rows = np.empty(n_trees * psi, dtype=np.intp)
    for t, rng in enumerate(rngs):  # one at a time: choice returns a view of all n rows
        rows[t * psi:(t + 1) * psi] = rng.choice(len(X), size=psi, replace=False)
    draws = _Draws(rngs, 3 * psi // 2 + 1)  # a split takes at most a word and a half
    # A node is (a, size, depth, rank, tree). Its rank orders its tree's
    # nodes in preorder: at depth k and position j, (j << (height_limit - k))
    # * (height_limit + 1) + k, the first position under it at the height
    # limit, then its depth, so that it sorts after its ancestors.
    # Each tree's nodes still to split stand on its stack, the next on top:
    # tree t's stack takes the rows of stack from t * (height_limit + 2), and
    # top is its next free row.
    tree = np.arange(n_trees)
    stack = np.empty((n_trees * (height_limit + 2), 5), dtype=np.int64)
    bottom = tree * (height_limit + 2)
    top = bottom.copy()
    written, dims, values = [], [], []  # every node's (rank, tree), dim and value, in any order

    def make(nodes):
        """Write each node of nodes (k, c, 5) that cannot split as a leaf,
        and push each other one, nodes[:, 0] first."""
        leaf = (nodes[..., 1] < 2) | (nodes[..., 2] >= height_limit)
        written.append(nodes[..., 3:][leaf])
        dims.append(np.full(len(written[-1]), -1))
        values.append(nodes[..., 1][leaf])
        pushed, trees = ~leaf, nodes[:, 0, 4]
        place = top[trees, None] + np.cumsum(pushed, axis=1) - pushed
        stack[place[pushed]] = nodes[pushed]
        top[trees] += pushed.sum(axis=1)

    make(np.stack((tree * psi, np.full(n_trees, psi), 0 * tree, 0 * tree, tree), axis=1)[:, None])
    while (growing := np.flatnonzero(top > bottom)).size:
        top[growing] -= 1
        popped = stack[top[growing]]
        ends = np.cumsum(popped[:, 1])
        first = 0
        while first < len(growing):  # a pass: the next nodes up to PASS_ROWS rows
            limit = ends[first] - popped[first, 1] + PASS_ROWS
            last = max(first + 1, int(np.searchsorted(ends, limit, "right")))
            nodes, first = popped[first:last], last
            a, size, _, _, trees = nodes.T
            node_no = np.arange(len(nodes))
            at, node_of = np.cumsum(size) - size, np.repeat(node_no, size)
            order = np.arange(len(node_of))  # the pass's rows, node after node
            places = (a - at)[node_of] + order  # their places in rows
            taken = rows[places]
            cells = X.take(taken, axis=0)
            lo, hi = np.minimum.reduceat(cells, at), np.maximum.reduceat(cells, at)
            splittable = hi > lo
            m = splittable.sum(axis=1)  # 0: the node's rows are all alike, a leaf
            pick = draws.integers(trees, m)[:, None]
            dim = np.argmax(np.cumsum(splittable, axis=1) > pick, axis=1)  # the pick-th splittable
            split = m > 0
            value = np.full(len(nodes), math.nan)  # nan: all rows go right
            lo, hi = lo[node_no, dim][split], hi[node_no, dim][split]
            value[split] = draws.uniform(trees[split], lo, hi)
            goes_left = cells.take(order * X.shape[1] + dim[node_of]) < value[node_of]
            n_left = np.add.reduceat(goes_left, at, dtype=np.intp)
            # each node's rows back in its places, its left child's first
            rows[places] = taken[np.argsort(2 * node_of + ~goes_left, kind="stable")]
            written.append(nodes[:, 3:].copy())
            dims.append(np.where(split, dim, -1))
            values.append(np.where(split, value, size))
            # each split's children, the right one pushed first so that the left splits next
            nodes, n_left = nodes[split], n_left[split]
            children = np.stack((nodes, nodes), axis=1)
            children[:, :, 2:4] += 1  # a level down: depth and rank
            children[:, 0, 0] += n_left
            children[:, 0, 1] -= n_left
            children[:, 0, 3] += (1 << (height_limit - children[:, 0, 2])) * (height_limit + 1)
            children[:, 1, 1] = n_left
            make(children)
    del rows, draws  # freed before the sort, the peak of a build's memory
    ranks = np.concatenate(written)
    written.clear()
    order = np.lexsort(ranks.T)  # by tree, then rank
    return np.bincount(ranks[:, 1], minlength=n_trees), \
        np.concatenate(dims, dtype=np.int32)[order], np.concatenate(values, dtype=float)[order]


@dataclass(frozen=True)
class NodeTable:
    """Trees as rows of one table: each tree's nodes in preorder, the trees
    end to end. Row i's children are child[2i], its right, and child[2i +
    1], its left, the next row. A leaf is both of its own children, so a
    walk that reached a leaf stays on it whatever the row's cells (NaN and
    +-inf too), and its value is the path length of a row that ends there.
    Format 4 decodes into one (_table_from_columns), which a forest is
    scored on."""

    dim: np.ndarray  # intp, 0 at a leaf
    value: np.ndarray  # float64: a split's value, a leaf's depth + c(size)
    child: np.ndarray  # intp, two a row: its right child, then its left
    roots: np.ndarray  # intp, each tree's first row, where walks start
    steps: int  # the steps that take a walk from any root to its leaf


def _table_from_columns(lengths: np.ndarray, dims: np.ndarray, values: np.ndarray,
                        dimension: int, psi: int) -> NodeTable:
    """The NodeTable of format 4's columns: each tree's node count, then
    every node's dim and value in preorder, the trees end to end. A split is
    a dim in [0, dimension) and a finite value, a leaf -1 and its size, an
    integer in [0, psi] without a sign bit. Refuses (ValueError) what
    train_forest cannot write: no trees, lengths that do not cut the nodes,
    a malformed, missing or extra node, or a split at the height limit. Of
    several node faults the one named is the first met reading node by node."""
    if not len(lengths):
        raise ValueError("a forest needs at least one tree")
    n, lengths = len(dims), lengths.astype(np.intp)
    if lengths.min() < 0 or lengths.sum() != n or len(values) != n:
        raise ValueError(f"tree lengths are not counts of the {n} dims and {len(values)} values")
    split = (dims >= 0) & (dims < dimension) & np.isfinite(values)
    bad = ~(split | ((dims == -1) & (values >= 0) & (values <= psi)
                     & (values == np.trunc(values)) & ~np.signbit(values)))
    ends, grown = np.cumsum(lengths), lengths > 0
    roots, lasts = (ends - lengths)[grown], ends[grown] - 1
    # Each node fills the first subtree its tree has pending, and a split
    # leaves two: the count pending after each node. It, the right children
    # and the depths hold up to the first fault, all that naming it needs. A
    # fault ranks by where a node-by-node read meets it: 4 x node + check.
    pending = 2 * split.astype(np.int32) - 1
    pending[roots] += 1
    np.cumsum(pending, out=pending)
    faults, early, short = [], pending == 0, ~grown
    early[lasts], short[grown] = False, pending[lasts] > 0
    if early.any():
        faults.append((4 * int(early.argmax()) + 4, "nodes after the last leaf of a tree"))
    if bad.any():
        at = int(bad.argmax())
        faults.append((4 * at + 1, f"bad node {[int(dims[at]), float(values[at])]!r:.60}"))
    if short.any():
        faults.append((4 * int(ends[short.argmax()]) - 1, "truncated node list"))
    del early, bad
    # A split's right child is the next node with as many subtrees pending
    # before it: its successor in a stable sort by that count. Up to the
    # first fault a split is above the height limit, and no node has more
    # pending than its depth + 1, so counts outside [1, height_limit] may
    # share a group. Each count's sentinel, row n + count, sorts after its
    # nodes and stands for no right child; every row from n on leads to n.
    height_limit = math.ceil(math.log2(psi))
    pending -= split  # now the count pending before each node
    pending -= split
    pending += 1
    before = np.empty(n + height_limit + 2, dtype=np.int8)
    np.clip(pending, 0, height_limit + 1, out=before[:n], casting="unsafe")
    before[n:] = np.arange(height_limit + 2)
    del pending
    order = np.argsort(before, kind="stable")  # a radix sort, for int8
    right = np.empty(len(order), dtype=np.intp)
    right[order[:-1]] = order[1:]
    right[n:] = n
    leaves = np.flatnonzero(~split)
    right[leaves] = leaves  # a leaf, or a node that is neither, is its own right child
    del before, order
    # A node's depth is the count of nodes before it whose subtrees have not
    # ended by it. A subtree ends one past the leaf its right chain ends on,
    # found by pointer doubling: up to the first fault a chain takes at most
    # height_limit steps, and every step goes on to a later row.
    last = right
    for _ in range(max(height_limit - 1, 0).bit_length()):
        last = last.take(last)
    # first the count of subtrees that end just before each row
    depth = np.bincount(last[:n] + 1, minlength=n)[:n]
    del last
    np.subtract(1, depth, out=depth)
    depth[:1] -= 1
    np.cumsum(depth, out=depth)  # row i: i, less the subtrees ended by it
    deep = split & (depth >= height_limit)
    if deep.any():
        faults.append((4 * int(deep.argmax()) + 2, "a tree is deeper than its height limit"))
    if faults:
        raise ValueError(min(faults)[1])
    leaf_depth = depth.take(leaves)
    del depth
    child = np.empty(2 * n, dtype=np.intp)  # each row's right child, then its left
    child[0::2] = right[:n]
    del right
    np.add(np.arange(n), split, out=child[1::2])
    size = values.take(leaves).astype(np.int64)
    path = _C_TABLE.take(np.minimum(size, len(_C_TABLE) - 1))
    larger = np.flatnonzero(size >= len(_C_TABLE))  # psi above 1024 only
    path[larger] = [c_factor(m) for m in size.take(larger).tolist()]
    path += leaf_depth  # c(size) + depth: addition commutes, bit for bit
    value = values.copy()
    value[leaves] = path
    return NodeTable(np.maximum(dims, 0, dtype=np.intp), value, child, roots,
                     int(leaf_depth.max()))


def _forest_from_table(table: NodeTable, columns: tuple, sample_count: int, master_seed: int,
                       dimension: int) -> IsolationForest:
    """The forest of table's trees, decoded from columns, which it keeps.
    The split range (low, high) is read off columns' splits."""
    # a split's dim j, in [0, dimension) as table checked, at j + 1, and
    # every leaf's -1 at 0, which is dropped
    at = np.add(columns[1], 1, dtype=np.intp)  # ufunc.at is slower on int32
    low, high = np.full(dimension + 1, math.inf), np.full(dimension + 1, -math.inf)
    np.minimum.at(low, at, columns[2])
    np.maximum.at(high, at, columns[2])
    return IsolationForest(table, columns, low[1:], high[1:], sample_count, master_seed,
                           dimension)


def _forest_paths(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """The path lengths of the rows of X, one row of them per tree: each
    step takes every row from node i to child[2i + (x < v)], and after
    steps steps every row stands on its leaf."""
    table = forest.table
    n, d = X.shape
    cells, row_at = X.ravel(), np.arange(0, n * d, d)
    node = np.repeat(table.roots[:, None], n, axis=1)
    for _ in range(table.steps):
        goes_left = cells.take(row_at + table.dim.take(node)) < table.value.take(node)
        node += node
        node += goes_left
        node = table.child.take(node)
    return table.value.take(node)


# A batch is walked this many rows at a time, so that the walk's
# (trees x rows) arrays stay small however large the batch is. A batch of
# more rows walks one row of each class its forest cannot tell apart.
CHUNK_ROWS = 128


def _row_classes(forest: IsolationForest, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row for each class of X's rows that take one path in every tree,
    and each row's class. A walk steps from a split by x < v, v its value,
    and from a leaf to itself whatever x, so clamping a cell below its
    dimension's least split to -inf, and one above its greatest to that
    split, changes no step (NaN stays NaN): rows equal once clamped are one
    class."""
    clamped = np.where(X < forest.low, -math.inf, np.minimum(X, forest.high))
    order = np.lexsort(clamped.T)
    ranked = clamped[order]
    first = np.ones(len(X), dtype=bool)  # the first row of each run of equal rows
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    classes = np.empty(len(X), dtype=np.intp)
    classes[order] = np.cumsum(first) - 1
    return ranked[first], classes


def anomaly_scores(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """Anomaly score s = 2^(-E[h]/c(psi)) in (0,1] for each row of X; the
    only implementation of the score. Path lengths add up tree by tree in
    forest order, so a row scores the same alone or in any batch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != forest.dimension:
        raise ValueError(f"dimension mismatch: {X.shape[1]} != {forest.dimension}")
    c = c_factor(forest.sample_count)
    if c == 0.0:
        # psi <= 1 or unsplittable data: 0/0 pinned to the midpoint
        return np.full(X.shape[0], 0.5)
    # a batch of one chunk or less is walked as it stands: sorting it
    # costs more than its repeated rows save
    rows, classes = _row_classes(forest, X) if len(X) > CHUNK_ROWS else (X, slice(None))
    # accumulate adds tree after tree (sum(axis=0) may add pairwise: another
    # last bit); only its last row outlives the chunk
    total = np.empty(len(rows))
    for a in range(0, len(rows), CHUNK_ROWS):
        total[a:a + CHUNK_ROWS] = np.add.accumulate(
            _forest_paths(forest, rows[a:a + CHUNK_ROWS]), axis=0)[-1]
    mean_h = total[classes] / forest.tree_count
    return np.power(2.0, -mean_h / c)


def normality_score(forest: IsolationForest, x: np.ndarray) -> float:
    """g = 0.5 - s of the single row x; a flow is attributed to the
    model iff g >= th."""
    x = np.asarray(x, dtype=float)
    if x.shape != (forest.dimension,):
        raise ValueError(f"dimension mismatch: {x.shape} != ({forest.dimension},)")
    return float(0.5 - anomaly_scores(forest, x[None, :])[0])


def normality_scores(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    return 0.5 - anomaly_scores(forest, X)


@dataclass
class ModelArtifact:
    """A trained, distributable per-model classifier."""

    model: DeviceModelId
    schema: FeatureSchema
    forest: IsolationForest
    default_threshold: float = 0.0
    calibrated_thresholds: dict[int, float] = field(default_factory=dict)
    trained_at: str = ""
    training_flow_count: int = 0

    def __post_init__(self):
        if self.schema.dimension != self.forest.dimension:
            raise ArtifactError(
                f"schema dimension {self.schema.dimension} != forest dimension "
                f"{self.forest.dimension}"
            )

    def threshold(self, selector: str = "default") -> float:
        """Resolve "default", or "p<k>" (p or P, then ASCII digits) for the
        calibrated percentile k, to a threshold value."""
        if selector == "default":
            return self.default_threshold
        digits = selector[1:] if isinstance(selector, str) and selector[:1] in ("p", "P") else ""
        if not (digits.isascii() and digits.isdigit()):
            raise ArtifactError(f"unknown threshold selector: {selector!r}")
        percentile = int(digits)
        if percentile not in self.calibrated_thresholds:
            raise ArtifactError(f"no calibrated threshold for percentile {percentile}")
        return self.calibrated_thresholds[percentile]


def _forest_to_dict(forest: IsolationForest) -> dict:
    """Format 4: the forest's parameters and the columns it keeps."""
    return {"sample_count": forest.sample_count, "master_seed": forest.master_seed,
            "dimension": forest.dimension,
            **{name: base64.b64encode(column.astype(dtype).tobytes()).decode()
               for (name, dtype), column in zip(FOREST_COLUMNS.items(), forest.columns)}}


def _column(d: dict, name: str) -> np.ndarray:
    """Column name, taken out of the forest d so that its string is freed
    once read (13 loads otherwise left about 1 MB more resident); refused
    (ValueError) unless it is the canonical base64 of whole items. The
    string is decoded as it stands, and nothing is encoded but its last
    quad's bytes."""
    text, dtype = d.pop(name), np.dtype(FOREST_COLUMNS[name])
    if type(text) is not str:
        raise ValueError(f"{name} is not a base64 string: {text!r:.30}")
    try:
        # a string that is not ASCII: encode raises, naming the character
        raw = binascii.a2b_base64(text if text.isascii() else text.encode("ascii"),
                                  strict_mode=True)
    except ValueError as exc:  # UnicodeEncodeError or binascii.Error
        raise ValueError(f"{name} is not base64: {exc}") from None
    # Strictly decoded, raw's whole quads have no other spelling. Its last
    # quad may set bits the padding leaves unused, or "=" or "==" may follow
    # a whole quad: either way the text's last four characters are not
    # those of the last quad's canonical spelling.
    quads = -(-len(raw) // 3)
    if text[-4:] != base64.b64encode(raw[3 * quads - 3:]).decode():
        raise ValueError(f"{name} is not canonical base64")
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{name} holds {len(raw)} bytes, not whole {dtype.itemsize}-byte items")
    return np.frombuffer(raw, dtype)


def _forest_from_dict(d: dict, dimension: int) -> IsolationForest:
    """The forest d, whose dimension must be dimension, its schema's:
    checked before anything of its length is allocated."""
    # psi, and so every leaf size, is read as a float64, exact below 2^53;
    # that also keeps trees under 53 levels
    psi = _exact(d["sample_count"], int, "sample_count", 1, 2**53)
    if _exact(d["dimension"], int, "dimension") != dimension:
        raise ValueError(f"forest dimension {d['dimension']} != schema dimension {dimension}")
    columns = tuple(_column(d, name) for name in FOREST_COLUMNS)
    return _forest_from_table(_table_from_columns(*columns, dimension, psi), columns, psi,
                              _exact(d["master_seed"], int, "master_seed", 0), dimension)


def _finite_threshold(value) -> float:
    if not math.isfinite(_exact(value, float, "threshold")):
        raise ValueError(f"non-finite threshold {value}")
    return value


def _head(checksum: str) -> bytes:
    """An artifact file is _head(checksum) + payload + b"}": the canonical
    JSON of {"checksum", "format_version", "payload"}."""
    return b'{"checksum":"%s","format_version":%d,"payload":' % (
        checksum.encode(), ARTIFACT_FORMAT_VERSION)


def save_artifact(artifact: ModelArtifact, path) -> None:
    """Write the artifact as canonical JSON with a SHA-256 checksum of the
    payload's bytes as written.

    Identical trained models serialize byte-identically across
    platforms (timestamps live in metadata only). A write that fails
    halfway leaves what was at path whole.
    """
    payload = {
        "model": artifact.model.canonical(),
        "schema": artifact.schema.to_dict(),
        "forest": _forest_to_dict(artifact.forest),
        "default_threshold": artifact.default_threshold,
        "calibrated_thresholds": {str(k): v for k, v in artifact.calibrated_thresholds.items()},
        "trained_at": artifact.trained_at,
        "training_flow_count": artifact.training_flow_count,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    partial = f"{os.fspath(path)}.partial"  # no *.json glob matches it; renamed once whole
    try:
        with open(partial, "wb") as fh:
            fh.writelines((_head(hashlib.sha256(body).hexdigest()), body, b"}"))  # no joined copy
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def load_artifact(path) -> ModelArtifact:
    """Read an artifact written by save_artifact: the file is parsed once,
    and the checksum is taken over the payload's bytes as they stand in it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
        version, checksum, payload = doc["format_version"], doc["checksum"], doc["payload"]
    # RecursionError: JSON nested deeper than the parser's stack
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ArtifactError(f"corrupt-artifact: {exc}") from exc
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(f"unsupported-version:{version}")
    head = _head(str(checksum))
    body = memoryview(data)[len(head):-1]  # not a copy
    if not data.startswith(head) or hashlib.sha256(body).hexdigest() != checksum:
        raise ArtifactError("corrupt-artifact: checksum mismatch")
    del doc, data, body  # freed before the decode, as _column's strings are
    # A valid checksum shows the file is as written, not that a writer
    # with a working forest wrote it: every field is checked as decoded.
    try:
        thresholds = payload["calibrated_thresholds"]
        artifact = ModelArtifact(
            model=DeviceModelId.parse(payload["model"]),
            schema=(schema := FeatureSchema.from_dict(payload["schema"])),
            forest=_forest_from_dict(payload["forest"], schema.dimension),
            default_threshold=_finite_threshold(payload["default_threshold"]),
            calibrated_thresholds={int(k): _finite_threshold(v) for k, v in thresholds.items()},
            trained_at=_exact(payload["trained_at"], str, "trained_at"),
            training_flow_count=_exact(payload["training_flow_count"], int,
                                       "training_flow_count", 0),
        )
        if list(map(str, artifact.calibrated_thresholds)) != list(thresholds):
            raise ValueError(f"threshold keys {list(thresholds)!r:.40} are not plain ints")
        return artifact
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ArtifactError(f"corrupt-artifact: {type(exc).__name__}: {exc}") from exc

"""Isolation forest one-class classifier, built from scratch.

Each tree recursively splits a uniform subsample at a random value of a
random splittable dimension; anomalous points isolate in short paths.
The anomaly score is s = 2^(-E[h]/c(psi)) and the normality score used
for thresholding is g = 0.5 - s (classify as the model iff g >= th).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Union

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
    """Every tree laid out level by level as a complete binary tree. Level
    k has 2^k slots a tree, tree t's position j at slot t * 2^k + j, and
    the children of slot i are slots 2i (left) and 2i + 1 of level k + 1.
    A leaf above the last level is copied down its right chain with value
    -inf, which sends every row right (NaN and -inf too); the slots left
    of the chain are never reached. The last level holds each slot's
    depth + c(size), unless below walks on from it (_forest_paths)."""

    dims: list[np.ndarray]  # int32 per level above the last, 0 at a leaf
    values: list[np.ndarray]  # float64 per level above the last, -inf at a leaf
    leaf: np.ndarray  # float64, the last level: depth + c(size) at a leaf, 0 at a split
    # the nodes under the last level's splits, and every leaf, where the
    # levels stop above the deepest leaf (LEVEL_SLOTS_PER_NODE); else None
    below: Optional["NodeTable"]
    size: np.ndarray  # int64, the leaves' sizes in preorder, which an artifact stores
    sample_count: int  # psi, the subsample each tree was built on
    master_seed: int
    dimension: int

    @property
    def tree_count(self) -> int:
        return len(self.leaf) >> len(self.values)

    @property
    def trees(self) -> list[IsolationTree]:
        """The trees as linked nodes, decoded from _forest_columns on each
        access. Only bench/spans reads it, to count the nodes; it goes with
        TreeNode and IsolationTree once the benchmark counts the columns.
        Read backwards, a preorder meets a split's subtrees before it: a
        split pops its left child, then its right, off the stack."""
        _, dims, values = _forest_columns(self)
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
    gives each the same draws as growing it alone.
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
    table = _table_from_columns(*_grow_trees(X.T, rngs, psi), d, psi)
    return _forest_from_table(table, psi, master_seed, d)


# A numpy pass of _grow_trees takes the next nodes of consecutive trees up
# to this many rows in all, or one node if it alone holds more, so that
# its temporaries stay small however many trees grow together.
PASS_ROWS = 4096


def _grow_trees(cols: np.ndarray, rngs: list, psi: int) -> tuple:
    """Format 4's columns (lengths, dims, values) of one tree per stream in
    rngs, grown on the columns cols of the training matrix: each tree's
    nodes in preorder, a split as its dim and value, a leaf as -1 and its
    size.

    A tree draws its subsample of psi rows (choice). Then, depth first from
    the root, it splits each node of two or more rows above the height
    limit whose rows differ somewhere: on a dimension among those where
    they differ (integers), at a value between their least and greatest
    (uniform); the rows below the value go left. The trees grow in rounds,
    in which each tree splits its next node, so each draws from its own
    stream in the order it would alone.
    """
    n = cols.shape[1]
    height_limit = math.ceil(math.log2(psi))
    # Every tree's subsample, end to end: a node is a slice [a, b) of rows,
    # and its split orders the slice as its left child's rows, then its right's.
    rows = np.empty(len(rngs) * psi, dtype=np.intp)
    for t, rng in enumerate(rngs):  # one at a time: choice returns a view of all n rows
        rows[t * psi:(t + 1) * psi] = rng.choice(n, size=psi, replace=False)
    # Each tree's stream, its columns dims and values so far, and the nodes
    # it has still to write, the next on top, as slices (a, b, depth).
    trees = [(rng, [], [], [(t * psi, (t + 1) * psi, 0)]) for t, rng in enumerate(rngs)]
    growing = trees
    while True:
        for _, dims, values, todo in growing:  # the nodes on top that cannot split are leaves
            while todo and (todo[-1][1] - todo[-1][0] < 2 or todo[-1][2] >= height_limit):
                a, b, _ = todo.pop()
                dims.append(-1)
                values.append(b - a)
        growing = [tree for tree in growing if tree[3]]
        if not growing:
            break
        first = held = 0
        for last, (*_, todo) in enumerate(growing):
            a, b, _ = todo[-1]
            if held + b - a > PASS_ROWS and last > first:
                _split_next(cols, rows, growing[first:last])
                first, held = last, 0
            held += b - a
        _split_next(cols, rows, growing[first:])
    return (np.array([len(dims) for _, dims, _, _ in trees]),
            np.concatenate([dims for _, dims, _, _ in trees], dtype=np.int32),
            np.concatenate([values for _, _, values, _ in trees], dtype=float))


def _split_next(cols: np.ndarray, rows: np.ndarray, trees: list) -> None:
    """Split the next node of each of trees, (stream, dims, values, nodes
    to write) as in _grow_trees, in one numpy pass: write it, and push its
    right child, then its left, so that the left is written next."""
    a, b, depth = zip(*[todo.pop() for *_, todo in trees])
    a = np.array(a)
    size = np.array(b) - a
    taken, at = rows[_slices(a, size)], _starts(size)
    lo, hi = np.empty((len(cols), len(a))), np.empty((len(cols), len(a)))
    for j, col in enumerate(cols):  # one column at a time, not a d x rows block
        cells = col[taken]
        lo[j] = np.minimum.reduceat(cells, at)
        hi[j] = np.maximum.reduceat(cells, at)
    splittable = hi > lo
    picks = [rng.integers(m) if m else -1
             for (rng, *_), m in zip(trees, splittable.sum(axis=0).tolist())]
    dim = (np.cumsum(splittable, axis=0) <= picks).sum(axis=0)  # the picks-th splittable
    node_no = np.arange(len(a))
    split = [rng.uniform(low, high) if pick >= 0 else math.nan  # nan: all rows go right
             for (rng, *_), low, high, pick in zip(
                 trees, lo[dim, node_no].tolist(), hi[dim, node_no].tolist(), picks)]
    goes_left = cols[np.repeat(dim, size), taken] < np.repeat(split, size)
    n_left = np.add.reduceat(goes_left, at, dtype=np.intp)
    rows[_slices(a, n_left)] = taken[goes_left]
    rows[_slices(a + n_left, size - n_left)] = taken[~goes_left]
    for (_, dims, values, todo), pick, node_dim, value, start, end, left_size, node_depth in zip(
            trees, picks, dim.tolist(), split, a.tolist(), b, n_left.tolist(), depth):
        if pick < 0:  # its rows are all alike: a leaf
            dims.append(-1)
            values.append(end - start)
            continue
        dims.append(node_dim)
        values.append(value)
        mid = start + left_size
        todo += ((mid, end, node_depth + 1), (start, mid, node_depth + 1))


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of slices of these sizes starts, laid end to end."""
    return np.cumsum(sizes) - sizes


def _slices(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions in the slices [starts[i], starts[i] + sizes[i]), laid
    end to end."""
    return np.repeat(starts - _starts(sizes), sizes) + np.arange(sizes.sum())


@dataclass(frozen=True)
class NodeTable:
    """Trees as rows of one table: each tree's nodes in preorder, the trees
    end to end. A split's left child is the next row. A leaf is its own
    right child, and its value -inf sends every row there (NaN and -inf
    too), so a walk that reached a leaf stays on it. Format 4 decodes into
    one (_table_from_columns); an IsolationForest is laid out from it, and
    keeps one only for the nodes under its last level (below)."""

    dim: np.ndarray  # int32, 0 at a leaf
    value: np.ndarray  # float64, -inf at a leaf
    right: np.ndarray  # int32
    leaf: np.ndarray  # float64, depth + c(size) at a leaf, 0 at a split
    size: np.ndarray  # int64, the leaves' sizes in row order, which an artifact stores
    roots: np.ndarray  # intp, where walks start: each tree's first row (in below, each slot's)
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
    after = 2 * split.astype(np.int32) - 1
    after[roots] += 1
    np.cumsum(after, out=after)
    faults, early, short = [], after == 0, ~grown
    early[lasts], short[grown] = False, after[lasts] > 0
    if early.any():
        faults.append((4 * int(early.argmax()) + 4, "nodes after the last leaf of a tree"))
    if bad.any():
        at = int(bad.argmax())
        faults.append((4 * at + 1, f"bad node {[int(dims[at]), float(values[at])]!r:.60}"))
    if short.any():
        faults.append((4 * int(ends[short.argmax()]) - 1, "truncated node list"))
    del early, bad
    # A split's right child is the next node with as many subtrees pending
    # before it (n: none). Up to the first fault a split is above the height
    # limit, and no node has more pending than its depth + 1.
    before = after - split - split + 1
    del after
    right = np.arange(n, dtype=np.int32)
    right[split] = n
    height_limit = math.ceil(math.log2(psi))
    for count in range(1, height_limit + 1):
        at = np.flatnonzero(before == count)
        forks = split[at[:-1]]
        right[at[:-1][forks]] = at[1:][forks]
    del before
    depth = np.full(n, -1, dtype=np.int32)
    level, reached = 0, roots
    while reached.size:
        depth[reached] = level
        forks = reached[split[reached]]
        if level == height_limit and forks.size:
            faults.append((4 * int(forks.min()) + 2, "a tree is deeper than its height limit"))
            break
        children = np.zeros(n + 1, dtype=bool)
        children[forks + 1] = children[right[forks]] = True
        reached = np.flatnonzero(children[:n] & (depth < 0))
        level += 1
    if faults:
        raise ValueError(min(faults)[1])
    leaves = ~split
    size, leaf_depth = values[leaves].astype(np.int64), depth[leaves]
    del depth
    dim, value = np.where(split, dims, 0), np.where(split, values, -math.inf)
    # each distinct size once, without np.unique (it imports numpy.ma: about
    # 1.7 MB more resident) or np.sort (its SIMD sorts: about 0.4 MB)
    sizes = sorted(set(size.tolist()))
    path = np.array([c_factor(m) for m in sizes])[np.searchsorted(sizes, size)]
    path += leaf_depth  # c(size) + depth: addition commutes, bit for bit
    leaf = np.zeros(n)
    leaf[leaves] = path
    return NodeTable(dim, value, right, leaf, size, roots, int(leaf_depth.max()))


# A forest lays out its next level only while its levels' slots stay
# within this many per node, so that a deep chain of a hostile artifact
# (psi up to 2^53) does not take 2^depth slots; rows walk on below the
# last level in a node table. 2.7 suffice for psi = 256 at 100 trees.
LEVEL_SLOTS_PER_NODE = 4


def _forest_from_table(table: NodeTable, sample_count: int, master_seed: int,
                       dimension: int) -> IsolationForest:
    """The forest of table's trees, laid out level by level from the rows
    at each slot: a split's children are its next row and its right, a
    leaf's are itself. The levels stop at the deepest leaf, or before
    their slots pass LEVEL_SLOTS_PER_NODE per node; then below keeps
    table's leaves and the splits under the last level, its roots the
    row of each of the last level's slots."""
    n = len(table.dim)
    row, room = table.roots, LEVEL_SLOTS_PER_NODE * n - len(table.roots)
    dims, values, above = [], [], []
    while len(dims) < table.steps and 2 * len(row) <= room:
        room -= 2 * len(row)
        value = table.value.take(row)
        dims.append(table.dim.take(row))
        values.append(value)
        split = value > -math.inf
        above.append(row[split])
        children = np.empty(2 * len(row), dtype=np.intp)
        children[0::2] = row + split
        children[1::2] = table.right.take(row)
        row = children
    below = None
    if len(dims) < table.steps:
        keep = np.ones(n, dtype=bool)
        for rows in above:
            keep[rows] = False
        at = np.cumsum(keep) - 1  # a kept row's row in below
        below = NodeTable(table.dim[keep], table.value[keep], at[table.right[keep]].astype(np.int32),
                          table.leaf[keep], table.size, at[row], table.steps - len(dims))
    return IsolationForest(dims, values, table.leaf.take(row), below, table.size, sample_count,
                           master_seed, dimension)


def _forest_paths(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """The path lengths of the rows of X, one row of them per tree: each
    level steps every row from slot i to 2i + 1 - (x < v), and under the
    last level rows walk on in below."""
    n, d = X.shape
    cells, row_at = X.ravel(), np.arange(0, n * d, d)
    slot = np.repeat(np.arange(forest.tree_count)[:, None], n, axis=1)
    for dim, value in zip(forest.dims, forest.values):
        goes_left = cells.take(row_at + dim.take(slot)) < value.take(slot)
        slot += slot
        slot += 1
        slot -= goes_left
    if forest.below is None:
        return forest.leaf.take(slot)
    return _table_paths(forest.below, cells, row_at, forest.below.roots.take(slot))


def _table_paths(table: NodeTable, cells: np.ndarray, row_at: np.ndarray,
                 node: np.ndarray) -> np.ndarray:
    """The path lengths of rows standing at table's nodes node, the rows'
    cells at row_at: every row steps down one level at a time, and a row
    on a leaf stays there."""
    for _ in range(table.steps):
        goes_left = cells.take(row_at + table.dim.take(node)) < table.value.take(node)
        node = np.where(goes_left, node + 1, table.right.take(node))
    return table.leaf.take(node)


# A batch is walked this many rows at a time, so that the walk's
# (trees x rows) arrays stay small however large the batch is.
CHUNK_ROWS = 128


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
    # accumulate adds tree after tree (sum(axis=0) may add pairwise: another
    # last bit); only its last row outlives the chunk
    total = np.empty(len(X))
    for a in range(0, len(X), CHUNK_ROWS):
        total[a:a + CHUNK_ROWS] = np.add.accumulate(
            _forest_paths(forest, X[a:a + CHUNK_ROWS]), axis=0)[-1]
    mean_h = total / forest.tree_count
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

    def threshold(self, selector: Union[str, int] = "default") -> float:
        """Resolve "default" or "p<k>"/int percentile to a threshold value."""
        if selector == "default":
            return self.default_threshold
        if isinstance(selector, str):
            if not selector.lower().startswith("p"):
                raise ArtifactError(f"unknown threshold selector: {selector!r}")
            try:
                selector = int(selector[1:])
            except ValueError:
                raise ArtifactError(f"unknown threshold selector: {selector!r}") from None
        if selector not in self.calibrated_thresholds:
            raise ArtifactError(f"no calibrated threshold for percentile {selector}")
        return self.calibrated_thresholds[selector]


def _forest_columns(forest: IsolationForest) -> tuple:
    """Format 4's columns (lengths, dims, values), read off the levels: a
    leaf is -1 and its size. A split at level k, slot j, ranks in preorder
    by j << (K - k), K the last level, and then by k, its ancestors first.
    Each slot of level K a row can reach comes after them: the leaf on it or
    copied down to it, or the nodes of its subtree in below, in below's order."""
    K, trees = len(forest.values), forest.tree_count
    splits = [value > -math.inf for value in forest.values]
    reached = np.ones(trees, dtype=bool)
    for split in splits:  # a split's left child is reached, and every slot's right child
        reached = np.stack((split, reached), axis=1).ravel()
    slots = np.flatnonzero(reached)
    if forest.below is None:  # every reached slot holds a leaf
        low_dims, low_values, counts = np.full(len(slots), -1), forest.size.astype(float), 1
    else:
        below, m = forest.below, len(forest.below.dim)
        leaf = below.right == np.arange(m)
        low_dims, low_values = np.where(leaf, -1, below.dim), below.value.copy()
        low_values[leaf] = forest.size
        counts = np.diff(below.roots[slots], append=m)
    at = [np.flatnonzero(split) for split in splits]
    keys = np.concatenate([j << (K - k) for k, j in enumerate(at)] + [np.repeat(slots, counts)])
    order = np.lexsort((np.repeat(np.arange(K + 1), [*map(len, at), len(low_dims)]), keys))
    dims = np.concatenate([dim[j] for dim, j in zip(forest.dims, at)] + [low_dims])
    values = np.concatenate([value[j] for value, j in zip(forest.values, at)] + [low_values])
    return np.bincount(keys >> K, minlength=trees), dims[order], values[order]


def _forest_to_dict(forest: IsolationForest) -> dict:
    """Format 4: the forest's parameters and its columns (_forest_columns)."""
    return {"sample_count": forest.sample_count, "master_seed": forest.master_seed,
            "dimension": forest.dimension,
            **{name: base64.b64encode(column.astype(dtype).tobytes()).decode()
               for (name, dtype), column in zip(FOREST_COLUMNS.items(), _forest_columns(forest))}}


def _column(d: dict, name: str) -> np.ndarray:
    """Column name, taken out of the forest d so that its string is freed
    once read (13 loads otherwise left about 1 MB more resident); refused
    (ValueError) unless it is the canonical base64 of whole items."""
    text, dtype = d.pop(name), np.dtype(FOREST_COLUMNS[name])
    if type(text) is not str:
        raise ValueError(f"{name} is not a base64 string: {text!r:.30}")
    try:
        text = text.encode("ascii")
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # UnicodeEncodeError or binascii.Error
        raise ValueError(f"{name} is not base64: {exc}") from None
    if base64.b64encode(raw) != text:
        raise ValueError(f"{name} is not canonical base64")
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{name} holds {len(raw)} bytes, not whole {dtype.itemsize}-byte items")
    return np.frombuffer(raw, dtype)


def _forest_from_dict(d: dict) -> IsolationForest:
    # psi, and so every leaf size, is read as a float64, exact below 2^53;
    # that also keeps trees under 53 levels
    psi = _exact(d["sample_count"], int, "sample_count", 1, 2**53)
    dimension = _exact(d["dimension"], int, "dimension")
    columns = [_column(d, name) for name in FOREST_COLUMNS]
    return _forest_from_table(_table_from_columns(*columns, dimension, psi), psi,
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
            schema=FeatureSchema.from_dict(payload["schema"]),
            forest=_forest_from_dict(payload["forest"]),
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

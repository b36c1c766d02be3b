"""Isolation forest one-class classifier, built from scratch.

Each tree recursively splits a uniform subsample at a random value of a
random splittable dimension; anomalous points isolate in short paths.
The anomaly score is s = 2^(-E[h]/c(psi)) and the normality score used
for thresholding is g = 0.5 - s (classify as the model iff g >= th).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from natwatch.flowdata import DeviceModelId
from natwatch.preprocess import FeatureSchema, InsufficientDataError

EULER_GAMMA = 0.5772156649

ARTIFACT_FORMAT_VERSION = 3


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

    @property
    def is_leaf(self) -> bool:
        return self.split_dim < 0


@dataclass
class IsolationTree:
    root: TreeNode


@contextmanager
def _collector_paused():
    """Pause the cyclic collector over work that builds many objects and
    no cycles, where a collection would find nothing. If the caller had it
    on, the young generation is collected once at the end, at the work's
    cost rather than at the caller's next allocation, and it is on again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.collect(0)
            gc.enable()


def _tree_rng(master_seed: int, tree_index: int) -> np.random.Generator:
    # Per-tree stream derived deterministically from (master_seed, index);
    # PCG64 output is platform-independent.
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(tree_index,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class IsolationForest:
    trees: list[IsolationTree]
    sample_count: int  # psi, the subsample each tree was built on
    master_seed: int
    dimension: int
    # the trees as one NodeTable, built when a batch first needs it
    _table: Optional["NodeTable"] = field(default=None, init=False, repr=False, compare=False)


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
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InsufficientDataError("insufficient-data: empty training matrix")
    n, d = X.shape
    psi = min(subsample, n)
    rngs = [_tree_rng(master_seed, t) for t in range(n_trees)]
    with _collector_paused():  # the trees are acyclic
        roots = _grow_trees(X.T, rngs, psi)
    return IsolationForest(trees=[IsolationTree(root) for root in roots], sample_count=psi,
                           master_seed=master_seed, dimension=d)


# A numpy pass of _grow_trees takes the next nodes of consecutive trees up
# to this many rows in all, or one node if it alone holds more, so that
# its temporaries stay small however many trees grow together.
PASS_ROWS = 4096


def _grow_trees(cols: np.ndarray, rngs: list, psi: int) -> list[TreeNode]:
    """The roots of one tree per stream in rngs, grown on the columns cols
    of the training matrix.

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
    roots = [TreeNode(-1, 0.0, psi) for _ in rngs]
    # Each growing tree's stream and its nodes to split, the next on top,
    # as (node, a, b, depth).
    growing = [(rng, [(root, t * psi, (t + 1) * psi, 0)])
               for t, (rng, root) in enumerate(zip(rngs, roots))] if height_limit else []
    while growing:
        first = held = 0
        for last, (_, todo) in enumerate(growing):
            _, a, b, _ = todo[-1]
            if held + b - a > PASS_ROWS and last > first:
                _split_next(cols, rows, growing[first:last], height_limit)
                first, held = last, 0
            held += b - a
        _split_next(cols, rows, growing[first:], height_limit)
        growing = [tree for tree in growing if tree[1]]
    return roots


def _split_next(cols: np.ndarray, rows: np.ndarray, trees: list, height_limit: int) -> None:
    """Split the next node of each of trees, (stream, nodes to split) as in
    _grow_trees, in one numpy pass, and push the children left to split."""
    nodes, a, b, depth = zip(*[todo.pop() for _, todo in trees])
    a = np.array(a)
    size = np.array(b) - a
    taken, at = rows[_slices(a, size)], _starts(size)
    lo, hi = np.empty((len(cols), len(a))), np.empty((len(cols), len(a)))
    for j, col in enumerate(cols):  # one column at a time, not a d x rows block
        values = col[taken]
        lo[j] = np.minimum.reduceat(values, at)
        hi[j] = np.maximum.reduceat(values, at)
    splittable = hi > lo
    picks = [rng.integers(m) if m else -1
             for (rng, _), m in zip(trees, splittable.sum(axis=0).tolist())]
    dim = (np.cumsum(splittable, axis=0) <= picks).sum(axis=0)  # the picks-th splittable
    node_no = np.arange(len(a))
    split = [rng.uniform(low, high) if pick >= 0 else math.nan  # nan: all rows go right
             for (rng, _), low, high, pick in zip(
                 trees, lo[dim, node_no].tolist(), hi[dim, node_no].tolist(), picks)]
    goes_left = cols[np.repeat(dim, size), taken] < np.repeat(split, size)
    n_left = np.add.reduceat(goes_left, at, dtype=np.intp)
    rows[_slices(a, n_left)] = taken[goes_left]
    rows[_slices(a + n_left, size - n_left)] = taken[~goes_left]
    for (_, todo), node, pick, node_dim, value, start, end, left_size, node_depth in zip(
            trees, nodes, picks, dim.tolist(), split, a.tolist(), b, n_left.tolist(), depth):
        if pick < 0:
            continue  # its rows are all alike: it stays a leaf
        mid = start + left_size
        node.split_dim, node.split_value, node.size = node_dim, value, 0
        node.left = left = TreeNode(-1, 0.0, left_size)
        node.right = right = TreeNode(-1, 0.0, end - mid)
        if node_depth + 1 < height_limit:
            if end - mid > 1:
                todo.append((right, mid, end, node_depth + 1))
            if left_size > 1:
                todo.append((left, start, mid, node_depth + 1))


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of slices of these sizes starts, laid end to end."""
    return np.cumsum(sizes) - sizes


def _slices(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions in the slices [starts[i], starts[i] + sizes[i]), laid
    end to end."""
    return np.repeat(starts - _starts(sizes), sizes) + np.arange(sizes.sum())


def path_length(tree: IsolationTree, x) -> float:
    """Edges traversed to the external node reached by row x, plus
    c(external size)."""
    node = tree.root
    depth = 0
    while node.split_dim >= 0:
        node = node.left if x[node.split_dim] < node.split_value else node.right
        depth += 1
    return depth + c_factor(node.size)


def _batch_paths(node: TreeNode, cols: np.ndarray, idx: np.ndarray, depth: int, out: np.ndarray):
    """Path lengths of the rows idx (not empty) of the column-major batch
    cols, one row per feature, below node at depth."""
    if node.split_dim < 0:
        out[idx] = depth + c_factor(node.size)
        return
    mask = cols[node.split_dim][idx] < node.split_value
    left, right = idx[mask], idx[~mask]
    if left.size:
        _batch_paths(node.left, cols, left, depth + 1, out)
    if right.size:
        _batch_paths(node.right, cols, right, depth + 1, out)


@dataclass(frozen=True)
class NodeTable:
    """A forest's trees as rows of one table: each tree's nodes in preorder,
    the trees end to end. A split's left child is the next row. A leaf is
    its own right child, and its value -inf sends every row there (NaN and
    -inf too), so a walk that reached a leaf stays on it."""

    dim: np.ndarray  # int32, 0 at a leaf
    value: np.ndarray  # float64, -inf at a leaf
    right: np.ndarray  # int32
    leaf: np.ndarray  # float64, depth + c(size) at a leaf, 0 at a split
    roots: np.ndarray  # each tree's first row
    steps: int  # the depth of the deepest leaf


def _node_table(trees) -> NodeTable:
    """The NodeTable of trees given as preorder columns [dims, values]
    (_tree_to_columns), read one tree at a time."""
    columns, roots, at, steps = ([], [], [], []), [], 0, 0  # dim, value, right, leaf
    for dims, values in trees:
        right = list(range(at, at + len(dims)))  # a leaf is its own right child
        leaf = [0.0] * len(dims)
        depth, waiting = -1, []  # the splits, with their depth, still short of a right child
        for i, dim in enumerate(dims):
            if i and dims[i - 1] < 0:  # after a leaf: the right child of the last split waiting
                parent, depth = waiting.pop()
                right[parent] = at + i
            depth += 1
            if dim >= 0:
                waiting.append((i, depth))
            else:
                leaf[i] = depth + c_factor(values[i])  # as path_length adds them
                steps = max(steps, depth)
        dim, value = np.array(dims, dtype=np.int32), np.array(values, dtype=float)
        is_leaf = dim < 0
        dim[is_leaf], value[is_leaf] = 0, -math.inf
        for column, part in zip(columns, (dim, value, np.array(right, dtype=np.int32),
                                          np.array(leaf))):
            column.append(part)
        roots.append(at)
        at += len(dims)
    dim, value, right, leaf = map(_joined, columns)
    return NodeTable(dim, value, right, leaf, np.array(roots, dtype=np.intp), steps)


def _joined(parts: list) -> np.ndarray:
    """The arrays parts end to end. The parts are dropped once joined, so
    that a table being built holds at most one of its columns twice."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _table_paths(table: NodeTable, X: np.ndarray) -> np.ndarray:
    """The path lengths of the rows of X, one row of them per tree: every
    tree steps all rows down one level at a time, and a row on a leaf
    stays there."""
    n, d = X.shape
    cells, row_at = X.ravel(), np.arange(0, n * d, d)
    node = np.repeat(table.roots[:, None], n, axis=1)
    for _ in range(table.steps):
        goes_left = cells.take(row_at + table.dim.take(node)) < table.value.take(node)
        node = np.where(goes_left, node + 1, table.right.take(node))
    return table.leaf.take(node)


# Up to this many rows, a batch is scored on the forest's NodeTable, which
# the first such batch builds (about 15 ms for 100 trees of psi 256) and
# the forest keeps. Larger batches are partitioned down the linked trees
# (_batch_paths) and never need a table, so a forest that only scores
# large batches (calibration, evaluation, a CSV) pays nothing for one.
# Both add the same path lengths in the same order.
TABLE_MAX_ROWS = 96


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
    n = X.shape[0]
    if n <= TABLE_MAX_ROWS:
        if forest._table is None:
            forest._table = _node_table(_tree_to_columns(tree.root) for tree in forest.trees)
        # accumulate adds tree after tree, as the loop below does; sum(axis=0)
        # may add pairwise, which changes the last bit
        total = np.add.accumulate(_table_paths(forest._table, X), axis=0)[-1]
    else:
        total, paths, idx, cols = np.zeros(n), np.empty(n), np.arange(n), np.ascontiguousarray(X.T)
        for tree in forest.trees:
            _batch_paths(tree.root, cols, idx, 0, paths)
            total += paths
    mean_h = total / len(forest.trees)
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


def _tree_to_columns(root: TreeNode) -> list:
    """The tree's nodes in preorder as two columns [dims, values]: a split
    is its dim and value, a leaf is -1 and its size."""
    dims, values, stack = [], [], [root]
    while stack:
        node = stack.pop()
        if node.split_dim < 0:
            dims.append(-1)
            values.append(node.size)
        else:
            dims.append(node.split_dim)
            values.append(node.split_value)
            stack += (node.right, node.left)
    return [dims, values]


def _tree_from_columns(tree, dimension: int, sample_count: int, height_limit: int) -> IsolationTree:
    """Rebuild one tree from its preorder columns [dims, values], rejecting
    any tree train_forest cannot write: columns of another shape, a
    malformed node, a split on a dimension the forest lacks, a leaf larger
    than the sample, a missing or extra node, or a split at or below the
    height limit."""
    if type(tree) is not list or len(tree) != 2 or type(tree[0]) is not list \
            or type(tree[1]) is not list or len(tree[0]) != len(tree[1]):
        raise ValueError(f"a tree is not [dims, values] of equal length: {tree!r:.60}")
    root = None
    waiting: list[TreeNode] = []  # internal nodes short of a child
    depths: list[int] = []  # the depth of each
    for dim, value in zip(*tree):
        if not waiting and root is not None:
            raise ValueError("nodes after the last leaf of a tree")
        # positional arguments: keywords double the cost of building a node
        if dim == -1 and type(value) is int and 0 <= value <= sample_count:
            node = TreeNode(-1, 0.0, value)
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


def _forest_to_dict(forest: IsolationForest) -> dict:
    return {
        "sample_count": forest.sample_count,
        "master_seed": forest.master_seed,
        "dimension": forest.dimension,
        "trees": [_tree_to_columns(t.root) for t in forest.trees],
    }


def _forest_from_dict(d: dict) -> IsolationForest:
    psi, dimension, trees = d["sample_count"], d["dimension"], d["trees"]
    # psi rows came from one numpy array, so psi fits its index type; that
    # also keeps trees, and the recursion of _batch_paths, under 64 levels
    if type(psi) is not int or not 1 <= psi <= np.iinfo(np.intp).max:
        raise ValueError(f"sample_count {psi!r:.30} is not a row count")
    if type(trees) is not list or not trees:
        raise ValueError("a forest needs at least one tree")
    height_limit = math.ceil(math.log2(psi))
    return IsolationForest(
        trees=[_tree_from_columns(tree, dimension, psi, height_limit) for tree in trees],
        sample_count=psi,
        master_seed=int(d["master_seed"]),
        dimension=dimension,
    )


def _finite_threshold(value) -> float:
    value = float(value)
    if not math.isfinite(value):
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
    platforms (timestamps live in metadata only).
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
    with open(path, "wb") as fh:
        fh.write(_head(hashlib.sha256(body).hexdigest()) + body + b"}")


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
    body = data[len(head):-1]
    if not data.startswith(head) or hashlib.sha256(body).hexdigest() != checksum:
        raise ArtifactError("corrupt-artifact: checksum mismatch")
    # A valid checksum shows the file is as written, not that a writer
    # with a working forest wrote it: every field is checked as decoded.
    try:
        with _collector_paused():  # the decode builds only acyclic trees
            return ModelArtifact(
                model=DeviceModelId.parse(payload["model"]),
                schema=FeatureSchema.from_dict(payload["schema"]),
                forest=_forest_from_dict(payload["forest"]),
                default_threshold=_finite_threshold(payload["default_threshold"]),
                calibrated_thresholds={
                    int(k): _finite_threshold(v) for k, v in payload["calibrated_thresholds"].items()
                },
                trained_at=str(payload["trained_at"]),
                training_flow_count=int(payload["training_flow_count"]),
            )
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ArtifactError(f"corrupt-artifact: {type(exc).__name__}: {exc}") from exc

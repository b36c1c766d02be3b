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
from functools import partial
from itertools import chain, repeat
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
    table: "NodeTable"  # every tree, as scoring walks it and an artifact stores it
    sample_count: int  # psi, the subsample each tree was built on
    master_seed: int
    dimension: int
    # train_forest's linked trees, kept for bench/spans to count; a loaded forest has none
    trees: list[IsolationTree] = field(default_factory=list, repr=False, compare=False)


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
    table = _table_from_trees([_tree_to_columns(root) for root in roots], d, psi)
    return IsolationForest(table, psi, master_seed, d, [IsolationTree(root) for root in roots])


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
    size: np.ndarray  # int64, the leaves' sizes in row order, which format 3 stores
    roots: np.ndarray  # intp, each tree's first row (the walk's node indices)
    steps: int  # the depth of the deepest leaf


def _table_from_trees(trees: list, dimension: int, psi: int) -> NodeTable:
    """The NodeTable of trees given as format 3's preorder columns
    [dims, values], refusing (ValueError) any tree train_forest cannot
    write: columns of another shape, a malformed node, a split on a
    dimension the forest lacks, a leaf larger than the sample, a missing or
    extra node, or a split at or below the height limit. Of several faults
    the one named is the first met reading the trees node by node."""
    shaped = next((t for t, tree in enumerate(trees) if type(tree) is not list or len(tree) != 2
                   or type(tree[0]) is not list or type(tree[1]) is not list
                   or len(tree[0]) != len(tree[1])), len(trees))
    columns = trees[:shaped]
    lengths = np.array([len(tree[0]) for tree in columns], dtype=np.intp)
    ends = np.cumsum(lengths)
    n, grown = int(ends[-1]) if shaped else 0, lengths > 0
    split, bad, dim, value = _checked_nodes(columns, n, dimension, psi)
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
        tree = int(np.searchsorted(ends, at, side="right"))
        node = [column[at - ends[tree] + lengths[tree]] for column in columns[tree]]
        faults.append((4 * at + 1, f"bad node {node!r:.60}"))
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
    if shaped < len(trees):
        raise ValueError(f"a tree is not [dims, values] of equal length: {trees[shaped]!r:.60}")
    leaves = ~split
    size, leaf_depth = value[leaves].astype(np.int64), depth[leaves]
    del depth
    value[leaves] = -math.inf
    # each distinct size once, without np.unique (it imports numpy.ma: about
    # 1.7 MB more resident) or np.sort (its SIMD sorts: about 0.4 MB)
    sizes = sorted(set(size.tolist()))
    path = np.array([c_factor(m) for m in sizes])[np.searchsorted(sizes, size)]
    path += leaf_depth  # c(size) + depth: addition commutes, bit for bit
    leaf = np.zeros(n)
    leaf[leaves] = path
    return NodeTable(dim, value, right, leaf, size, roots, int(leaf_depth.max()))


def _checked_nodes(trees: list, n: int, dimension: int, psi: int) -> tuple:
    """Of the n nodes of trees, [dims, values] each: which are splits (an int
    dim in [0, dimension) and a finite float), which are bad (neither that
    nor a leaf, -1 and an int size in [0, psi]), each split's dim (int32,
    else 0) and each value (float64, exact for a size below 2^53)."""
    def cells(k):  # column k of every tree, end to end
        return chain.from_iterable(tree[k] for tree in trees)

    if set(map(type, cells(0))) <= {int} and set(map(type, cells(1))) <= {int, float}:
        try:
            return _node_checks(cells, n, dimension, psi)
        except OverflowError:  # an int past int64 or float64
            pass
    # node by node, as Python compares (a dim of -1.0 is -1, and True is no
    # int), with any node the checks cannot read made one they refuse
    plain = ([-1 if d == -1 else d if type(d) is int and 0 <= d < dimension else -2
              for d in cells(0)],
             [v if type(v) is int and 0 <= v <= psi or type(v) is float and math.isfinite(v)
              else math.nan for v in cells(1)])
    return _node_checks(plain.__getitem__, n, dimension, psi)


def _node_checks(cells, n: int, dimension: int, psi: int) -> tuple:
    dim, value = np.fromiter(cells(0), np.int64, n), np.fromiter(cells(1), np.float64, n)
    is_float = np.fromiter(map(isinstance, cells(1), repeat(float)), bool, n)
    split = is_float & (dim >= 0) & (dim < dimension) & np.isfinite(value)
    leaf = (dim == -1) & ~is_float & (value >= 0) & (value <= psi)
    dim[~split] = 0
    return split, ~(split | leaf), dim.astype(np.int32), value


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
            _table_paths(forest.table, X[a:a + CHUNK_ROWS]), axis=0)[-1]
    mean_h = total / len(forest.table.roots)
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


def _forest_to_dict(forest: IsolationForest) -> dict:
    """Format 3, written from the table: each tree's _tree_to_columns."""
    table = forest.table
    leaf = table.right == np.arange(len(table.right))
    dims = np.where(leaf, -1, table.dim)
    values = np.empty(len(dims), dtype=object)  # Python floats, and ints for the sizes
    values[~leaf], values[leaf] = table.value[~leaf], table.size
    bounds = table.roots.tolist() + [len(dims)]
    return {
        "sample_count": forest.sample_count,
        "master_seed": forest.master_seed,
        "dimension": forest.dimension,
        "trees": [[dims[a:b].tolist(), values[a:b].tolist()] for a, b in zip(bounds, bounds[1:])],
    }


def _forest_from_dict(d: dict) -> IsolationForest:
    psi, dimension, trees = d["sample_count"], d["dimension"], d["trees"]
    # psi, and so every leaf size, is read as a float64, exact below 2^53;
    # that also keeps trees under 53 levels
    if type(psi) is not int or not 1 <= psi < 2**53:
        raise ValueError(f"sample_count {psi!r:.30} is not a row count")
    if type(trees) is not list or not trees:
        raise ValueError("a forest needs at least one tree")
    return IsolationForest(_table_from_trees(trees, dimension, psi), psi, int(d["master_seed"]),
                           dimension)


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
    forest = _forest_to_dict(artifact.forest)
    trees, forest["trees"] = forest["trees"], []
    payload = {
        "model": artifact.model.canonical(),
        "schema": artifact.schema.to_dict(),
        "forest": forest,
        "default_threshold": artifact.default_threshold,
        "calibrated_thresholds": {str(k): v for k, v in artifact.calibrated_thresholds.items()},
        "trained_at": artifact.trained_at,
        "training_flow_count": artifact.training_flow_count,
    }
    # json.dumps holds a string per number until it returns (2.7 MB for 100 trees
    # of psi 256): the trees are encoded one by one, for the payload's "trees":[]
    dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    body = dumps(payload).replace('"trees":[]', '"trees":[' + ",".join(map(dumps, trees)) + "]", 1)
    body = body.encode()
    with open(path, "wb") as fh:
        fh.writelines((_head(hashlib.sha256(body).hexdigest()), body, b"}"))  # no joined copy


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
        with _collector_paused():  # the decode builds no cycles
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

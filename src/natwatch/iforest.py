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


def _build_node(X: np.ndarray, idx: np.ndarray, depth: int, height_limit: int, rng) -> TreeNode:
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
        left=_build_node(X, idx[mask], depth + 1, height_limit, rng),
        right=_build_node(X, idx[~mask], depth + 1, height_limit, rng),
    )


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
    sharing a seed share their first k trees regardless of n_trees.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InsufficientDataError("insufficient-data: empty training matrix")
    n, d = X.shape
    psi = min(subsample, n)
    height_limit = math.ceil(math.log2(psi))
    trees = []
    for t in range(n_trees):
        rng = _tree_rng(master_seed, t)
        idx = rng.choice(n, size=psi, replace=False)
        trees.append(IsolationTree(_build_node(X, idx, 0, height_limit, rng)))
    return IsolationForest(trees=trees, sample_count=psi, master_seed=master_seed, dimension=d)


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


# Up to this many rows, each row walks each tree on Python floats (about
# 0.08 ms a row for 100 trees); larger batches are partitioned node by
# node (_batch_paths, about 8 ms per forest at any batch size). Both add
# the same path lengths in the same order.
ROW_WALK_MAX_ROWS = 96


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
    total = np.zeros(n)
    if n <= ROW_WALK_MAX_ROWS:
        for r, row in enumerate(X.tolist()):
            h = 0.0  # not sum(): from Python 3.12 it compensates, unlike +=
            for tree in forest.trees:
                h += path_length(tree, row)
            total[r] = h
    else:
        paths, idx, cols = np.empty(n), np.arange(n), np.ascontiguousarray(X.T)
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
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"corrupt-artifact: {exc}") from exc
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(f"unsupported-version:{version}")
    head = _head(str(checksum))
    body = data[len(head):-1]
    if not data.startswith(head) or hashlib.sha256(body).hexdigest() != checksum:
        raise ArtifactError("corrupt-artifact: checksum mismatch")
    # A valid checksum shows the file is as written, not that a writer
    # with a working forest wrote it: every field is checked as decoded.
    enabled = gc.isenabled()
    gc.disable()  # the decode builds only acyclic trees, so a collection would find nothing
    try:
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
    finally:
        if enabled:
            # the decoded nodes leave the young generation here, at the
            # load's cost, not at the caller's next allocation
            gc.collect(0)
            gc.enable()

"""Isolation forest one-class classifier, built from scratch.

Each tree recursively splits a uniform subsample at a random value of a
random splittable dimension; anomalous points isolate in short paths.
The anomaly score is s = 2^(-E[h]/c(psi)) and the normality score used
for thresholding is g = 0.5 - s (classify as the model iff g >= th).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from natwatch.flowdata import DeviceModelId
from natwatch.preprocess import FeatureSchema, InsufficientDataError

EULER_GAMMA = 0.5772156649

ARTIFACT_FORMAT_VERSION = 1


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


@dataclass
class TreeNode:
    """Internal node (split_dim >= 0) or external node (split_dim = -1)."""

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
    height_limit: int
    sample_count: int


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
        size=n,
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
    n_trees: int
    subsample_size: int
    master_seed: int
    dimension: int

    @property
    def effective_subsample(self) -> int:
        return self.trees[0].sample_count if self.trees else self.subsample_size


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
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InsufficientDataError("insufficient-data: empty training matrix")
    n, d = X.shape
    psi = min(subsample, n)
    height_limit = max(1, math.ceil(math.log2(psi))) if psi > 1 else 0
    trees = []
    for t in range(n_trees):
        rng = _tree_rng(master_seed, t)
        idx = rng.choice(n, size=psi, replace=False)
        root = _build_node(X, idx, 0, height_limit, rng)
        trees.append(IsolationTree(root=root, height_limit=height_limit, sample_count=psi))
    return IsolationForest(
        trees=trees, n_trees=n_trees, subsample_size=subsample, master_seed=master_seed,
        dimension=d,
    )


def path_length(tree: IsolationTree, x) -> float:
    """Edges traversed to the external node reached by row x, plus
    c(external size)."""
    node = tree.root
    depth = 0
    while node.split_dim >= 0:
        node = node.left if x[node.split_dim] < node.split_value else node.right
        depth += 1
    return depth + c_factor(node.size)


def _batch_paths(node: TreeNode, X: np.ndarray, idx: np.ndarray, depth: int, out: np.ndarray):
    if idx.size == 0:
        return
    if node.is_leaf:
        out[idx] = depth + c_factor(node.size)
        return
    mask = X[idx, node.split_dim] < node.split_value
    _batch_paths(node.left, X, idx[mask], depth + 1, out)
    _batch_paths(node.right, X, idx[~mask], depth + 1, out)


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
    c = c_factor(forest.effective_subsample)
    if c == 0.0 or not forest.trees:
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
        paths, idx = np.empty(n), np.arange(n)
        for tree in forest.trees:
            _batch_paths(tree.root, X, idx, 0, paths)
            total += paths
    mean_h = total / len(forest.trees)
    return np.power(2.0, -mean_h / c)


def anomaly_score(forest: IsolationForest, x: np.ndarray) -> float:
    """anomaly_scores of the single row x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (forest.dimension,):
        raise ValueError(f"dimension mismatch: {x.shape} != ({forest.dimension},)")
    return float(anomaly_scores(forest, x[None, :])[0])


def normality_score(forest: IsolationForest, x: np.ndarray) -> float:
    """g = 0.5 - s; a flow is attributed to the model iff g >= th."""
    return 0.5 - anomaly_score(forest, x)


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
    format_version: int = ARTIFACT_FORMAT_VERSION

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


def _node_to_preorder(node: TreeNode, out: list) -> None:
    if node.is_leaf:
        out.append([-1, node.size])
    else:
        out.append([node.split_dim, node.split_value, node.size])
        _node_to_preorder(node.left, out)
        _node_to_preorder(node.right, out)


def _node_from_preorder(items: iter) -> TreeNode:
    item = next(items)
    if item[0] == -1:
        return TreeNode(size=int(item[1]))
    node = TreeNode(split_dim=int(item[0]), split_value=float(item[1]), size=int(item[2]))
    node.left = _node_from_preorder(items)
    node.right = _node_from_preorder(items)
    return node


def forest_to_dict(forest: IsolationForest) -> dict:
    trees = []
    for t in forest.trees:
        nodes: list = []
        _node_to_preorder(t.root, nodes)
        trees.append(
            {"height_limit": t.height_limit, "sample_count": t.sample_count, "nodes": nodes}
        )
    return {
        "n_trees": forest.n_trees,
        "subsample_size": forest.subsample_size,
        "master_seed": forest.master_seed,
        "dimension": forest.dimension,
        "trees": trees,
    }


def forest_from_dict(d: dict) -> IsolationForest:
    trees = [
        IsolationTree(
            root=_node_from_preorder(iter(t["nodes"])),
            height_limit=int(t["height_limit"]),
            sample_count=int(t["sample_count"]),
        )
        for t in d["trees"]
    ]
    return IsolationForest(
        trees=trees,
        n_trees=int(d["n_trees"]),
        subsample_size=int(d["subsample_size"]),
        master_seed=int(d["master_seed"]),
        dimension=int(d["dimension"]),
    )


def _payload_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_artifact(artifact: ModelArtifact, path) -> None:
    """Write the artifact as canonical JSON with an integrity checksum.

    Identical trained models serialize byte-identically across
    platforms (timestamps live in metadata only).
    """
    payload = {
        "model": artifact.model.canonical(),
        "schema": artifact.schema.to_dict(),
        "forest": forest_to_dict(artifact.forest),
        "default_threshold": artifact.default_threshold,
        "calibrated_thresholds": {str(k): v for k, v in artifact.calibrated_thresholds.items()},
        "trained_at": artifact.trained_at,
        "training_flow_count": artifact.training_flow_count,
    }
    doc = {
        "format_version": artifact.format_version,
        "checksum": _payload_checksum(payload),
        "payload": payload,
    }
    # json.dumps takes the C encoder; json.dump always streams in Python.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def load_artifact(path) -> ModelArtifact:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        version = doc["format_version"]
        checksum = doc["checksum"]
        payload = doc["payload"]
    except (json.JSONDecodeError, KeyError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt-artifact: {exc}") from exc
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(f"unsupported-version:{version}")
    if _payload_checksum(payload) != checksum:
        raise ArtifactError("corrupt-artifact: checksum mismatch")
    return ModelArtifact(
        model=DeviceModelId.parse(payload["model"]),
        schema=FeatureSchema.from_dict(payload["schema"]),
        forest=forest_from_dict(payload["forest"]),
        default_threshold=float(payload["default_threshold"]),
        calibrated_thresholds={
            int(k): float(v) for k, v in payload["calibrated_thresholds"].items()
        },
        trained_at=str(payload["trained_at"]),
        training_flow_count=int(payload["training_flow_count"]),
        format_version=int(version),
    )

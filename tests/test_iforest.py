import functools
import gc
import hashlib
import json
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch import iforest
from natwatch.iforest import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    IsolationTree,
    ROW_WALK_MAX_ROWS,
    ModelArtifact,
    TreeNode,
    anomaly_scores,
    c_factor,
    load_artifact,
    normality_score,
    normality_scores,
    path_length,
    save_artifact,
    train_forest,
)
from natwatch.flowdata import FlowDataset, LabeledFlow
from natwatch.preprocess import InsufficientDataError, fit_schema, transform_many

from util import WEBCAM, dataset, make_flow, make_labeled


def exact_c(n):
    """Reference: c(n) with an exact harmonic sum instead of the ln
    approximation."""
    if n <= 1:
        return 0.0
    harmonic = sum(1.0 / i for i in range(1, n))
    return 2.0 * harmonic - 2.0 * (n - 1) / n


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


class TestPathLength:
    def test_singleton_leaf(self):
        tree = IsolationTree(TreeNode(size=1))
        assert path_length(tree, np.array([0.0])) == 0.0

    def test_two_point_leaf(self):
        root = TreeNode(
            split_dim=0,
            split_value=0.5,
            left=TreeNode(size=2),
            right=TreeNode(size=2),
        )
        tree = IsolationTree(root)
        assert path_length(tree, np.array([0.1])) == pytest.approx(1 + c_factor(2))

    def test_uneven_leaf(self):
        root = TreeNode(
            split_dim=0,
            split_value=0.5,
            left=TreeNode(size=1),
            right=TreeNode(size=3),
        )
        tree = IsolationTree(root)
        assert path_length(tree, np.array([0.9])) == pytest.approx(1 + c_factor(3))
        assert path_length(tree, np.array([0.1])) == 1.0

    def test_boundary_goes_right(self):
        root = TreeNode(
            split_dim=0,
            split_value=0.5,
            left=TreeNode(size=1),
            right=TreeNode(size=1),
        )
        tree = IsolationTree(root)
        assert path_length(tree, np.array([0.5])) == 1.0  # x >= v goes right


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
        q = np.zeros(4)
        for t_small, t_big in zip(small.trees, big.trees):
            assert path_length(t_small, q) == path_length(t_big, q)

    def test_different_seed_differs(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 4))
        a = train_forest(X, n_trees=10, subsample=64, master_seed=1)
        b = train_forest(X, n_trees=10, subsample=64, master_seed=2)
        q = rng.normal(size=(20, 4))
        assert not np.array_equal(anomaly_scores(a, q), anomaly_scores(b, q))

    def test_subsample_capped_at_n(self):
        X = np.random.default_rng(3).normal(size=(40, 3))
        forest = train_forest(X, n_trees=5, subsample=256, master_seed=0)
        assert forest.sample_count == 40

    def test_height_limit(self):
        X = np.random.default_rng(4).normal(size=(500, 3))
        forest = train_forest(X, n_trees=3, subsample=256, master_seed=0)
        for tree in forest.trees:
            deepest, stack = 0, [(tree.root, 0)]
            while stack:
                node, depth = stack.pop()
                if node.is_leaf:
                    deepest = max(deepest, depth)
                else:
                    stack += [(node.left, depth + 1), (node.right, depth + 1)]
            assert deepest == math.ceil(math.log2(forest.sample_count)) == 8

    def test_no_trees_raises(self):
        with pytest.raises(ValueError, match="n_trees"):
            train_forest(np.zeros((5, 2)), n_trees=0)

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
        # both tree walks: the row walk up to ROW_WALK_MAX_ROWS, partitioning above
        for n in (1, ROW_WALK_MAX_ROWS, ROW_WALK_MAX_ROWS + 1, 1000):
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


def _tree(payload) -> list:
    """The first tree's preorder columns, [dims, values]."""
    return payload["forest"]["trees"][0]


def _set_tree(payload, dims, values) -> None:
    _tree(payload)[:] = [dims, values]


def write_with_checksum(path, payload) -> None:
    """Write payload as a format-3 artifact with a correct checksum, the
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
    # one row at a time (row walk) and ROW_WALK_MAX_ROWS + 1 rows (partitioning)
    Q = transform_many(schema, queries)
    big = np.tile(Q, (ROW_WALK_MAX_ROWS // len(queries) + 1, 1))[: ROW_WALK_MAX_ROWS + 1]
    for X in [Q[i : i + 1] for i in range(len(Q))] + [big]:
        assert normality_scores(restored.forest, X).tolist() == \
            normality_scores(forest, X).tolist()


@functools.lru_cache(maxsize=1)
def _saved_payload() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_artifact(small_artifact(), path)
        with open(path) as fh:
            return json.dumps(json.load(fh)["payload"])


_COLUMN_EDITS = ["truncate", "extend", "swap-int-float", "dim-out-of-range", "not-a-list",
                 "unequal-lengths"]


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
    elif edit == "swap-int-float":
        column = data.draw(st.sampled_from(tree))
        v = column[at]
        column[at] = float(v) if type(v) is int else int(v) if math.isfinite(v) else 0
    elif edit == "dim-out-of-range":
        dims[at] = data.draw(st.one_of(st.integers(max_value=-2), st.integers(min_value=dimension)))
    elif edit == "not-a-list":
        junk = data.draw(st.sampled_from([None, 5, "x", {"k": 1}, [dims[at], values[at]]]))
        if data.draw(st.booleans()):
            tree[data.draw(st.integers(0, 1))] = junk  # a column
        else:
            dims[at] = junk  # a node
    else:  # unequal lengths
        data.draw(st.sampled_from(tree)).pop(at)


@given(data=st.data())
def test_edited_tree_columns_load_or_raise_artifact_error(data):
    payload = json.loads(_saved_payload())
    forest = payload["forest"]
    tree = data.draw(st.sampled_from(forest["trees"]))
    for _ in range(data.draw(st.integers(1, 3))):
        if not all(type(column) is list for column in tree):
            break  # a column was replaced: nothing left to edit
        _edit_columns(data, tree, forest["dimension"])
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "model.json")
        write_with_checksum(path, payload)
        try:
            artifact = load_artifact(path)
        except ArtifactError as exc:
            assert str(exc).startswith("corrupt-artifact: ")
            return
    # an edit that keeps a tree train_forest could write still scores
    X = np.zeros((ROW_WALK_MAX_ROWS + 1, forest["dimension"]))
    assert np.all(np.isfinite(normality_scores(artifact.forest, X)))


class TestArtifact:
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

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)
        doc = json.loads(path.read_text())
        doc["payload"]["default_threshold"] = 0.25
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="corrupt-artifact"):
            load_artifact(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.json"
        save_artifact(small_artifact(), path)
        doc = json.loads(path.read_text())
        # format 1 stored fields scoring never read, format 2 a list per
        # node; retraining with the seed gives the same forest
        for version in (1, 2, 99):
            doc["format_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ArtifactError, match=f"unsupported-version:{version}"):
                load_artifact(path)

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
            (lambda p: [column.pop() for column in _tree(p)], "truncated node list"),
            (lambda p: [column.append(x) for column, x in zip(_tree(p), (-1, 1))],
             "nodes after the last leaf"),
            (lambda p: _tree(p)[0].__setitem__(0, 999), "bad node"),
            # a format-2 node, [dim, value], standing in a column
            (lambda p: _tree(p)[0].__setitem__(0, [0, 0.5]), "bad node"),
            (lambda p: _set_tree(p, [-1], [4]), "bad node"),  # 4 > psi
            (lambda p: _set_tree(p, [0, -1] * 3 + [-1], [0.5, 1] * 3 + [0]),
             "deeper than its height limit"),
            (lambda p: _tree(p).append([]), r"not \[dims, values\]"),
            (lambda p: _tree(p)[1].pop(), r"not \[dims, values\]"),
            (lambda p: p["forest"].update(trees=[]), "at least one tree"),
            (lambda p: p["forest"].update(sample_count=0), "sample_count"),
            (lambda p: p["schema"]["numeric_ranges"].pop("in_bytes"), "schema features"),
            (lambda p: p["schema"]["categories"].update(vlan=[1]), "schema features"),
            (lambda p: p.pop("model"), "KeyError: 'model'"),
            (lambda p: p.update(default_threshold=float("nan")), "non-finite threshold"),
            (lambda p: p.update(training_flow_count=float("inf")), "OverflowError"),
        ],
        ids=["truncated", "trailing-node", "split-dim-999", "node-not-a-list",
             "leaf-over-sample", "too-deep", "three-columns", "unequal-columns", "no-trees",
             "sample-count-0", "missing-numeric-range", "extra-categorical", "missing-model",
             "nan-threshold", "inf-count"],
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

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("corrupt", [False, True], ids=["loads", "corrupt"])
    def test_load_pauses_and_restores_the_collector(self, tmp_path, monkeypatch, enabled,
                                                    corrupt):
        artifact = small_artifact()
        # thousands of nodes, more than the young generation's threshold
        X = np.random.default_rng(13).uniform(size=(256, artifact.schema.dimension))
        artifact.forest = train_forest(X, n_trees=20, subsample=256, master_seed=0)
        path = tmp_path / "model.json"
        save_artifact(artifact, path)
        if corrupt:
            payload = json.loads(path.read_text())["payload"]
            _tree(payload)[0][-1] = 999
            write_with_checksum(path, payload)
        during = []
        decode = iforest._forest_from_dict
        monkeypatch.setattr(iforest, "_forest_from_dict",
                            lambda d: during.append(gc.isenabled()) or decode(d))
        collections = []

        def record(phase, info):
            collections.append(phase)

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if corrupt:
                with pytest.raises(ArtifactError, match="corrupt-artifact"):
                    load_artifact(path)
            else:
                loaded = load_artifact(path)  # kept, so its nodes stay tracked
            assert gc.isenabled() is enabled
            gc.callbacks.append(record)
            try:
                [[] for _ in range(3)]  # the caller's next allocations
            finally:
                gc.callbacks.remove(record)
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]
        assert collections == []  # no collection was left for the caller's allocations
        assert corrupt or loaded.forest.trees

    def test_threshold_selectors(self):
        artifact = small_artifact()
        assert artifact.threshold("default") == 0.0
        assert artifact.threshold("p10") == -0.03
        assert artifact.threshold(10) == -0.03
        with pytest.raises(ArtifactError):
            artifact.threshold("p20")
        with pytest.raises(ArtifactError):
            artifact.threshold("bogus")

    def test_schema_forest_dimension_must_agree(self):
        artifact = small_artifact()
        forest = train_forest(np.zeros((5, 2)) + np.arange(5)[:, None], n_trees=2)
        with pytest.raises(ArtifactError):
            ModelArtifact(model=WEBCAM, schema=artifact.schema, forest=forest)

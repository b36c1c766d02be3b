"""Pins on what a seed must keep giving: a synthetic flows.csv, one trained
forest's node table and artifact bytes, the g of a few fixed flows,
and the lines the detector writes for them. numpy's Generator may
change what choice, integers and uniform return between releases (NEP 19).
Training calls choice, and replays integers and uniform from the raw PCG64
words; the reference builder in test_iforest calls all three. So a change
to integers or uniform makes training differ from the reference trees and
is caught there and here, not silently absorbed, and a change to choice or
to the PCG64 words is caught only by these fixed values. A change that
alters a model on purpose updates these pins."""

import functools
import hashlib
import itertools
import json
import math
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

from natwatch import detect, iforest
from natwatch.cli import main
from natwatch.detect import TrainConfig, train_pipeline
from natwatch.flowdata import DeviceModelId, chronological_split
from natwatch.ingest import write_flow_csv
from natwatch.iforest import CHUNK_ROWS, FOREST_COLUMNS, _column, _forest_to_dict, \
    _forest, load_artifact, normality_scores, save_artifact
from natwatch.preprocess import transform_many
from natwatch.synth import builtin_scenario, generate_flows

# the model apart from its encoding: the node table its saved columns decode
# into, which it is scored on, arrays (dtype and bytes) and steps
TABLE_SHA256 = "ff7117851e7ecc4030d01425024f2b0ab6196bb0556e12e9cf72f6b2bfcd45da"
FOREST_SHA256 = "c9cdb35f9ccdcd7466c8b5aa5262fa6209d4111e5377c1e7034f8a459bada628"
FLOWS_CSV_SHA256 = "8cca9e6cec66b87e8135f91e7db36b67b4b1914e22a7942386034156f1fe3adc"
G_HEX = ["-0x1.31b029f316028p-4", "0x1.7b015736f3240p-8", "0x1.94c072c200cf0p-5",
         "-0x1.5b17947e36b60p-5", "0x1.02f4876c2d400p-10"]
# the audit, notify and block files of `natwatch detect` on the test split
AUDIT_SHA256 = "d874c52ec58023f02438b64ea502f3f0e01da5a9888afb346198d135bb20cdec"


def _train():
    """separable-13 at 200 flows per device (seed 1), the first IoT model
    trained at master seed 3 (psi 140), and its test split."""
    dataset = generate_flows(builtin_scenario("separable-13", flows_per_device=200, seed=1))
    model = next(lf.label for lf in dataset if isinstance(lf.label, DeviceModelId))
    artifact = train_pipeline(dataset, TrainConfig(model=model, master_seed=3))
    return model, artifact, chronological_split(dataset).test


_trained = functools.lru_cache(maxsize=1)(_train)


def _forest_sha256(forest) -> str:
    body = json.dumps(_forest_to_dict(forest), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _arrays_sha256(arrays: dict, **counts: int) -> str:
    digest = hashlib.sha256()
    for name, column in arrays.items():
        digest.update(b"%s %s %d\n" % (name.encode(), column.dtype.str.encode(), column.nbytes))
        digest.update(column.tobytes())
    for name, count in counts.items():
        digest.update(b"%s %d\n" % (name.encode(), count))
    return digest.hexdigest()


def _table_sha256(forest) -> str:
    """Of the node table that _forest decodes from the forest's saved
    columns, in the fields it was first pinned in: int32 dims and right
    children, -inf at a leaf's value, and each leaf's depth + c(size) and
    size apart, 0 at a split's."""
    saved = _forest_to_dict(forest)
    columns = tuple(_column(saved, name) for name in FOREST_COLUMNS)
    table = _forest(columns, forest.sample_count, forest.master_seed, forest.dimension)
    _, dims, values = columns
    right = table.child[0::2]
    leaves = right == np.arange(len(right))  # a leaf is its own right child
    leaf = np.where(leaves, table.value, 0.0)
    value = np.where(leaves, -math.inf, table.value)
    return _arrays_sha256({"dim": table.dim.astype(np.int32), "value": value,
                           "right": right.astype(np.int32), "leaf": leaf,
                           "size": values[dims < 0].astype(np.int64), "roots": table.roots},
                          steps=table.steps)


def test_a_seed_gives_the_pinned_forest_and_g(tmp_path):
    model, artifact, test = _trained()
    assert _table_sha256(artifact.forest) == TABLE_SHA256
    assert _forest_sha256(artifact.forest) == FOREST_SHA256
    # and once saved and loaded, which writes the columns it loaded
    save_artifact(artifact, tmp_path / "model.json")
    loaded = load_artifact(tmp_path / "model.json").forest
    assert _table_sha256(loaded) == TABLE_SHA256
    assert _forest_sha256(loaded) == FOREST_SHA256
    # the model's first 5 test flows, alone and leading a 200-row batch and
    # a batch of more than one chunk
    own = [lf.flow for lf in test if lf.label == model][:5]
    others = [lf.flow for lf in test if lf.label != model]
    for rows in (200, 2 * CHUNK_ROWS + 5):
        X = transform_many(artifact.schema, own + others[:rows - 5])
        assert len(X) == rows
        assert [float(g).hex() for g in normality_scores(artifact.forest, X)[:5]] == G_HEX
    assert [float(normality_scores(artifact.forest, X[i:i + 1])[0]).hex()
            for i in range(5)] == G_HEX


def test_training_makes_no_linked_node(monkeypatch):
    """The pinned forest grows straight into its columns: training never
    reads the linked trees view."""
    def no_view(forest):
        raise AssertionError("training read IsolationForest.trees")

    monkeypatch.setattr(iforest.IsolationForest, "trees", property(no_view))
    _model, artifact, _test = _train()
    assert _forest_sha256(artifact.forest) == FOREST_SHA256


def test_a_seed_gives_the_pinned_flows_csv(tmp_path):
    """natwatch synth's flows.csv of separable-13 at 20 flows per device."""
    out = tmp_path / "data"
    assert main(["synth", "--scenario", "separable-13", "--flows", "20", "--seed", "1",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "flows.csv").read_bytes()).hexdigest() == FLOWS_CSV_SHA256


def test_a_seed_gives_the_pinned_audit_lines(tmp_path, monkeypatch):
    """`natwatch detect --threshold p10 --policy log,notify_stub,block_stub`
    over the test split, with the clock and the timestamp fixed."""
    _model, artifact, test = _trained()
    save_artifact(artifact, tmp_path / "model.json")
    write_flow_csv(test, tmp_path / "test.csv")

    class FixedDatetime(datetime):
        @classmethod
        def now(cls, tz=None):
            return datetime(2019, 6, 1, 12, 0, tzinfo=timezone.utc)

    ticks = itertools.count()
    monkeypatch.setattr(detect, "datetime", FixedDatetime)
    monkeypatch.setattr(detect, "time", SimpleNamespace(perf_counter=lambda: next(ticks) / 8))
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("audit", "notify", "block")}
    assert main(["detect", "--artifacts", str(tmp_path / "model.json"),
                 "--input", str(tmp_path / "test.csv"), "--audit", str(paths["audit"]),
                 "--threshold", "p10", "--policy", "log,notify_stub,block_stub",
                 "--notify-out", str(paths["notify"]), "--block-out", str(paths["block"])]) == 0
    digest = hashlib.sha256()
    for name, path in paths.items():
        data = path.read_bytes()
        digest.update(b"%s %d\n" % (name.encode(), len(data)))
        digest.update(data)
    assert digest.hexdigest() == AUDIT_SHA256

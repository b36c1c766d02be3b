"""Training pipeline, percentile threshold calibration, and the local
detector runtime with its action dispatch."""

from __future__ import annotations

import json
import logging
import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as quote
from typing import Optional

import numpy as np

from natwatch.flowdata import (
    DeviceModelId,
    FlowDataset,
    FlowRecord,
    filter_model,
)
from natwatch.iforest import (
    DEFAULT_SUBSAMPLE,
    DEFAULT_TREES,
    ModelArtifact,
    normality_score,
    normality_scores,
    train_forest,
)
from natwatch.preprocess import (
    InsufficientDataError,
    fit_schema,
    flow_columns,
    transform,
    transform_many,
)

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    model: DeviceModelId
    n_trees: int = DEFAULT_TREES
    subsample: int = DEFAULT_SUBSAMPLE
    master_seed: int = 0
    calibration_percentiles: list[int] = field(default_factory=lambda: [10])

    def __post_init__(self):
        for p in self.calibration_percentiles:
            if not 0 <= p <= 30:
                raise ValueError(f"calibration percentile out of [0, 30]: {p}")


def train_pipeline(dataset: FlowDataset, cfg: TrainConfig) -> ModelArtifact:
    """Full per-model training: chronological split (the dataset's kept
    one), model filtering, schema fit, forest training, and threshold
    calibration."""
    split = dataset.split
    training = filter_model(split.training, cfg.model)
    validation = filter_model(split.validation, cfg.model)
    if len(training) == 0:
        raise InsufficientDataError(
            f"insufficient-data: no {cfg.model} flows in the training portion"
        )
    schema = fit_schema(training, cfg.model)
    X = transform_many(schema, flow_columns(training))
    forest = train_forest(X, cfg.n_trees, cfg.subsample, cfg.master_seed)
    artifact = ModelArtifact(
        model=cfg.model,
        schema=schema,
        forest=forest,
        default_threshold=0.0,
        trained_at=datetime.now(timezone.utc).isoformat(),
        training_flow_count=len(training),
    )
    if len(validation) == 0:
        log.warning("empty validation set for %s; skipping threshold calibration", cfg.model)
    else:
        for p in cfg.calibration_percentiles:
            artifact.calibrated_thresholds[p] = calibrate_threshold(artifact, validation, p)
    return artifact


def calibrate_threshold(
    artifact: ModelArtifact, validation: FlowDataset, percentile: int
) -> float:
    """Nearest-rank percentile of validation normality scores.

    Returns the k-th smallest g with k = max(1, ceil(percentile/100 * n)).
    Flows scoring at or above the returned value classify as the model.
    """
    if len(validation) == 0:
        raise InsufficientDataError("insufficient-data: empty validation set")
    if not 0 <= percentile <= 30:
        raise ValueError(f"percentile out of [0, 30]: {percentile}")
    X = transform_many(artifact.schema, flow_columns(validation))
    g = np.sort(normality_scores(artifact.forest, X))
    k = max(1, math.ceil(percentile / 100 * len(g)))
    return float(g[k - 1])


def classify(artifact: ModelArtifact, flow: FlowRecord) -> float:
    """g of one flow against one artifact, scored alone: the g the
    detector logs for it in any batch."""
    return normality_score(artifact.forest, transform(artifact.schema, flow))


# What each stub action records: the policy's path for its file, and
# the end of its line after the timestamp and the model, as JSON text.
STUB_LINES = {
    "notify_stub": (lambda policy: policy.notify_path,
                    lambda flow: ', "message": "possible vulnerable device detected"}\n'),
    "block_stub": (lambda policy: policy.block_path,
                   lambda flow: f', "flow_key": {json.dumps(list(flow.key))}}}\n'),
}


@dataclass
class ActionPolicy:
    """Ordered reactions to a positive detection.

    "log" is always applied; "notify_stub" and "block_stub" record the
    would-be side effect to JSONL files instead of performing it, so
    each needs its file path. Each action is named at most once.
    """

    on_positive: list[str] = field(default_factory=lambda: ["log"])
    notify_path: Optional[str] = None
    block_path: Optional[str] = None

    def __post_init__(self):
        for a in self.on_positive:
            if a not in ("log", *STUB_LINES):
                raise ValueError(f"unknown action: {a}")
        if len(set(self.on_positive)) != len(self.on_positive):
            raise ValueError(f"repeated action in policy: {','.join(self.on_positive)}")
        if "notify_stub" in self.on_positive and not self.notify_path:
            raise ValueError("notify_stub needs a notify path")
        if "block_stub" in self.on_positive and not self.block_path:
            raise ValueError("block_stub needs a block path")
        # log first, as it is always applied: a positive's audit line names
        # the last action applied, the last stub or else log
        self.on_positive = ["log"] + [a for a in self.on_positive if a != "log"]


class Detector:
    """Scores batches of flows against every artifact and logs each
    decision, for as long as its input lasts; the UDP sink keeps one for
    the collector's whole life.

    It resolves each artifact's threshold and opens the audit log once,
    and the stub files once, at the first positive. Two spellings of one
    file write through one handle, so their lines stay whole and in
    order. Each call flushes the files, so the lines of every call that
    returned are on disk and whole; `close` (or leaving a `with` block)
    closes them.
    """

    def __init__(self, artifacts: list[ModelArtifact], policy: ActionPolicy,
                 threshold_selector: str, audit_path: str):
        if not artifacts:
            raise ValueError("at least one artifact required")
        self.artifacts = artifacts
        self.policy = policy
        self.thresholds = [a.threshold(threshold_selector) for a in artifacts]
        # the fixed parts of each artifact's lines, as JSON text: its model,
        # and what follows g up to the wall time, for "M" and for "non-M".
        # json.dumps writes a float (np.float64 too) as float.__repr__ does.
        self._models = [json.dumps(a.model.canonical()) for a in artifacts]
        decisions = (f', "decision": "M", "action": {json.dumps(policy.on_positive[-1])}',
                     ', "decision": "non-M", "action": "log"')
        self._middles = [tuple(f', "threshold": {float.__repr__(th)}{d}, "wall_time_s": '
                              for d in decisions) for th in self.thresholds]
        self._files = ExitStack()
        self._handles = {}  # (device, inode) -> file
        self._stubs = None  # [(write, line end of flow)], opened at the first positive
        self._audit = self._writer(audit_path)

    def _writer(self, path: str):
        fh = self._files.enter_context(open(path, "a", encoding="utf-8"))
        st = os.fstat(fh.fileno())
        return self._handles.setdefault((st.st_dev, st.st_ino), fh).write

    def __call__(self, flows: list[FlowRecord]) -> tuple[int, int]:
        """Score the flows, one batch per artifact, and log each decision:
        (decisions, positives). A line's wall_time_s is its artifact's
        batch time over the batch's rows, after the batch is read into
        columns once for every artifact."""
        columns = flow_columns(flows)
        scored = []
        for artifact in self.artifacts:
            t0 = time.perf_counter()
            g = normality_scores(artifact.forest, transform_many(artifact.schema, columns))
            scored.append((g, (time.perf_counter() - t0) / max(1, len(flows))))
        return self.write(flows, scored, datetime.now(timezone.utc).isoformat())

    def write(self, flows: list[FlowRecord], scored: list, timestamp: str) -> tuple[int, int]:
        """Log each decision of `scored`, one (g, wall time) per artifact,
        in arrival order, each flow's in artifact order, every line
        stamped with `timestamp`: (decisions, positives).

        A decision is "M" iff g >= threshold. A positive writes a line to
        each stub action's file, in policy order; every decision then
        writes its line to the audit log. Each line is put together from
        JSON text: the flow's object once per flow, its addresses quoted
        and its integers written as json.dumps does, g and the wall time
        with float.__repr__, as json.dumps writes a finite float.
        """
        ts = json.dumps(timestamp)
        positives = 0
        per_artifact = []  # hits, g, line start, and what follows g for "M" and for "non-M"
        fixed = zip(self._models, self.thresholds, self._middles)
        for (model, th, (hit, miss)), (g, wall) in zip(fixed, scored):
            hits = g >= th
            positives += int(np.count_nonzero(hits))
            start = f'{{"timestamp": {ts}, "model": {model}'
            rest = f'{float.__repr__(wall)}, "flow": '
            per_artifact.append((hits.tolist(), g.tolist(), start, hit + rest, miss + rest))
        if positives and self._stubs is None:
            actions = [STUB_LINES[a] for a in self.policy.on_positive if a in STUB_LINES]
            self._stubs = [(self._writer(path_of(self.policy)), end) for path_of, end in actions]
        stubs = self._stubs if positives else ()
        audit = self._audit
        for i, flow in enumerate(flows):
            fields = (f'{{"src_ip": {quote(flow.src_ip)}, "dst_ip": {quote(flow.dst_ip)}, '
                      f'"dst_port": {int.__repr__(flow.dst_port)}, '
                      f'"protocol": {int.__repr__(flow.ip_protocol)}, '
                      f'"start_ms": {int.__repr__(flow.flow_start_ms)}}}')
            stub_ends = None
            for hits, g, start, hit, miss in per_artifact:
                if hits[i]:
                    if stub_ends is None:
                        stub_ends = [(stub, end(flow)) for stub, end in stubs]
                    for stub, end in stub_ends:
                        stub(start + end)
                    audit(f'{start}, "g": {float.__repr__(g[i])}{hit}{fields}}}\n')
                else:
                    audit(f'{start}, "g": {float.__repr__(g[i])}{miss}{fields}}}\n')
        for fh in self._handles.values():
            fh.flush()
        return len(flows) * len(per_artifact), positives

    def close(self) -> None:
        self._files.close()

    def __enter__(self) -> "Detector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_detector(
    flows: list[FlowRecord],
    artifacts: list[ModelArtifact],
    policy: ActionPolicy,
    threshold_selector: str,
    audit_path: str,
) -> tuple[int, int]:
    """Score and log the flows with a Detector that lives for this one
    call: (decisions, positives). All lines of a call carry one
    timestamp, and each file is opened once, the stub files only if some
    flow is positive and before any line is written."""
    with Detector(artifacts, policy, threshold_selector, audit_path) as detector:
        return detector(flows)

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
from typing import Optional, Union

import numpy as np

from natwatch.flowdata import (
    DeviceModelId,
    FlowDataset,
    FlowRecord,
    chronological_split,
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
from natwatch.preprocess import InsufficientDataError, fit_schema, transform, transform_many

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
    """Full per-model training: chronological split, model filtering,
    schema fit, forest training, and threshold calibration."""
    split = chronological_split(dataset)
    training = filter_model(split.training, cfg.model)
    validation = filter_model(split.validation, cfg.model)
    if len(training) == 0:
        raise InsufficientDataError(
            f"insufficient-data: no {cfg.model} flows in the training portion"
        )
    schema = fit_schema(training, cfg.model)
    X = transform_many(schema, [lf.flow for lf in training])
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
    X = transform_many(artifact.schema, [lf.flow for lf in validation])
    g = np.sort(normality_scores(artifact.forest, X))
    k = max(1, math.ceil(percentile / 100 * len(g)))
    return float(g[k - 1])


def classify(artifact: ModelArtifact, flow: FlowRecord) -> float:
    """g of one flow against one artifact, scored alone: the g the
    detector logs for it in any batch."""
    return normality_score(artifact.forest, transform(artifact.schema, flow))


# What each stub action records: the policy's path for its file, and
# what its line holds besides the timestamp and the model.
STUB_LINES = {
    "notify_stub": (lambda policy: policy.notify_path,
                    lambda flow: {"message": "possible vulnerable device detected"}),
    "block_stub": (lambda policy: policy.block_path, lambda flow: {"flow_key": list(flow.key)}),
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


def run_detector(
    flows: list[FlowRecord],
    artifacts: list[ModelArtifact],
    policy: ActionPolicy,
    threshold_selector: Union[str, int],
    audit_path: str,
) -> tuple[int, int]:
    """Score the flows against every artifact, one batch per artifact,
    and log each decision in arrival order, each flow's in artifact
    order: (decisions, positives). Nothing per decision is kept.

    A decision is "M" iff g >= threshold. A positive writes a line to
    each stub action's file, in policy order; every decision then writes
    its line to the JSONL audit log. All lines of a call carry one
    timestamp, and each file is opened once, the stub files only if some
    flow is positive. A line's wall_time_s is its artifact's batch time
    over the batch's rows.
    """
    if not artifacts:
        raise ValueError("at least one artifact required")
    scored = []
    for artifact in artifacts:
        th = artifact.threshold(threshold_selector)
        t0 = time.perf_counter()
        g = normality_scores(artifact.forest, transform_many(artifact.schema, flows))
        wall = (time.perf_counter() - t0) / max(1, len(flows))
        scored.append((artifact.model.canonical(), th, g.tolist(), wall))
    positives = sum(v >= th for _, th, g, _ in scored for v in g)
    actions = [STUB_LINES[a] for a in policy.on_positive if a in STUB_LINES] if positives else []
    timestamp = datetime.now(timezone.utc).isoformat()
    with ExitStack() as stack:
        files = {}  # (device, inode) -> write: two spellings of one file share one handle

        def writer(path: str):
            fh = stack.enter_context(open(path, "a", encoding="utf-8"))
            st = os.fstat(fh.fileno())
            return files.setdefault((st.st_dev, st.st_ino), fh.write)

        stubs = [(writer(path_of(policy)), detail) for path_of, detail in actions]
        audit = writer(audit_path)
        for i, flow in enumerate(flows):
            fields = {"src_ip": flow.src_ip, "dst_ip": flow.dst_ip, "dst_port": flow.dst_port,
                      "protocol": flow.ip_protocol, "start_ms": flow.flow_start_ms}
            for model, th, g, wall in scored:
                if g[i] >= th:
                    for stub, detail in stubs:
                        line = {"timestamp": timestamp, "model": model, **detail(flow)}
                        stub(json.dumps(line) + "\n")
                    decision, action = "M", policy.on_positive[-1]
                else:
                    decision, action = "non-M", "log"
                audit(json.dumps({"timestamp": timestamp, "model": model, "g": g[i],
                                  "threshold": th, "decision": decision, "action": action,
                                  "wall_time_s": wall, "flow": fields}) + "\n")
    return len(flows) * len(scored), positives

"""Training pipeline, percentile threshold calibration, and the local
detector runtime with its action dispatch."""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Optional, Union

import numpy as np

from natwatch.flowdata import (
    DeviceModelId,
    FlowDataset,
    FlowRecord,
    LabeledFlow,
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


@dataclass
class DetectionEvent:
    flow: FlowRecord
    model: DeviceModelId
    normality_g: float
    threshold: float
    action_taken: str = "log"
    wall_time_s: float = 0.0

    @property
    def decision(self) -> str:
        """The one decision rule: "M" iff g >= threshold, else "non-M"."""
        return "M" if self.normality_g >= self.threshold else "non-M"

    def to_dict(self) -> dict:
        return {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "model": self.model.canonical(),
            "g": self.normality_g,
            "threshold": self.threshold,
            "decision": self.decision,
            "action": self.action_taken,
            "wall_time_s": self.wall_time_s,
            "flow": {
                "src_ip": self.flow.src_ip,
                "dst_ip": self.flow.dst_ip,
                "dst_port": self.flow.dst_port,
                "protocol": self.flow.ip_protocol,
                "start_ms": self.flow.flow_start_ms,
            },
        }


def classify(
    artifact: ModelArtifact, flow: FlowRecord, threshold_selector: Union[str, int] = "default"
) -> DetectionEvent:
    """Preprocess and score one flow against one artifact."""
    th = artifact.threshold(threshold_selector)
    t0 = time.perf_counter()
    x = transform(artifact.schema, flow)
    g = normality_score(artifact.forest, x)
    wall = time.perf_counter() - t0
    return DetectionEvent(
        flow=flow, model=artifact.model, normality_g=g, threshold=th, wall_time_s=wall
    )


@dataclass
class ActionPolicy:
    """Ordered reactions to a positive detection.

    "log" is always applied; "notify_stub" and "block_stub" record the
    would-be side effect to JSONL files instead of performing it, so
    each needs its file path.
    """

    on_positive: list[str] = field(default_factory=lambda: ["log"])
    notify_path: Optional[str] = None
    block_path: Optional[str] = None

    KNOWN = ("log", "notify_stub", "block_stub")

    def __post_init__(self):
        for a in self.on_positive:
            if a not in self.KNOWN:
                raise ValueError(f"unknown action: {a}")
        if "notify_stub" in self.on_positive and not self.notify_path:
            raise ValueError("notify_stub needs a notify path")
        if "block_stub" in self.on_positive and not self.block_path:
            raise ValueError("block_stub needs a block path")
        if "log" not in self.on_positive:
            self.on_positive = ["log"] + list(self.on_positive)

    def apply(self, event: DetectionEvent) -> str:
        """Run the configured actions; returns the last action applied."""
        for action in self.on_positive:
            if action == "notify_stub":
                path, detail = self.notify_path, {"message": "possible vulnerable device detected"}
            elif action == "block_stub":
                path, detail = self.block_path, {"flow_key": list(event.flow.key)}
            else:
                continue  # "log": the audit log records every event
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(
                        {
                            "timestamp": datetime.now(timezone.utc).isoformat(),
                            "model": event.model.canonical(),
                            **detail,
                        }
                    )
                    + "\n"
                )
        return self.on_positive[-1]


def run_detector(
    flow_source: Iterable[Union[FlowRecord, LabeledFlow]],
    artifacts: list[ModelArtifact],
    policy: Optional[ActionPolicy] = None,
    threshold_selector: Union[str, int] = "default",
    audit_path: Optional[str] = None,
) -> list[DetectionEvent]:
    """Score the flows against every artifact, one batch per artifact,
    and emit events in arrival order, each flow's in artifact order.

    Positive decisions trigger the policy actions; every event is
    appended to the JSONL audit log when a path is given. An event's
    wall_time_s is its artifact's batch time over the batch's rows.
    """
    if not artifacts:
        raise ValueError("at least one artifact required")
    policy = policy or ActionPolicy()
    flows = [item.flow if isinstance(item, LabeledFlow) else item for item in flow_source]
    scored = []
    for artifact in artifacts:
        th = artifact.threshold(threshold_selector)
        t0 = time.perf_counter()
        g = normality_scores(artifact.forest, transform_many(artifact.schema, flows))
        wall = (time.perf_counter() - t0) / max(1, len(flows))
        scored.append((artifact.model, th, g.tolist(), wall))
    events: list[DetectionEvent] = []
    audit = open(audit_path, "a", encoding="utf-8") if audit_path else None
    try:
        for i, flow in enumerate(flows):
            for model, th, g, wall in scored:
                event = DetectionEvent(flow, model, g[i], th, wall_time_s=wall)
                if event.decision == "M":
                    event.action_taken = policy.apply(event)
                events.append(event)
                if audit is not None:
                    audit.write(json.dumps(event.to_dict()) + "\n")
    finally:
        if audit is not None:
            audit.close()
    return events

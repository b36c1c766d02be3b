"""Classification-performance metrics (TPR/FPR, ROC AUC, time to
detect) and report emission."""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from natwatch.flowdata import FlowDataset, flow_duration
from natwatch.iforest import ModelArtifact, normality_scores
from natwatch.preprocess import InsufficientDataError, transform_many


def rates(pairs: Iterable[tuple[bool, bool]]) -> tuple[Optional[float], Optional[float]]:
    """TPR and FPR over (hit, is_positive) pairs. A rate whose class is
    absent is returned as None, never as 0."""
    tp = fp = pos = neg = 0
    for hit, is_positive in pairs:
        if is_positive:
            pos += 1
            tp += hit
        else:
            neg += 1
            fp += hit
    return (tp / pos if pos else None), (fp / neg if neg else None)


def confusion_rates(
    scores: Sequence[tuple[float, bool]], th: float
) -> tuple[Optional[float], Optional[float]]:
    """TPR and FPR at threshold th over (g, is_positive) pairs; the
    positive decision is g >= th."""
    return rates((g >= th, is_m) for g, is_m in scores)


def roc_points(scores: Sequence[tuple[float, bool]]) -> list[tuple[float, float]]:
    """(FPR, TPR) points from sweeping the threshold over all distinct
    scores, from (0,0) to (1,1). Tied scores move together."""
    pos = sum(1 for _, m in scores if m)
    neg = len(scores) - pos
    if pos == 0 or neg == 0:
        raise InsufficientDataError("need both classes for a ROC curve")
    ordered = sorted(scores, key=lambda t: -t[0])
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(ordered):
        g = ordered[i][0]
        while i < len(ordered) and ordered[i][0] == g:
            if ordered[i][1]:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / neg, tp / pos))
    return points


def _roc(scores: Sequence[tuple[float, bool]]) -> tuple[list, Optional[float]]:
    """ROC points and the trapezoidal area under them; ([], None) when
    only one class is present."""
    try:
        points = roc_points(scores)
    except InsufficientDataError:
        return [], None
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return points, auc


def roc_auc(scores: Sequence[tuple[float, bool]]) -> Optional[float]:
    """Trapezoidal area under the ROC curve; ties between a positive
    and a negative contribute 0.5 (Mann-Whitney equivalence). None when
    only one class is present."""
    return _roc(scores)[1]


def time_to_detect(model_flows: FlowDataset, compute_s: float = 0.0) -> float:
    """Expected seconds until one of the model's flows is classified:
    mean flow inter-arrival time + mean flow duration + compute time."""
    flows = sorted((lf.flow for lf in model_flows), key=lambda f: f.flow_start_ms)
    if len(flows) < 2:
        raise InsufficientDataError("insufficient-data: need >= 2 flows to estimate IAT")
    starts = [f.flow_start_ms for f in flows]
    mean_iat_s = (starts[-1] - starts[0]) / (len(starts) - 1) / 1000.0
    mean_dur_s = sum(flow_duration(f) for f in flows) / len(flows) / 1000.0
    return mean_iat_s + mean_dur_s + compute_s


@dataclass
class ModelReport:
    model: str
    flow_count: int
    test_positive_count: int
    test_negative_count: int
    training_time_s: Optional[float]
    artifact_size_bytes: Optional[int]
    tpr_default: Optional[float]
    fpr_default: Optional[float]
    tpr_p10: Optional[float]
    fpr_p10: Optional[float]
    roc_auc: Optional[float]
    time_to_detect_s: Optional[float]
    method: str = "netflow-iforest"


def evaluate_artifact(
    artifact: ModelArtifact,
    test: FlowDataset,
    training_time_s: Optional[float] = None,
    artifact_size_bytes: Optional[int] = None,
) -> tuple[ModelReport, list[tuple[float, float]]]:
    """Score the mixed test set against one artifact and compute the
    report row plus ROC points."""
    flows = [lf.flow for lf in test]
    labels = [lf.label == artifact.model for lf in test]
    t0 = time.perf_counter()
    g = normality_scores(artifact.forest, transform_many(artifact.schema, flows))
    per_flow = (time.perf_counter() - t0) / max(1, len(flows))
    scores = list(zip(g.tolist(), labels))

    tpr_d, fpr_d = confusion_rates(scores, artifact.default_threshold)
    tpr_p = fpr_p = None
    if 10 in artifact.calibrated_thresholds:
        tpr_p, fpr_p = confusion_rates(scores, artifact.calibrated_thresholds[10])
    points, auc = _roc(scores)

    model_test = FlowDataset([lf for lf in test if lf.label == artifact.model])
    try:
        ttd = time_to_detect(model_test, per_flow)
    except InsufficientDataError:
        ttd = None

    report = ModelReport(
        model=artifact.model.canonical(),
        flow_count=len(test),
        test_positive_count=sum(labels),
        test_negative_count=len(labels) - sum(labels),
        training_time_s=training_time_s,
        artifact_size_bytes=artifact_size_bytes,
        tpr_default=tpr_d,
        fpr_default=fpr_d,
        tpr_p10=tpr_p,
        fpr_p10=fpr_p,
        roc_auc=auc,
        time_to_detect_s=ttd,
    )
    return report, points


_NUMERIC_FIELDS = [
    "training_time_s",
    "artifact_size_bytes",
    "tpr_default",
    "fpr_default",
    "tpr_p10",
    "fpr_p10",
    "roc_auc",
    "time_to_detect_s",
]

REPORT_COLUMNS = [f.name for f in fields(ModelReport)]


def _summary_rows(reports: list[ModelReport]) -> list[dict]:
    rows = []
    for stat, fn in (("mean", np.mean), ("stddev", np.std)):
        row: dict = {"model": stat, "method": ""}
        for col in _NUMERIC_FIELDS:
            values = [getattr(r, col) for r in reports if getattr(r, col) is not None]
            row[col] = float(fn(values)) if values else None
        rows.append(row)
    return rows


def write_rows(rows: list[dict], columns: list[str], out_dir: str, stem: str) -> list[str]:
    """Write rows to <stem>.csv (an absent or None value is an empty
    cell) and <stem>.json; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
    json_path = os.path.join(out_dir, f"{stem}.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
    return [csv_path, json_path]


def emit_report(
    reports: list[ModelReport],
    out_dir: str,
    roc_curves: Optional[dict[str, list[tuple[float, float]]]] = None,
) -> list[str]:
    """Write report.csv, report.json and per-model roc_<model>.csv.

    Summary mean/stddev rows are appended over the model rows.
    Returns the written paths.
    """
    rows = [asdict(r) for r in reports] + _summary_rows(reports)
    written = write_rows(rows, REPORT_COLUMNS, out_dir, "report")
    for model, points in (roc_curves or {}).items():
        roc_path = os.path.join(out_dir, f"roc_{model}.csv")
        with open(roc_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fpr", "tpr"])
            writer.writerows(points)
        written.append(roc_path)
    return written

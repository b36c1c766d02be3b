"""Classification-performance metrics (TPR/FPR, ROC AUC, time to
detect) and report emission."""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from natwatch.flowdata import FlowDataset, LabeledFlow
from natwatch.iforest import ModelArtifact, normality_scores
from natwatch.preprocess import InsufficientDataError, flow_columns, transform_many


def rates(hit, positive) -> tuple[Optional[float], Optional[float]]:
    """TPR and FPR of the decisions `hit` against the labels `positive`,
    two boolean sequences of one length. A rate whose class is absent is
    returned as None, never as 0."""
    hit, positive = np.asarray(hit, dtype=bool), np.asarray(positive, dtype=bool)
    pos = int(np.count_nonzero(positive))
    neg = len(positive) - pos
    tp = int(np.count_nonzero(hit & positive))
    fp = int(np.count_nonzero(hit)) - tp
    return (tp / pos if pos else None), (fp / neg if neg else None)


def roc(g: np.ndarray, positive: np.ndarray) -> tuple[list[tuple[float, float]], Optional[float]]:
    """(FPR, TPR) points from sweeping the threshold over the distinct
    scores g of the boolean labels `positive`, from (0,0) to (1,1), and
    the trapezoidal area under them; ([], None) when a class is absent.
    Tied scores move together, so a tie between a positive and a
    negative adds 0.5 to the area (Mann-Whitney equivalence)."""
    pos = int(np.count_nonzero(positive))
    neg = len(positive) - pos
    if pos == 0 or neg == 0:
        return [], None
    order = np.argsort(-g, kind="stable")
    ranked = g[order]
    # the last index of each run of equal scores
    ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]), len(ranked) - 1)
    tp = np.cumsum(positive[order])[ends]
    fpr = np.append(0.0, (ends + 1 - tp) / neg)
    tpr = np.append(0.0, tp / pos)
    # cumsum adds the trapezoids in point order, as a loop does; np.sum would pair them
    auc = float(np.cumsum((fpr[1:] - fpr[:-1]) * (tpr[:-1] + tpr[1:]) / 2.0)[-1])
    return list(zip(fpr.tolist(), tpr.tolist())), auc


def time_to_detect(model_flows: Iterable[LabeledFlow], compute_s: float = 0.0) -> float:
    """Expected seconds until one of the model's flows is classified:
    mean flow inter-arrival time + mean flow duration + compute time."""
    flows = [lf.flow for lf in model_flows]
    if len(flows) < 2:
        raise InsufficientDataError("insufficient-data: need >= 2 flows to estimate IAT")
    starts = list(map(attrgetter("flow_start_ms"), flows))
    mean_iat_s = (max(starts) - min(starts)) / (len(starts) - 1) / 1000.0
    # the exact integer sum of the durations, as sum(end) - sum(start)
    mean_dur_s = (sum(map(attrgetter("flow_end_ms"), flows)) - sum(starts)) / len(flows) / 1000.0
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
    report row plus ROC points. The test set's columns and label codes
    are built at its first evaluation and reused by every other; it keeps
    no per-model subset."""
    columns = flow_columns(test)
    code_of, label_codes = test.label_codes
    labels = label_codes == code_of.get(artifact.model, -1)
    t0 = time.perf_counter()
    g = normality_scores(artifact.forest, transform_many(artifact.schema, columns))
    per_flow = (time.perf_counter() - t0) / max(1, len(test))

    tpr_d, fpr_d = rates(g >= artifact.default_threshold, labels)
    tpr_p = fpr_p = None
    if 10 in artifact.calibrated_thresholds:
        tpr_p, fpr_p = rates(g >= artifact.calibrated_thresholds[10], labels)
    points, auc = roc(g, labels)

    try:
        ttd = time_to_detect([test.flows[i] for i in np.flatnonzero(labels).tolist()], per_flow)
    except InsufficientDataError:
        ttd = None

    positives = int(np.count_nonzero(labels))
    return ModelReport(
        model=artifact.model.canonical(),
        flow_count=len(test),
        test_positive_count=positives,
        test_negative_count=len(labels) - positives,
        training_time_s=training_time_s,
        artifact_size_bytes=artifact_size_bytes,
        tpr_default=tpr_d,
        fpr_default=fpr_d,
        tpr_p10=tpr_p,
        fpr_p10=fpr_p,
        roc_auc=auc,
        time_to_detect_s=ttd,
    ), points


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

import csv
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from natwatch.evaluation import (
    ModelReport,
    emit_report,
    evaluate_artifact,
    rates,
    roc,
    time_to_detect,
)
from natwatch.flowdata import NON_IOT, FlowDataset
from natwatch.preprocess import InsufficientDataError

from util import WEBCAM, dataset, make_labeled


def mann_whitney_auc(scores):
    """Reference AUC: fraction of (positive, negative) pairs ranked
    correctly, ties counting one half."""
    pos = [g for g, m in scores if m]
    neg = [g for g, m in scores if not m]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# The tuple walks rates and roc replaced, kept as their reference.


def tuple_rates(pairs):
    """TPR and FPR over (hit, is_positive) pairs; None for an absent class."""
    tp = fp = pos = neg = 0
    for hit, is_positive in pairs:
        if is_positive:
            pos += 1
            tp += hit
        else:
            neg += 1
            fp += hit
    return (tp / pos if pos else None), (fp / neg if neg else None)


def confusion_rates(scores, th):
    """TPR and FPR at threshold th over (g, is_positive) pairs."""
    return tuple_rates((g >= th, is_m) for g, is_m in scores)


def roc_points(scores):
    """(FPR, TPR) points over the distinct scores, tied scores together."""
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


def tuple_roc(scores):
    """ROC points and their trapezoidal area; ([], None) for one class."""
    try:
        points = roc_points(scores)
    except InsufficientDataError:
        return [], None
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return points, auc


def _bits(x):
    """A float's exact bits (-0.0 apart from 0.0), or None."""
    return None if x is None else float(x).hex()


def _roc_of(scores):
    g = np.array([v for v, _ in scores], dtype=float)
    return roc(g, np.array([m for _, m in scores], dtype=bool))


_SCORE = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.1 + 0.2, 0.3, float("inf"), -float("inf")]) \
    | st.floats(-1, 1)


@given(scores=st.lists(st.tuples(_SCORE, st.booleans()), max_size=60), th=_SCORE)
@example(scores=[], th=0.0)
@example(scores=[(0.5, True), (0.2, True)], th=0.3)
@example(scores=[(0.5, False)], th=0.5)
@example(scores=[(0.0, True), (-0.0, False), (-0.0, True), (0.0, False)], th=-0.0)
def test_rates_and_roc_equal_the_tuple_walk_bit_for_bit(scores, th):
    g = np.array([v for v, _ in scores], dtype=float)
    positive = np.array([m for _, m in scores], dtype=bool)
    assert [_bits(r) for r in rates(g >= th, positive)] == \
        [_bits(r) for r in confusion_rates(scores, th)]
    points, auc = roc(g, positive)
    ref_points, ref_auc = tuple_roc(scores)
    assert [tuple(map(_bits, p)) for p in points] == [tuple(map(_bits, p)) for p in ref_points]
    assert _bits(auc) == _bits(ref_auc)


class TestConfusionRates:
    G = np.array([0.3, 0.1, -0.2, 0.2, -0.4])
    POSITIVE = np.array([True, True, True, False, False])

    def test_rates_at_zero(self):
        tpr, fpr = rates(self.G >= 0.0, self.POSITIVE)
        assert tpr == pytest.approx(2 / 3)
        assert fpr == pytest.approx(1 / 2)

    def test_threshold_boundary_inclusive(self):
        tpr, _ = rates(np.array([0.1]) >= 0.1, [True])
        assert tpr == 1.0

    def test_absent_class_is_none(self):
        tpr, fpr = rates([True], [True])
        assert tpr == 1.0 and fpr is None
        tpr, fpr = rates([True], [False])
        assert tpr is None and fpr == 1.0


class TestRocCurve:
    def test_endpoints(self):
        points, _ = _roc_of([(0.5, True), (0.2, False)])
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_perfect_separation(self):
        scores = [(1.0, True), (0.9, True), (0.1, False), (0.0, False)]
        assert _roc_of(scores)[1] == 1.0

    def test_inverted(self):
        scores = [(0.0, True), (0.1, True), (0.9, False), (1.0, False)]
        assert _roc_of(scores)[1] == 0.0

    def test_all_tied_is_half(self):
        scores = [(0.5, True), (0.5, False), (0.5, True), (0.5, False)]
        assert _roc_of(scores)[1] == pytest.approx(0.5)

    def test_single_class_undefined(self):
        assert _roc_of([(0.5, True), (0.2, True)]) == ([], None)
        assert _roc_of([(0.5, True)]) == ([], None)

    def test_matches_pairwise_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            # coarse grid forces frequent ties
            g = rng.integers(0, 8, size=n) / 10.0
            labels = rng.integers(0, 2, size=n).astype(bool)
            if labels.all() or not labels.any():
                labels[0] = not labels[0]
            scores = list(zip(g.tolist(), labels.tolist()))
            assert roc(g, labels)[1] == pytest.approx(mann_whitney_auc(scores), abs=1e-9)

    def test_monotone_points(self):
        rng = np.random.default_rng(22)
        points, _ = roc(rng.uniform(size=40), rng.uniform(size=40) > 0.5)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs) and ys == sorted(ys)


class TestTimeToDetect:
    def test_mean_iat_plus_duration(self):
        flows = dataset(
            make_labeled(flow_start_ms=0, flow_end_ms=2000),
            make_labeled(flow_start_ms=10_000, flow_end_ms=14_000),
            make_labeled(flow_start_ms=20_000, flow_end_ms=23_000),
        )
        # mean IAT 10 s, mean duration 3 s, compute 0.5 s
        assert time_to_detect(flows, 0.5) == pytest.approx(13.5)

    def test_too_few_flows(self):
        with pytest.raises(InsufficientDataError):
            time_to_detect(dataset(make_labeled()))

    def test_unsorted_input_ok(self):
        flows = dataset(
            make_labeled(flow_start_ms=20_000, flow_end_ms=20_000),
            make_labeled(flow_start_ms=0, flow_end_ms=0),
        )
        assert time_to_detect(flows) == pytest.approx(20.0)

    def test_durations_past_2_53_sum_exactly(self):
        # 2^53 + 1 has no float64, so a sum of float durations loses its 1 ms
        flows = dataset(
            make_labeled(flow_start_ms=0, flow_end_ms=2**53 + 1),
            make_labeled(flow_start_ms=1000, flow_end_ms=1001),
        )
        assert time_to_detect(flows) == 1.0 + (2**53 + 2) / 2 / 1000.0
        assert time_to_detect(flows) != 1.0 + (2.0**53 + 1.0) / 2 / 1000.0


class TestEvaluateArtifact:
    def _setup(self):
        from natwatch.detect import TrainConfig, train_pipeline
        from natwatch.flowdata import chronological_split

        rng = np.random.default_rng(23)
        flows = []
        for i in range(120):
            flows.append(
                make_labeled(
                    in_bytes=int(rng.integers(700, 900)),
                    flow_start_ms=1000 * i,
                    flow_end_ms=1000 * i + 500,
                )
            )
            flows.append(
                make_labeled(
                    label=NON_IOT,
                    mac="ff:ee:dd:00:00:01",
                    in_bytes=int(rng.integers(50_000, 90_000)),
                    dst_port=443,
                    ip_protocol=6,
                    l7_proto_name="SSL",
                    flow_start_ms=1000 * i + 100,
                    flow_end_ms=1000 * i + 600,
                )
            )
        ds = FlowDataset(flows)
        artifact = train_pipeline(
            ds, TrainConfig(model=WEBCAM, n_trees=30, subsample=64, master_seed=5)
        )
        return artifact, chronological_split(ds, (0.70, 0.10, 0.20)).test

    def test_report_fields(self):
        artifact, test = self._setup()
        report, points = evaluate_artifact(artifact, test, 1.5, 4096)
        assert report.model == WEBCAM.canonical()
        assert report.flow_count == len(test)
        assert report.test_positive_count + report.test_negative_count == len(test)
        assert report.training_time_s == 1.5
        assert report.artifact_size_bytes == 4096
        assert report.method == "netflow-iforest"
        assert 0.9 <= report.roc_auc <= 1.0
        assert report.tpr_p10 is not None and report.tpr_p10 >= 0.8
        assert report.fpr_p10 is not None and report.fpr_p10 <= 0.2
        assert report.time_to_detect_s > 0
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)


class TestEmitReport:
    def _reports(self):
        return [
            ModelReport("a.b.c", 100, 20, 80, 1.0, 1000, 0.9, 0.1, 0.85, 0.05, 0.97, 12.0),
            ModelReport("d.e.f", 100, 30, 70, 3.0, 2000, 0.8, 0.2, 0.75, 0.15, 0.93, 8.0),
        ]

    def test_csv_rows_and_summary(self, tmp_path):
        emit_report(self._reports(), str(tmp_path))
        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["model"] for r in rows] == ["a.b.c", "d.e.f", "mean", "stddev"]
        assert float(rows[2]["roc_auc"]) == pytest.approx(0.95)
        assert float(rows[3]["roc_auc"]) == pytest.approx(0.02)

    def test_json_mirror(self, tmp_path):
        emit_report(self._reports(), str(tmp_path))
        rows = json.loads((tmp_path / "report.json").read_text())
        assert len(rows) == 4
        assert rows[0]["tpr_p10"] == 0.85

    def test_roc_files(self, tmp_path):
        written = emit_report(
            self._reports(), str(tmp_path), {"a.b.c": [(0.0, 0.0), (1.0, 1.0)]}
        )
        roc = tmp_path / "roc_a.b.c.csv"
        assert str(roc) in written
        with open(roc) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fpr", "tpr"]
        assert rows[1:] == [["0.0", "0.0"], ["1.0", "1.0"]]

    def test_none_fields_written_empty(self, tmp_path):
        reports = [
            ModelReport("a.b.c", 10, 10, 0, None, None, 1.0, None, None, None, None, None)
        ]
        emit_report(reports, str(tmp_path))
        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["fpr_default"] == ""
        assert rows[0]["roc_auc"] == ""

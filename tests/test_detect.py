import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch import detect
from natwatch.detect import (
    ActionPolicy,
    TrainConfig,
    calibrate_threshold,
    classify,
    run_detector,
    train_pipeline,
)
from natwatch.flowdata import NON_IOT, FlowDataset, LabeledFlow, chronological_split, filter_model
from natwatch.iforest import (
    CHUNK_ROWS,
    ModelArtifact,
    normality_score,
    normality_scores,
    train_forest,
)
from natwatch.preprocess import InsufficientDataError, fit_schema, transform, transform_many

from util import WEBCAM, make_flow, make_labeled


def webcam_dataset(n=60, seed=0):
    """One webcam with n flows plus a handful of non-IoT flows whose
    byte counts sit far outside the webcam's range."""
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n):
        flows.append(
            make_labeled(
                in_bytes=int(rng.integers(700, 900)),
                out_bytes=int(rng.integers(100, 140)),
                flow_start_ms=1000 * i,
                flow_end_ms=1000 * i + 500,
            )
        )
    for i in range(n // 4):
        flows.append(
            make_labeled(
                label=NON_IOT,
                mac="ff:ee:dd:00:00:01",
                src_ip="192.168.1.99",
                in_bytes=int(rng.integers(50_000, 90_000)),
                out_bytes=int(rng.integers(20_000, 40_000)),
                dst_port=443,
                ip_protocol=6,
                l7_proto_name="SSL",
                flow_start_ms=1000 * i + 100,
                flow_end_ms=1000 * i + 700,
            )
        )
    return FlowDataset(flows)


def trained_artifact(**cfg_overrides):
    cfg = TrainConfig(model=WEBCAM, n_trees=30, subsample=32, master_seed=5, **cfg_overrides)
    return train_pipeline(webcam_dataset(), cfg)


class TestTrainConfig:
    def test_percentile_range_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(model=WEBCAM, calibration_percentiles=[40])
        with pytest.raises(ValueError):
            TrainConfig(model=WEBCAM, calibration_percentiles=[-1])

    def test_boundaries_allowed(self):
        TrainConfig(model=WEBCAM, calibration_percentiles=[0, 30])


class TestTrainPipeline:
    def test_produces_calibrated_artifact(self):
        artifact = trained_artifact()
        assert artifact.model == WEBCAM
        assert 10 in artifact.calibrated_thresholds
        assert artifact.training_flow_count > 0
        assert artifact.trained_at != ""

    def test_trains_only_on_model_training_portion(self):
        ds = webcam_dataset()
        split = chronological_split(ds, (0.70, 0.10, 0.20))
        expected = len(filter_model(split.training, WEBCAM))
        assert trained_artifact().training_flow_count == expected

    def test_no_model_flows_raises(self):
        ds = FlowDataset(
            [make_labeled(label=NON_IOT, flow_start_ms=i, flow_end_ms=i) for i in range(20)]
        )
        with pytest.raises(InsufficientDataError):
            train_pipeline(ds, TrainConfig(model=WEBCAM))

    def test_empty_validation_skips_calibration(self, caplog):
        ds = FlowDataset(
            [
                make_labeled(
                    in_bytes=100 + i, flow_start_ms=1000 * i, flow_end_ms=1000 * i
                )
                for i in range(3)
            ]
        )
        # 3 flows split 0.70/0.10/0.20 -> boundaries 2 and 2, empty validation
        artifact = train_pipeline(ds, TrainConfig(model=WEBCAM, n_trees=5))
        assert artifact.calibrated_thresholds == {}


class TestCalibrateThreshold:
    def test_nearest_rank_examples(self, monkeypatch):
        artifact = trained_artifact()
        g = np.array([-0.05, -0.04, -0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03, 0.04])
        monkeypatch.setattr(
            "natwatch.detect.normality_scores", lambda forest, X: g.copy()
        )
        validation = FlowDataset([make_labeled() for _ in range(10)])
        # k = max(1, ceil(10/100 * 10)) = 1 -> smallest g
        assert calibrate_threshold(artifact, validation, 10) == pytest.approx(-0.05)
        # P0 -> k = max(1, 0) = 1 -> minimum
        assert calibrate_threshold(artifact, validation, 0) == pytest.approx(-0.05)
        # P30 -> k = 3 -> third smallest
        assert calibrate_threshold(artifact, validation, 30) == pytest.approx(-0.03)

    def test_large_sample_fraction_above(self):
        artifact = trained_artifact()
        rng = np.random.default_rng(13)
        validation = FlowDataset(
            [
                make_labeled(
                    in_bytes=int(rng.integers(700, 900)),
                    out_bytes=int(rng.integers(100, 140)),
                    flow_start_ms=i,
                    flow_end_ms=i + 500,
                )
                for i in range(1000)
            ]
        )
        th = calibrate_threshold(artifact, validation, 10)
        X = transform_many(artifact.schema, [lf.flow for lf in validation])
        frac = float(np.mean(normality_scores(artifact.forest, X) >= th))
        # nearest-rank keeps the k-th smallest itself above threshold
        assert 0.89 <= frac <= 0.91

    def test_monotone_in_percentile(self):
        artifact = trained_artifact()
        validation = FlowDataset(
            [
                make_labeled(in_bytes=700 + i, flow_start_ms=i, flow_end_ms=i + 500)
                for i in range(200)
            ]
        )
        ths = [calibrate_threshold(artifact, validation, p) for p in range(0, 31, 5)]
        assert ths == sorted(ths)

    def test_empty_validation_raises(self):
        with pytest.raises(InsufficientDataError):
            calibrate_threshold(trained_artifact(), FlowDataset([]), 10)

    def test_percentile_out_of_range(self):
        validation = FlowDataset([make_labeled()])
        with pytest.raises(ValueError):
            calibrate_threshold(trained_artifact(), validation, 31)


class TestClassify:
    def test_in_range_flow_positive(self):
        artifact = trained_artifact()
        event = classify(artifact, make_flow(in_bytes=800, out_bytes=120), "p10")
        assert event.decision == "M"
        assert event.normality_g >= event.threshold

    def test_far_out_flow_negative(self):
        artifact = trained_artifact()
        event = classify(
            artifact,
            make_flow(in_bytes=70_000, out_bytes=30_000, dst_port=443, ip_protocol=6,
                      l7_proto_name="SSL"),
            "p10",
        )
        assert event.decision == "non-M"

    def test_boundary_inclusive(self):
        artifact = trained_artifact()
        flow = make_flow(in_bytes=800, out_bytes=120)
        event = classify(artifact, flow)
        artifact.default_threshold = event.normality_g
        assert classify(artifact, flow).decision == "M"

    def test_wall_time_recorded(self):
        event = classify(trained_artifact(), make_flow())
        assert event.wall_time_s > 0


flows_st = st.lists(
    st.builds(
        make_flow,
        in_bytes=st.integers(0, 5000),
        out_bytes=st.integers(0, 5000),
        ip_protocol=st.sampled_from([6, 17]),
        dst_port=st.sampled_from([53, 80, 123, 443]),
        l7_proto_name=st.sampled_from(["DNS", "HTTP", "SSL"]),
        flow_end_ms=st.integers(1000, 9000),
    ),
    min_size=1,
    max_size=40,
)


@given(
    train=flows_st,
    queries=flows_st,
    n_trees=st.integers(1, 8),
    subsample=st.integers(1, 32),
    seed=st.integers(0, 2**16),
)
def test_g_is_bit_identical_through_every_scoring_call(train, queries, n_trees, subsample, seed):
    schema = fit_schema(FlowDataset([LabeledFlow(f, WEBCAM, "m") for f in train]), WEBCAM)
    forest = train_forest(transform_many(schema, train), n_trees, subsample, seed)
    artifact = ModelArtifact(model=WEBCAM, schema=schema, forest=forest)
    Q = transform_many(schema, queries)
    batch = normality_scores(forest, Q).tolist()
    # repeated up to and past one or more chunks of the walk
    for rows in (CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 1):
        again = np.arange(rows) % len(queries)
        assert normality_scores(forest, Q[again]).tolist() == [batch[i] for i in again]
    assert [normality_score(forest, transform(schema, f)) for f in queries] == batch
    assert [classify(artifact, f).normality_g for f in queries] == batch


POSITIVE_FLOW = make_flow(in_bytes=800, out_bytes=120)
NEGATIVE_FLOW = make_flow(in_bytes=70_000, out_bytes=30_000, dst_port=443, ip_protocol=6,
                          l7_proto_name="SSL")


class TestActionPolicy:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ActionPolicy(on_positive=["drop_table"])

    def test_log_always_present(self):
        policy = ActionPolicy(on_positive=["notify_stub"], notify_path="notify.jsonl")
        assert policy.on_positive[0] == "log"

    @pytest.mark.parametrize("action", ["notify_stub", "block_stub"])
    def test_stub_without_path_rejected(self, action):
        """A stub action with nowhere to record its side effect would be
        reported as taken without having happened."""
        with pytest.raises(ValueError, match=action):
            ActionPolicy(on_positive=["log", action])

    def test_notify_stub_appends_jsonl(self, tmp_path):
        path = tmp_path / "notify.jsonl"
        policy = ActionPolicy(on_positive=["notify_stub"], notify_path=str(path))
        run_detector([POSITIVE_FLOW, POSITIVE_FLOW], [trained_artifact()], policy, "p10")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["model"] == WEBCAM.canonical()

    def test_block_stub_records_flow_key(self, tmp_path):
        path = tmp_path / "block.jsonl"
        policy = ActionPolicy(on_positive=["block_stub"], block_path=str(path))
        [event] = run_detector([POSITIVE_FLOW], [trained_artifact()], policy, "p10")
        entry = json.loads(path.read_text())
        assert tuple(entry["flow_key"]) == tuple(event.flow.key)


class TestRunDetector:
    def test_events_per_flow_per_artifact(self, tmp_path):
        artifact = trained_artifact()
        flows = [make_flow(in_bytes=800), make_flow(in_bytes=70_000, dst_port=443)]
        audit = tmp_path / "audit.jsonl"
        events = run_detector(flows, [artifact], threshold_selector="p10",
                              audit_path=str(audit))
        assert len(events) == 2
        assert len(audit.read_text().splitlines()) == 2

    def test_positive_triggers_action(self, tmp_path):
        artifact = trained_artifact()
        notify = tmp_path / "n.jsonl"
        policy = ActionPolicy(on_positive=["notify_stub"], notify_path=str(notify))
        run_detector([make_flow(in_bytes=800, out_bytes=120)], [artifact], policy,
                     threshold_selector="p10")
        assert notify.exists()

    def test_accepts_labeled_flows(self):
        artifact = trained_artifact()
        events = run_detector([make_labeled()], [artifact])
        assert len(events) == 1

    def test_audit_g_is_the_batch_g(self, tmp_path):
        """The logged g is the g evaluation and calibration compute, for a
        flow scored alone and for flows scored in a batch."""
        artifact = trained_artifact()
        flows = [lf.flow for lf in webcam_dataset(n=400, seed=3)]
        audit = tmp_path / "audit.jsonl"
        run_detector(flows[:1], [artifact], threshold_selector="p10", audit_path=str(audit))
        run_detector(flows[1:], [artifact], threshold_selector="p10", audit_path=str(audit))
        lines = [json.loads(line) for line in audit.read_text().splitlines()]
        g = normality_scores(artifact.forest, transform_many(artifact.schema, flows)).tolist()
        assert [rec["g"] for rec in lines] == g
        th = artifact.threshold("p10")
        assert [rec["decision"] for rec in lines] == ["M" if v >= th else "non-M" for v in g]

    @staticmethod
    def _all_stubs(tmp_path):
        return ActionPolicy(on_positive=["log", "notify_stub", "block_stub"],
                            notify_path=str(tmp_path / "notify.jsonl"),
                            block_path=str(tmp_path / "block.jsonl"))

    def test_one_timestamp_per_call(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        events = run_detector([POSITIVE_FLOW, NEGATIVE_FLOW, POSITIVE_FLOW], [trained_artifact()],
                              self._all_stubs(tmp_path), "p10", str(audit))
        assert [e.decision for e in events] == ["M", "non-M", "M"]
        assert [e.action_taken for e in events] == ["block_stub", "log", "block_stub"]
        lines = [json.loads(line) for name in ("audit", "notify", "block")
                 for line in (tmp_path / f"{name}.jsonl").read_text().splitlines()]
        assert len(lines) == 3 + 2 + 2
        assert len({line["timestamp"] for line in lines}) == 1

    def test_no_positive_creates_no_stub_file(self, tmp_path):
        events = run_detector([NEGATIVE_FLOW], [trained_artifact()], self._all_stubs(tmp_path),
                              "p10", str(tmp_path / "audit.jsonl"))
        assert [e.decision for e in events] == ["non-M"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.jsonl"]

    def test_unopenable_stub_file_fails_before_any_line(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        policy = ActionPolicy(on_positive=["notify_stub"],
                              notify_path=str(tmp_path / "missing" / "notify.jsonl"))
        with pytest.raises(OSError):
            run_detector([NEGATIVE_FLOW, POSITIVE_FLOW], [trained_artifact()], policy, "p10",
                         str(audit))
        assert not audit.exists() or audit.read_text() == ""

    def test_each_file_is_opened_once_per_call(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(detect, "open", counting_open, raising=False)
        events = run_detector([POSITIVE_FLOW] * 3, [trained_artifact()], self._all_stubs(tmp_path),
                              "p10", str(tmp_path / "audit.jsonl"))
        assert [e.decision for e in events] == ["M"] * 3
        assert sorted(opened) == ["audit.jsonl", "block.jsonl", "notify.jsonl"]

    def test_a_file_named_twice_gets_its_lines_whole_and_in_order(self, tmp_path, monkeypatch):
        """Two spellings of one path write through one handle, so the
        notify and block lines of each positive stay whole and in turn."""
        monkeypatch.chdir(tmp_path)
        policy = ActionPolicy(on_positive=["log", "notify_stub", "block_stub"],
                              notify_path="x.jsonl", block_path="./x.jsonl")
        run_detector([POSITIVE_FLOW] * 3, [trained_artifact()], policy, "p10")
        lines = [json.loads(line) for line in (tmp_path / "x.jsonl").read_text().splitlines()]
        assert [sorted(line) for line in lines] == [
            ["message", "model", "timestamp"], ["flow_key", "model", "timestamp"]] * 3

    def test_no_artifacts_rejected(self):
        with pytest.raises(ValueError):
            run_detector([make_flow()], [])

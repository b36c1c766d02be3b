import dataclasses
import functools
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch import detect, evaluation, flowdata
from natwatch.detect import (
    ActionPolicy,
    Detector,
    TrainConfig,
    calibrate_threshold,
    classify,
    run_detector,
    train_pipeline,
)
from natwatch.evaluation import evaluate_artifact
from natwatch.flowdata import (
    NON_IOT,
    DeviceModelId,
    FlowDataset,
    LabeledFlow,
    chronological_split,
    filter_model,
)
from natwatch.iforest import (
    CHUNK_ROWS,
    ModelArtifact,
    normality_score,
    normality_scores,
    save_artifact,
    train_forest,
)
from natwatch.preprocess import InsufficientDataError, fit_schema, transform, transform_many
from natwatch.synth import builtin_scenario, generate_flows

from util import WEBCAM, make_flow, make_labeled

OTHER = DeviceModelId("plug", "TP_Link", "HS110")


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


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


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

    def test_models_of_one_dataset_train_from_one_split(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return chronological_split(*args, **kwargs)

        monkeypatch.setattr(flowdata, "chronological_split", counted)
        ds = generate_flows(builtin_scenario("separable-13", flows_per_device=40, seed=1))
        models = sorted({lf.label for lf in ds if isinstance(lf.label, DeviceModelId)},
                        key=str)[:2]
        for model in models:
            train_pipeline(ds, TrainConfig(model=model, n_trees=5, subsample=16))
        assert len(calls) == 1

    def test_one_shared_dataset_gives_the_artifacts_of_fresh_copies(self, tmp_path):
        """All 13 models of separable-13, trained from one dataset (one
        kept split), save the same bytes as each trained from a copy of
        its own."""
        shared = generate_flows(builtin_scenario("separable-13", flows_per_device=200, seed=1))
        models = sorted({lf.label for lf in shared if isinstance(lf.label, DeviceModelId)},
                        key=str)
        assert len(models) == 13

        def saved(dataset, model, name):
            artifact = train_pipeline(dataset, TrainConfig(model=model, master_seed=3))
            artifact.trained_at = "2019-06-01T12:00:00+00:00"
            save_artifact(artifact, tmp_path / name)
            return (tmp_path / name).read_bytes()

        for model in models:
            fresh = FlowDataset(list(shared.flows))
            assert saved(shared, model, "shared.json") == saved(fresh, model, "fresh.json")


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
        assert classify(artifact, make_flow(in_bytes=800, out_bytes=120)) >= \
            artifact.threshold("p10")

    def test_far_out_flow_negative(self):
        artifact = trained_artifact()
        g = classify(
            artifact,
            make_flow(in_bytes=70_000, out_bytes=30_000, dst_port=443, ip_protocol=6,
                      l7_proto_name="SSL"),
        )
        assert g < artifact.threshold("p10")

    def test_boundary_inclusive(self, tmp_path):
        """A g equal to the threshold is a positive decision."""
        artifact = trained_artifact()
        flow = make_flow(in_bytes=800, out_bytes=120)
        artifact.default_threshold = classify(artifact, flow)
        audit = tmp_path / "audit.jsonl"
        assert run_detector([flow], [artifact], ActionPolicy(), "default", str(audit)) == (1, 1)
        assert [line["decision"] for line in read_jsonl(audit)] == ["M"]

    def test_wall_time_recorded(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        run_detector([make_flow()], [trained_artifact()], ActionPolicy(), "default", str(audit))
        [line] = read_jsonl(audit)
        assert line["wall_time_s"] > 0


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
    assert [classify(artifact, f) for f in queries] == batch
    # a second artifact, with its own schema, shares the detector's columns
    other_schema = fit_schema(FlowDataset([LabeledFlow(f, OTHER, "m") for f in queries]), OTHER)
    other = ModelArtifact(model=OTHER, schema=other_schema, forest=train_forest(
        transform_many(other_schema, queries), n_trees, subsample, seed + 1))
    other_batch = normality_scores(other.forest, transform_many(other_schema, queries)).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        audit = os.path.join(tmp, "audit.jsonl")
        run_detector(queries, [artifact], ActionPolicy(), "default", audit)
        assert [line["g"] for line in read_jsonl(audit)] == batch
        shared = os.path.join(tmp, "shared.jsonl")
        run_detector(queries, [artifact, other], ActionPolicy(), "default", shared)
        assert [line["g"] for line in read_jsonl(shared)] == [
            g for pair in zip(batch, other_batch) for g in pair]
    # evaluation scores the test set's kept columns, built at its first evaluation
    test = FlowDataset([LabeledFlow(f, WEBCAM if i % 2 else NON_IOT, "m")
                        for i, f in enumerate(queries)])
    scored = []

    def spy(forest, X):
        g = normality_scores(forest, X)
        scored.append(g.tolist())
        return g

    with mock.patch.object(evaluation, "normality_scores", spy):
        evaluate_artifact(artifact, test)
        columns = test.columns
        evaluate_artifact(artifact, test)
    assert test.columns is columns and scored == [batch, batch]


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
        run_detector([POSITIVE_FLOW, POSITIVE_FLOW], [trained_artifact()], policy, "p10",
                     str(tmp_path / "audit.jsonl"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["model"] == WEBCAM.canonical()

    def test_block_stub_records_flow_key(self, tmp_path):
        path = tmp_path / "block.jsonl"
        policy = ActionPolicy(on_positive=["block_stub"], block_path=str(path))
        run_detector([POSITIVE_FLOW], [trained_artifact()], policy, "p10",
                     str(tmp_path / "audit.jsonl"))
        entry = json.loads(path.read_text())
        assert tuple(entry["flow_key"]) == tuple(POSITIVE_FLOW.key)


class TestRunDetector:
    def test_events_per_flow_per_artifact(self, tmp_path):
        artifact = trained_artifact()
        flows = [make_flow(in_bytes=800), make_flow(in_bytes=70_000, dst_port=443)]
        audit = tmp_path / "audit.jsonl"
        decisions, _ = run_detector(flows, [artifact], ActionPolicy(), "p10", str(audit))
        assert decisions == 2
        assert len(audit.read_text().splitlines()) == 2

    def test_positive_triggers_action(self, tmp_path):
        artifact = trained_artifact()
        notify = tmp_path / "n.jsonl"
        policy = ActionPolicy(on_positive=["notify_stub"], notify_path=str(notify))
        run_detector([make_flow(in_bytes=800, out_bytes=120)], [artifact], policy, "p10",
                     str(tmp_path / "audit.jsonl"))
        assert notify.exists()

    def test_audit_g_is_the_batch_g(self, tmp_path):
        """The logged g is the g evaluation and calibration compute, for a
        flow scored alone and for flows scored in a batch."""
        artifact = trained_artifact()
        flows = [lf.flow for lf in webcam_dataset(n=400, seed=3)]
        audit = tmp_path / "audit.jsonl"
        run_detector(flows[:1], [artifact], ActionPolicy(), "p10", str(audit))
        run_detector(flows[1:], [artifact], ActionPolicy(), "p10", str(audit))
        lines = read_jsonl(audit)
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
        counts = run_detector([POSITIVE_FLOW, NEGATIVE_FLOW, POSITIVE_FLOW], [trained_artifact()],
                              self._all_stubs(tmp_path), "p10", str(audit))
        assert counts == (3, 2)
        assert [line["decision"] for line in read_jsonl(audit)] == ["M", "non-M", "M"]
        assert [line["action"] for line in read_jsonl(audit)] == ["block_stub", "log", "block_stub"]
        lines = [json.loads(line) for name in ("audit", "notify", "block")
                 for line in (tmp_path / f"{name}.jsonl").read_text().splitlines()]
        assert len(lines) == 3 + 2 + 2
        assert len({line["timestamp"] for line in lines}) == 1

    def test_no_positive_creates_no_stub_file(self, tmp_path):
        counts = run_detector([NEGATIVE_FLOW], [trained_artifact()], self._all_stubs(tmp_path),
                              "p10", str(tmp_path / "audit.jsonl"))
        assert counts == (1, 0)
        assert [line["decision"] for line in read_jsonl(tmp_path / "audit.jsonl")] == ["non-M"]
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
        run_detector([POSITIVE_FLOW] * 3, [trained_artifact()], self._all_stubs(tmp_path), "p10",
                     str(tmp_path / "audit.jsonl"))
        assert sorted(opened) == ["audit.jsonl", "block.jsonl", "notify.jsonl"]
        assert [line["decision"] for line in read_jsonl(tmp_path / "audit.jsonl")] == ["M"] * 3

    def test_a_file_named_twice_gets_its_lines_whole_and_in_order(self, tmp_path, monkeypatch):
        """Two spellings of one path write through one handle, so the
        notify and block lines of each positive stay whole and in turn."""
        monkeypatch.chdir(tmp_path)
        policy = ActionPolicy(on_positive=["log", "notify_stub", "block_stub"],
                              notify_path="x.jsonl", block_path="./x.jsonl")
        run_detector([POSITIVE_FLOW] * 3, [trained_artifact()], policy, "p10", "audit.jsonl")
        lines = read_jsonl(tmp_path / "x.jsonl")
        assert [sorted(line) for line in lines] == [
            ["message", "model", "timestamp"], ["flow_key", "model", "timestamp"]] * 3

    def test_no_artifacts_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_detector([make_flow()], [], ActionPolicy(), "default", str(tmp_path / "a.jsonl"))


def reference_lines(flows, artifacts, policy, scored, timestamp, audit_path) -> list:
    """[(path, line)] in the order the detector writes them, each line the
    json.dumps of its dict literal, as the detector wrote every line
    before it built them from parts."""
    written = []
    for i, flow in enumerate(flows):
        fields = {"src_ip": flow.src_ip, "dst_ip": flow.dst_ip, "dst_port": flow.dst_port,
                  "protocol": flow.ip_protocol, "start_ms": flow.flow_start_ms}
        for artifact, (g, wall) in zip(artifacts, scored):
            model, th, v = artifact.model.canonical(), artifact.threshold("default"), g.tolist()[i]
            if v >= th:
                for action in policy.on_positive:
                    if action == "notify_stub":
                        written.append((policy.notify_path, json.dumps(
                            {"timestamp": timestamp, "model": model,
                             "message": "possible vulnerable device detected"}) + "\n"))
                    elif action == "block_stub":
                        written.append((policy.block_path, json.dumps(
                            {"timestamp": timestamp, "model": model,
                             "flow_key": list(flow.key)}) + "\n"))
                decision, action = "M", policy.on_positive[-1]
            else:
                decision, action = "non-M", "log"
            written.append((audit_path, json.dumps(
                {"timestamp": timestamp, "model": model, "g": v, "threshold": th,
                 "decision": decision, "action": action, "wall_time_s": wall,
                 "flow": fields}) + "\n"))
    return written


@functools.lru_cache(maxsize=1)
def _one_artifact():
    return trained_artifact()


MODELS = [WEBCAM, OTHER, DeviceModelId("hub", "Hue", "v2")]
# any text a record takes as an address: quotes, backslashes, control,
# non-ASCII and lone surrogate characters
address_st = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\u00e9\ud800'),
                               st.characters(exclude_categories=())), max_size=6)
record_st = st.builds(make_flow, ingress_interface=st.integers(0, 2**64 - 1), src_ip=address_st,
                      dst_ip=address_st, ip_protocol=st.integers(0, 255),
                      src_port=st.integers(0, 65535), dst_port=st.integers(0, 65535),
                      tos=st.integers(0, 255), flow_start_ms=st.integers(0, 2**64 - 1),
                      flow_end_ms=st.just(2**64 - 1))
g_st = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
                     -0.5, -0.49999999999999994, 0.49999999999999994]),
    st.floats(-0.5, 0.5, exclude_max=True))
finite_st = st.floats(allow_nan=False, allow_infinity=False)
threshold_st = st.builds(lambda v, kind: kind(v), st.one_of(g_st, finite_st),
                         st.sampled_from([float, np.float64]))
policy_st = st.lists(st.sampled_from(["log", "notify_stub", "block_stub"]), unique=True)


@given(data=st.data(), flows=st.lists(record_st, min_size=1, max_size=4),
       thresholds=st.lists(threshold_st, min_size=1, max_size=3), on_positive=policy_st,
       one_file=st.booleans())
def test_lines_built_from_parts_are_the_json_dumps_of_their_dicts(data, flows, thresholds,
                                                                  on_positive, one_file):
    """Audit, notify and block lines, byte for byte, for any flow a record
    accepts, any g in [-0.5, 0.5), any finite threshold (a float or an
    np.float64) and wall time, and every policy order; a file given for
    all three gets every line, in turn."""
    artifacts = [dataclasses.replace(_one_artifact(), model=MODELS[k], default_threshold=th)
                 for k, th in enumerate(thresholds)]
    scored = [(np.array(data.draw(st.lists(g_st, min_size=len(flows), max_size=len(flows)))),
               data.draw(finite_st)) for _ in artifacts]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "all.jsonl" if one_file else f"{name}.jsonl")
                 for name in ("audit", "notify", "block")]
        policy = ActionPolicy(on_positive=on_positive, notify_path=paths[1], block_path=paths[2])
        with Detector(artifacts, policy, "default", paths[0]) as detector:
            counts = detector.write(flows, scored, "2019-06-01T12:00:00.000001+00:00")
        written = reference_lines(flows, artifacts, policy, scored,
                                  "2019-06-01T12:00:00.000001+00:00", paths[0])
        positives = sum(int(np.count_nonzero(g >= th)) for (g, _), th in zip(scored, thresholds))
        assert counts == (len(flows) * len(artifacts), positives)
        for path in set(paths):
            expected = "".join(line for p, line in written if p == path)
            if not os.path.exists(path):
                assert expected == "" and path != paths[0]
                continue
            with open(path, "rb") as fh:
                assert fh.read() == expected.encode("utf-8")

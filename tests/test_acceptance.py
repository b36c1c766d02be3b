"""Acceptance gate: one test per release criterion, each printing a
single PASS line with its measured numbers and enforcing its runtime
budget. Tolerances are stated inline and must not be loosened without a
recorded decision."""

import os
import struct
import time

import numpy as np
import pytest

from natwatch import iforest
from natwatch.baselines import (
    evaluate_domain_baseline,
    fit_slope,
    unwrap_ipid,
)
from natwatch.detect import TrainConfig, calibrate_threshold, classify, train_pipeline
from natwatch.evaluation import evaluate_artifact, roc
from natwatch.flowdata import (
    NON_IOT,
    DeviceModelId,
    FlowDataset,
    chronological_split,
)
from natwatch.iforest import (
    IsolationForest,
    ModelArtifact,
    anomaly_scores,
    c_factor,
    normality_score,
    save_artifact,
    train_forest,
)
from natwatch.ingest import DnsEvent
from natwatch.netflow9 import TemplateCache, decode_netflow_v9
from natwatch.preprocess import fit_schema, transform_many
from natwatch.synth import (
    DnsModelSpec,
    ModelTrafficSpec,
    ScenarioSpec,
    builtin_scenario,
    generate_dns,
    generate_flows,
)

from netflow_encoder import build_datagram, encode_data_flowset, encode_template_flowset
from test_iforest import reference_forest_from_dict
from util import make_labeled


def report(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime budget exceeded: {self.elapsed:.1f}s >= {self.limit}s"
            )


def reference_path_length(node, x, depth=0):
    """Independent recursive oracle for the per-tree path length."""
    if node.split_dim < 0:
        return depth + c_factor(node.size)
    child = node.left if x[node.split_dim] < node.split_value else node.right
    return reference_path_length(child, x, depth + 1)


def test_criterion_1_isolation_forest_correctness():
    with Budget(10) as budget:
        # c(n) within 0.01 of the exact harmonic-sum oracle, n in 2..1024
        max_err = 0.0
        for n in range(2, 1025):
            harmonic = sum(1.0 / i for i in range(1, n))
            exact = 2.0 * harmonic - 2.0 * (n - 1) / n
            max_err = max(max_err, abs(c_factor(n) - exact))
        assert max_err < 0.01

        # the scoring walk's path lengths vs the recursive oracle on the saved
        # trees, decoded node by node, on tiny trees (psi <= 8, dim <= 2)
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(200):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 3))
            X = rng.uniform(size=(n, d))
            forest = train_forest(X, n_trees=4, subsample=8, master_seed=trial)
            for t, tree in enumerate(reference_forest_from_dict(iforest._forest_to_dict(forest))):
                queries = rng.uniform(-0.5, 1.5, size=(10, d))
                # the tree's row of the walk that scores every batch
                walked = iforest._forest_paths(forest, queries)[t]
                for q, walked_path in zip(queries, walked):
                    assert walked_path == pytest.approx(
                        reference_path_length(tree.root, q), abs=1e-12
                    )
                    checked += 1
    report(1, f"c_factor max error {max_err:.2e} < 0.01; "
              f"{checked} path lengths matched the oracle; {budget.elapsed:.1f}s")


def test_criterion_2_score_properties():
    with Budget(30) as budget:
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(500, 3))
            forest = train_forest(X, master_seed=seed)
            g_centroid = normality_score(forest, X.mean(axis=0))
            g_outlier = normality_score(forest, np.full(3, 12.0))
            assert g_centroid > g_outlier, f"seed {seed}"

        rng = np.random.default_rng(99)
        forest = train_forest(rng.normal(size=(500, 3)), master_seed=99)
        s = anomaly_scores(forest, rng.uniform(-10, 10, size=(10_000, 3)))
        assert np.all(s > 0.0) and np.all(s <= 1.0)
    report(2, f"g(centroid) > g(outlier) for 10 seeds; "
              f"s in ({s.min():.3f}, {s.max():.3f}] on 10,000 queries; "
              f"{budget.elapsed:.1f}s")


def test_criterion_3_calibration_property():
    with Budget(60) as budget:
        model = DeviceModelId("webcam", "Alphacam", "AC_100")
        rng = np.random.default_rng(5)

        def flow(i):
            return make_labeled(
                label=model,
                in_bytes=int(rng.integers(700, 900)),
                out_bytes=int(rng.integers(100, 140)),
                flow_start_ms=1000 * i,
                flow_end_ms=1000 * i + 500,
            )

        train = FlowDataset([flow(i) for i in range(2000)])
        artifact = train_pipeline(train, TrainConfig(model=model, master_seed=5))
        validation = FlowDataset([flow(10_000 + i) for i in range(1000)])

        th = calibrate_threshold(artifact, validation, 10)
        X = transform_many(artifact.schema, [lf.flow for lf in validation])
        from natwatch.iforest import normality_scores

        frac = float(np.mean(normality_scores(artifact.forest, X) >= th))
        assert 0.89 <= frac <= 0.91, f"fraction above P10 threshold: {frac}"

        ths = [calibrate_threshold(artifact, validation, p) for p in range(0, 31, 5)]
        assert ths == sorted(ths), "thresholds not monotone in percentile"
    report(3, f"fraction above th(P10) = {frac:.3f} in [0.89, 0.91]; "
              f"thresholds monotone over P0..P30; {budget.elapsed:.1f}s")


def test_criterion_4_auc_oracle():
    with Budget(10) as budget:
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 51))
            g = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n).astype(bool)
            if labels.all() or not labels.any():
                labels[0] = not labels[0]
            scores = list(zip(g.tolist(), labels.tolist()))
            pos = [v for v, m in scores if m]
            neg = [v for v, m in scores if not m]
            oracle = sum(
                1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
            ) / (len(pos) * len(neg))
            worst = max(worst, abs(roc(g, labels)[1] - oracle))
        assert worst < 1e-9
    report(4, f"trapezoid vs Mann-Whitney max |diff| = {worst:.2e} < 1e-9 "
              f"over 200 instances; {budget.elapsed:.1f}s")


def test_criterion_5_end_to_end_synthetic():
    with Budget(300) as budget:
        results = {}
        for name in ("separable-13", "overlap-pair"):
            scenario = builtin_scenario(name, flows_per_device=2000, seed=7)
            dataset = generate_flows(scenario)
            split = chronological_split(dataset, (0.70, 0.10, 0.20))
            models = sorted(
                {lf.label for lf in dataset if lf.label != NON_IOT},
                key=lambda m: m.canonical(),
            )
            assert len(models) == 13
            per_model = {}
            for m in models:
                artifact = train_pipeline(dataset, TrainConfig(model=m, master_seed=3))
                rep, _ = evaluate_artifact(artifact, split.test)
                per_model[m.canonical()] = rep
            results[name] = per_model

        sep = results["separable-13"]
        mean_auc = np.mean([r.roc_auc for r in sep.values()])
        mean_tpr = np.mean([r.tpr_p10 for r in sep.values()])
        mean_fpr = np.mean([r.fpr_p10 for r in sep.values()])
        assert mean_auc >= 0.95, f"mean AUC {mean_auc:.3f}"
        assert mean_tpr >= 0.85, f"mean TPR@P10 {mean_tpr:.3f}"
        assert mean_fpr <= 0.05, f"mean FPR@P10 {mean_fpr:.3f}"

        pair = ("webcam.Alphacam.AC_100", "webcam.Betacam.BC_200")
        drops = {
            m: sep[m].roc_auc - results["overlap-pair"][m].roc_auc for m in pair
        }
        for m, drop in drops.items():
            assert drop >= 0.05, f"{m} AUC drop {drop:.3f} < 0.05"
    report(5, f"separable-13 mean AUC {mean_auc:.3f} / TPR {mean_tpr:.3f} / "
              f"FPR {mean_fpr:.3f}; overlap AUC drops "
              + ", ".join(f"{m.split('.')[1]} {d:.3f}" for m, d in drops.items())
              + f"; {budget.elapsed:.0f}s")


def test_criterion_6_performance_envelope(tmp_path):
    model = DeviceModelId("webcam", "Alphacam", "AC_100")
    spec = ModelTrafficSpec(
        label=model,
        port_weights={20000: 0.6, 20001: 0.3, 20002: 0.1},
        protocol_weights={17: 0.7, 6: 0.3},
        l7_weights={"svc_a": 0.7, "svc_b": 0.3},
        in_bytes_lognorm=(6.0, 0.4),
        out_bytes_lognorm=(5.0, 0.4),
        macs=["02:00:00:00:01:00"],
    )
    dataset = generate_flows(
        ScenarioSpec(name="perf", specs=[spec], flows_per_device=50_000, seed=1)
    )
    flows = [lf.flow for lf in dataset]

    t0 = time.perf_counter()
    schema = fit_schema(dataset, model)
    X = transform_many(schema, flows)
    forest = train_forest(X, n_trees=100, subsample=256, master_seed=1)
    train_s = time.perf_counter() - t0
    assert train_s < 10.0, f"training took {train_s:.1f}s"

    artifact = ModelArtifact(model=model, schema=schema, forest=forest,
                             training_flow_count=len(flows))
    path = tmp_path / "artifact.json"
    save_artifact(artifact, path)
    size = os.path.getsize(path)
    assert size < 5 * 1024 * 1024, f"artifact {size} bytes"

    t0 = time.perf_counter()
    n_cls = 200
    for flow in flows[:n_cls]:
        classify(artifact, flow)
    per_flow_ms = (time.perf_counter() - t0) / n_cls * 1000
    assert per_flow_ms < 1.0, f"classify {per_flow_ms:.2f} ms/flow"
    report(6, f"50k-flow training {train_s:.2f}s < 10s; artifact "
              f"{size / 1e6:.2f} MB < 5 MB; classify {per_flow_ms:.3f} ms/flow < 1 ms")


NETFLOW_FIELDS = [
    (10, 4), (8, 4), (12, 4), (4, 1), (7, 2), (11, 2),
    (5, 1), (55, 1), (1, 4), (23, 4), (152, 8), (153, 8),
]


def random_record(rng):
    start = int(rng.integers(0, 2**40))
    return {
        10: int(rng.integers(0, 2**32)),
        8: f"{rng.integers(1, 255)}.{rng.integers(0, 255)}."
           f"{rng.integers(0, 255)}.{rng.integers(1, 255)}",
        12: f"{rng.integers(1, 255)}.{rng.integers(0, 255)}."
            f"{rng.integers(0, 255)}.{rng.integers(1, 255)}",
        4: int(rng.integers(0, 256)),
        7: int(rng.integers(0, 65536)),
        11: int(rng.integers(0, 65536)),
        5: int(rng.integers(0, 256)),
        55: int(rng.integers(0, 256)),
        1: int(rng.integers(0, 2**32)),
        23: int(rng.integers(0, 2**32)),
        152: start,
        153: start + int(rng.integers(0, 10_000)),
    }


def assert_record_matches(flow, record):
    assert flow.ingress_interface == record[10]
    assert flow.src_ip == record[8]
    assert flow.dst_ip == record[12]
    assert flow.ip_protocol == record[4]
    assert flow.src_port == record[7]
    assert flow.dst_port == record[11]
    assert flow.src_tos == record[5]
    assert flow.dst_tos == record[55]
    assert flow.in_bytes == record[1]
    assert flow.out_bytes == record[23]
    assert flow.flow_start_ms == record[152]
    assert flow.flow_end_ms == record[153]


def test_criterion_7_netflow_round_trip():
    with Budget(10) as budget:
        rng = np.random.default_rng(31)
        total = 0
        combo = 0
        while combo < 1000:
            template_id = int(rng.integers(256, 1000))
            fields = list(NETFLOW_FIELDS)
            rng.shuffle(fields)
            n_records = int(rng.integers(1, 5))
            records = [random_record(rng) for _ in range(n_records)]
            template = encode_template_flowset([(template_id, fields)])
            data = encode_data_flowset(template_id, fields, records)
            cache = TemplateCache()
            if combo % 2 == 0:
                decoded = decode_netflow_v9(build_datagram([template, data]), cache)
            else:
                # out-of-order: data arrives first, template later
                assert decode_netflow_v9(build_datagram([data]), cache) == []
                decoded = decode_netflow_v9(build_datagram([template]), cache)
            assert len(decoded) == n_records
            for flow, record in zip(decoded, records):
                assert_record_matches(flow, record)
                total += 1
            combo += 1
    report(7, f"1000 randomized template/record combinations round-tripped "
              f"({total} records, half with out-of-order templates); "
              f"{budget.elapsed:.1f}s")


def test_criterion_8_baselines():
    model_a = DeviceModelId("webcam", "Alphacam", "AC_100")
    model_b = DeviceModelId("socket", "Plugsmith", "PS_10")

    # Theil-Sen slope recovery within 1% under +/-2 noise and wraparound
    scenario = ScenarioSpec(
        name="b",
        specs=[],
        dns=[
            DnsModelSpec(label=model_a, slope_per_request=60.0, noise=2,
                         qnames=["a.example"], macs=["02:00:00:00:01:00"])
        ],
        dns_events_per_device=1200,  # 1200 * 60 > 65536 guarantees wraparound
        seed=3,
    )
    events = sorted(generate_dns(scenario), key=lambda e: e.timestamp_ms)
    unwrapped = unwrap_ipid(events)
    assert unwrapped[-1] > 65536, "no wraparound exercised"
    slope = fit_slope(unwrapped).slope_per_index
    rel_err = abs(slope - 60.0) / 60.0
    assert rel_err < 0.01, f"slope {slope} relative error {rel_err:.4f}"

    # domain profiles: disjoint >= 3-name profiles, 10-minute windows
    names_a = ["a1.example", "a2.example", "a3.example"]
    names_b = ["b1.example", "b2.example", "b3.example"]

    def dns(ts, q, ip, label):
        return DnsEvent(ts, ip, 0, "8.8.8.8", q, label)

    train = [dns(i, q, "10.0.0.2", model_a) for i, q in enumerate(names_a)]
    train += [dns(i, q, "10.0.0.3", model_b) for i, q in enumerate(names_b)]
    test = [
        dns(w * 600_000 + i * 1000, q, "10.1.0.2", model_a)
        for w in range(5)
        for i, q in enumerate(names_a)
    ] + [
        dns(w * 600_000 + i * 1000, q, "10.1.0.3", model_b)
        for w in range(5)
        for i, q in enumerate(names_b)
    ]
    rows = evaluate_domain_baseline(train, test, window_s=600, min_distinct=3)
    assert len(rows) == 2
    for row in rows:
        assert row["tpr"] == 1.0, row
        assert row["fpr"] == 0.0, row
    report(8, f"Theil-Sen slope error {rel_err:.4%} < 1% with noise and wraparound; "
              f"domain TPR 1.0 / FPR 0.0 on disjoint profiles")


DATASET_ENV = "NATWATCH_DATASET_CSV"


def test_criterion_9_optional_dataset_integration():
    """Non-blocking: runs only when a real labeled capture is supplied
    via the environment; compares mean TPR/FPR/AUC informationally."""
    path = os.environ.get(DATASET_ENV)
    if not path:
        pytest.skip(f"{DATASET_ENV} not set; integration comparison skipped")
    from natwatch.ingest import parse_flow_csv

    dataset, rejected = parse_flow_csv(path)
    split = chronological_split(dataset, (0.70, 0.10, 0.20))
    models = sorted(
        {lf.label for lf in dataset if isinstance(lf.label, DeviceModelId)},
        key=lambda m: m.canonical(),
    )
    reports = []
    for m in models:
        artifact = train_pipeline(dataset, TrainConfig(model=m, master_seed=0))
        rep, _ = evaluate_artifact(artifact, split.test)
        reports.append(rep)
    mean_tpr = np.mean([r.tpr_p10 for r in reports if r.tpr_p10 is not None])
    mean_fpr = np.mean([r.fpr_p10 for r in reports if r.fpr_p10 is not None])
    mean_auc = np.mean([r.roc_auc for r in reports if r.roc_auc is not None])
    # Informational: published reference 0.73 / 0.11 / 0.85 with +/-0.07,
    # environment-dependent; reported but not enforced.
    report(9, f"dataset integration: mean TPR {mean_tpr:.3f} (ref 0.73+/-0.07), "
              f"FPR {mean_fpr:.3f} (ref 0.11+/-0.07), AUC {mean_auc:.3f} "
              f"(ref 0.85+/-0.07)")

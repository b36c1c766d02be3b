import statistics
from dataclasses import replace

import pytest

from natwatch.baselines import (
    DomainProfile,
    build_domain_profiles,
    domain_detect,
    evaluate_domain_baseline,
    evaluate_ipid_baseline,
    fit_slope,
    slope_match,
    train_slope_models,
    unwrap_ipid,
)
from natwatch.flowdata import DeviceModelId
from natwatch.ingest import DnsEvent
from natwatch.preprocess import InsufficientDataError

CAM = DeviceModelId("webcam", "D_Link", "DCS_933L")
PLUG = DeviceModelId("socket", "TP_Link", "HS110")


def events_from_ids(ids, src_ip="10.0.0.2", label=None, step_ms=1000):
    return [
        DnsEvent(
            timestamp_ms=i * step_ms,
            observed_src_ip=src_ip,
            ip_id=v % 65536,
            resolver_ip="8.8.8.8",
            qname="t.example",
            label=label,
        )
        for i, v in enumerate(ids)
    ]


def slope_events(slope, n=20, base=100, src_ip="10.0.0.2", label=None, noise=None):
    ids = []
    for i in range(n):
        v = base + round(slope * i)
        if noise:
            v += noise[i % len(noise)]
        ids.append(v)
    return events_from_ids(ids, src_ip=src_ip, label=label)


class TestUnwrap:
    def test_wraparound(self):
        assert unwrap_ipid(events_from_ids([65530, 65534, 3])) == [65530, 65534, 65539]

    def test_no_wrap_unchanged(self):
        assert unwrap_ipid(events_from_ids([5, 9, 9, 20])) == [5, 9, 9, 20]

    def test_double_wrap(self):
        # second drop forces another full modulus
        assert unwrap_ipid(events_from_ids([65535, 2, 1])) == [65535, 65538, 131073]

    def test_empty(self):
        assert unwrap_ipid([]) == []


class TestFitSlope:
    def test_exact_line(self):
        sm = fit_slope(unwrap_ipid(slope_events(7)))
        assert sm.slope_per_index == pytest.approx(7.0)

    def test_robust_to_outlier(self):
        # one corrupted observation, injected post-unwrap so it stays a
        # transient spike rather than a wraparound step
        ys = [100 + 7 * i for i in range(15)]
        ys[7] += 5000
        sm = fit_slope(ys)
        ref = statistics.median(
            (ys[j] - ys[i]) / (j - i)
            for i in range(len(ys))
            for j in range(i + 1, len(ys))
        )
        assert sm.slope_per_index == pytest.approx(ref)
        assert abs(sm.slope_per_index - 7.0) < 0.5

    def test_survives_wraparound(self):
        sm = fit_slope(unwrap_ipid(slope_events(7, n=30, base=65500)))
        assert sm.slope_per_index == pytest.approx(7.0)

    def test_noise_within_one_percent(self):
        sm = fit_slope(unwrap_ipid(slope_events(9, n=100, noise=[2, -1, 0, -2, 1])))
        assert abs(sm.slope_per_index - 9.0) / 9.0 < 0.01

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_slope(unwrap_ipid(events_from_ids([1, 2])))


class TestSlopeMatch:
    def trained(self):
        return [
            fit_slope(unwrap_ipid(slope_events(7)), model=CAM),
            fit_slope(unwrap_ipid(slope_events(3)), model=PLUG),
        ]

    def test_near_slope_matches(self):
        track = unwrap_ipid(slope_events(7.1))
        assert slope_match(track, self.trained()) == CAM

    def test_far_slope_unmatched(self):
        track = unwrap_ipid(slope_events(15))
        assert slope_match(track, self.trained()) is None

    def test_exact_tie_ambiguous(self):
        # two trained models with identical slopes are indistinguishable
        trained = [
            fit_slope(unwrap_ipid(slope_events(7)), model=CAM),
            fit_slope(unwrap_ipid(slope_events(7)), model=PLUG),
        ]
        assert slope_match(unwrap_ipid(slope_events(7)), trained) is None

    def test_zero_slope_models(self):
        trained = [fit_slope(unwrap_ipid(slope_events(0)), model=CAM)]
        assert slope_match(unwrap_ipid(slope_events(0)), trained) == CAM
        assert slope_match(unwrap_ipid(slope_events(5)), trained) is None


class TestIpIdEvaluation:
    def test_clean_separation(self):
        train = slope_events(7, label=CAM, src_ip="10.0.0.2") + slope_events(
            3, label=PLUG, src_ip="10.0.0.3"
        )
        test = slope_events(7, label=CAM, src_ip="10.1.0.2", base=500) + slope_events(
            3, label=PLUG, src_ip="10.1.0.3", base=900
        )
        rows = evaluate_ipid_baseline(train, test)
        by_model = {r["model"]: r for r in rows}
        assert by_model[CAM.canonical()]["tpr"] == 1.0
        assert by_model[CAM.canonical()]["fpr"] == 0.0
        assert by_model[PLUG.canonical()]["tpr"] == 1.0
        assert all(r["method"] == "dns-ipid-slope" for r in rows)

    def test_rows_follow_first_appearance_in_unsorted_input(self):
        # each stream is time-sorted on its own; the models keep the order
        # in which they first appear, even when the input is out of time order
        later = [replace(e, timestamp_ms=e.timestamp_ms + 10**6)
                 for e in slope_events(3, label=PLUG, src_ip="10.0.0.3")]
        train = later[::-1] + slope_events(7, label=CAM)
        test = train[::-1]
        rows = evaluate_ipid_baseline(train, test)
        assert [r["model"] for r in rows] == [PLUG.canonical(), CAM.canonical()]
        assert [(r["tpr"], r["fpr"]) for r in rows] == [(1.0, 0.0), (1.0, 0.0)]

    def test_a_test_device_of_two_events_is_no_match(self):
        """Two events give no slope: the device counts against its model's
        TPR as a miss, and the baseline goes on."""
        train = slope_events(7, label=CAM)
        test = slope_events(7, label=CAM, src_ip="10.1.0.2", base=500) + slope_events(
            7, n=2, label=CAM, src_ip="10.1.0.3")
        [row] = evaluate_ipid_baseline(train, test)
        assert (row["model"], row["tpr"], row["positives"], row["negatives"]) == (
            CAM.canonical(), 0.5, 2, 0)

    def test_unlabeled_training_events_ignored(self):
        train = slope_events(7, label=CAM) + slope_events(3, label=None, src_ip="10.0.0.9")
        assert len(train_slope_models(train)) == 1


def dns(ts_ms, qname, src_ip="10.0.0.2", label=None):
    return DnsEvent(ts_ms, src_ip, 0, "8.8.8.8", qname, label)


class TestDomainProfiles:
    def test_coverage_flag(self):
        profiles = build_domain_profiles(
            {
                CAM: [dns(0, "a.example"), dns(1, "b.example"), dns(2, "c.example")],
                PLUG: [dns(0, "x.example"), dns(1, "y.example")],
            }
        )
        by_model = {p.model: p for p in profiles}
        assert by_model[CAM].covered
        assert not by_model[PLUG].covered

    def test_duplicate_names_collapse(self):
        [p] = build_domain_profiles({CAM: [dns(i, "a.example") for i in range(9)]})
        assert p.server_names == {"a.example"}


class TestDomainDetect:
    PROFILE = DomainProfile(CAM, {"a.example", "b.example", "c.example", "d.example"})

    def test_three_names_in_window_detect(self):
        events = [dns(0, "a.example"), dns(1000, "b.example"), dns(2000, "c.example")]
        [det] = domain_detect(events, [self.PROFILE])
        assert det.models == {CAM}

    def test_two_names_not_enough(self):
        events = [dns(0, "a.example"), dns(1000, "b.example"), dns(2000, "z.example")]
        [det] = domain_detect(events, [self.PROFILE])
        assert det.models == set()

    def test_tumbling_windows_aligned_to_first_event(self):
        base = 50_000
        events = [
            dns(base, "a.example"),
            dns(base + 1000, "b.example"),
            dns(base + 2000, "c.example"),
            # next window: only two profile names
            dns(base + 600_000, "a.example"),
            dns(base + 600_500, "b.example"),
        ]
        detections = domain_detect(events, [self.PROFILE])
        assert [d.window_start_ms for d in detections] == [base, base + 600_000]
        assert detections[0].models == {CAM}
        assert detections[1].models == set()

    def test_empty_events(self):
        assert domain_detect([], [self.PROFILE]) == []


class TestDomainEvaluation:
    def test_disjoint_profiles_perfect(self):
        cam_names = ["a.example", "b.example", "c.example"]
        plug_names = ["x.example", "y.example", "z.example"]
        train = [dns(i, q, label=CAM) for i, q in enumerate(cam_names)] + [
            dns(i, q, src_ip="10.0.0.3", label=PLUG) for i, q in enumerate(plug_names)
        ]
        test = [
            dns(i * 1000, q, src_ip="10.1.0.2", label=CAM)
            for i, q in enumerate(cam_names * 2)
        ] + [
            dns(i * 1000, q, src_ip="10.1.0.3", label=PLUG)
            for i, q in enumerate(plug_names * 2)
        ]
        rows = evaluate_domain_baseline(train, test)
        assert len(rows) == 2
        for r in rows:
            assert r["tpr"] == 1.0
            assert r["fpr"] == 0.0
            assert r["method"] == "dns-domain"

    def test_uncovered_profile_excluded(self):
        train = [dns(0, "a.example", label=CAM), dns(1, "b.example", label=CAM)]
        rows = evaluate_domain_baseline(train, [])
        assert rows == []

"""DNS-based deNATing baselines: IP-ID increment/slope matching and
domain-profile detection over tumbling time windows."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

from natwatch.flowdata import DeviceModelId
from natwatch.ingest import DnsEvent
from natwatch.preprocess import InsufficientDataError

IPID_MODULUS = 65536


@dataclass
class IpIdTrack:
    """One device+resolver stream's IP-ID counter, unwrapped in time
    order to a monotone sequence."""

    unwrapped_ids: list[int]


def unwrap_ipid(events: list[DnsEvent]) -> IpIdTrack:
    """Unwrap the 16-bit IP-ID counter over one device+resolver stream.

    Whenever the raw value drops below the running unwrapped value,
    multiples of 65536 are added until the sequence is non-decreasing.
    """
    unwrapped: list[int] = []
    offset = 0
    prev = None
    for e in events:
        value = e.ip_id + offset
        while prev is not None and value < prev:
            offset += IPID_MODULUS
            value += IPID_MODULUS
        unwrapped.append(value)
        prev = value
    return IpIdTrack(unwrapped_ids=unwrapped)


@dataclass
class SlopeModel:
    """Robust linear fit of unwrapped IP-ID growth for one model."""

    model: Optional[DeviceModelId]
    slope_per_index: float


def fit_slope(track: IpIdTrack, model: Optional[DeviceModelId] = None) -> SlopeModel:
    """Theil-Sen fit of unwrapped IP-ID versus request index.

    The slope is the median of all pairwise difference quotients, so a
    minority of corrupted points does not move it.
    """
    n = len(track.unwrapped_ids)
    if n < 3:
        raise InsufficientDataError("insufficient-data: need >= 3 observations")
    ys = [float(v) for v in track.unwrapped_ids]
    slopes = [(ys[j] - ys[i]) / (j - i) for i in range(n) for j in range(i + 1, n)]
    return SlopeModel(model=model, slope_per_index=statistics.median(slopes))


def slope_match(
    test_track: IpIdTrack,
    trained: list[SlopeModel],
    rel_tolerance: float = 0.2,
) -> Optional[DeviceModelId]:
    """Attribute a test track to the trained model with the closest
    per-index slope, within a relative tolerance. Ties are ambiguous
    and return None."""
    test = fit_slope(test_track)
    candidates = []
    for sm in trained:
        if sm.slope_per_index == 0:
            rel = 0.0 if test.slope_per_index == 0 else float("inf")
        else:
            rel = abs(test.slope_per_index - sm.slope_per_index) / abs(sm.slope_per_index)
        if rel <= rel_tolerance:
            candidates.append((rel, sm))
    if not candidates:
        return None
    candidates.sort(key=lambda t: t[0])
    if len(candidates) > 1 and candidates[0][0] == candidates[1][0]:
        return None  # exact tie: ambiguous
    return candidates[0][1].model


def group_events_by_label(events: list[DnsEvent]) -> dict:
    grouped: dict = {}
    for e in events:
        if e.label is None:
            continue
        grouped.setdefault(e.label, []).append(e)
    return grouped


def group_events_by_device(events: list[DnsEvent]) -> dict[str, list[DnsEvent]]:
    grouped: dict[str, list[DnsEvent]] = {}
    for e in events:
        grouped.setdefault(e.observed_src_ip, []).append(e)
    return grouped


def train_slope_models(train_events: list[DnsEvent]) -> list[SlopeModel]:
    """Fit one slope model per labeled device model in the training events."""
    models = []
    for label, events in group_events_by_label(train_events).items():
        if not isinstance(label, DeviceModelId):
            continue  # non-IoT hosts get no slope model
        events = sorted(events, key=lambda e: e.timestamp_ms)
        track = unwrap_ipid(events)
        if len(track.unwrapped_ids) >= 3:
            models.append(fit_slope(track, model=label))
    return models


def evaluate_ipid_baseline(
    train_events: list[DnsEvent],
    test_events: list[DnsEvent],
    rel_tolerance: float = 0.2,
) -> list[dict]:
    """Per-model TPR/FPR of slope matching over test devices.

    Each test device (grouped by observed source IP) is attributed to
    at most one trained model; a device counts as a true positive for
    its own model and a false positive for any other model it matched.
    """
    trained = train_slope_models(train_events)
    per_device: list[tuple[object, Optional[DeviceModelId]]] = []
    for _ip, events in group_events_by_device(test_events).items():
        events = sorted(events, key=lambda e: e.timestamp_ms)
        true_label = events[0].label
        track = unwrap_ipid(events)
        try:
            predicted = slope_match(track, trained, rel_tolerance)
        except InsufficientDataError:
            predicted = None
        per_device.append((true_label, predicted))

    rows = []
    for sm in trained:
        m = sm.model
        pos = [p for t, p in per_device if t == m]
        neg = [p for t, p in per_device if t != m]
        rows.append(
            {
                "model": m.canonical(),
                "method": "dns-ipid-slope",
                "tpr": (sum(1 for p in pos if p == m) / len(pos)) if pos else None,
                "fpr": (sum(1 for p in neg if p == m) / len(neg)) if neg else None,
                "positives": len(pos),
                "negatives": len(neg),
                "slope_per_index": sm.slope_per_index,
            }
        )
    return rows


MIN_PROFILE_SERVERS = 3


@dataclass
class DomainProfile:
    model: DeviceModelId
    server_names: set[str]

    @property
    def covered(self) -> bool:
        return len(self.server_names) >= MIN_PROFILE_SERVERS


def build_domain_profiles(
    training_events: dict[DeviceModelId, list[DnsEvent]]
) -> list[DomainProfile]:
    """Per model, the set of distinct queried server names. Profiles
    with fewer than three names are flagged not-covered."""
    return [
        DomainProfile(model=m, server_names={e.qname for e in events})
        for m, events in training_events.items()
    ]


@dataclass
class WindowDetection:
    window_start_ms: int
    models: set[DeviceModelId]


def domain_detect(
    events: list[DnsEvent],
    profiles: list[DomainProfile],
    window_s: int = 600,
    min_distinct: int = 3,
) -> list[WindowDetection]:
    """Detect models from queried server names over tumbling windows
    aligned to the first event.

    A model is reported for a window when at least min_distinct of its
    profile's names appear there; overlapping profiles may all fire for
    the same window.
    """
    if not events:
        return []
    window_ms = window_s * 1000
    t0 = events[0].timestamp_ms
    windows: dict[int, set[str]] = {}
    for e in events:
        k = (e.timestamp_ms - t0) // window_ms
        windows.setdefault(k, set()).add(e.qname)
    detections = []
    for k in sorted(windows):
        names = windows[k]
        hit = {
            p.model for p in profiles if len(names & p.server_names) >= min_distinct
        }
        detections.append(WindowDetection(window_start_ms=t0 + k * window_ms, models=hit))
    return detections


def evaluate_domain_baseline(
    train_events: list[DnsEvent],
    test_events: list[DnsEvent],
    window_s: int = 600,
    min_distinct: int = 3,
) -> list[dict]:
    """Per-model TPR/FPR of domain-profile detection over test windows.

    Only covered profiles (>= 3 server names) are evaluated. TPR for a
    model is the fraction of its own devices' windows where it is
    detected; FPR is its detection rate over other devices' windows.
    """
    profiles = [
        p
        for p in build_domain_profiles(
            {
                m: evs
                for m, evs in group_events_by_label(train_events).items()
                if isinstance(m, DeviceModelId)
            }
        )
        if p.covered
    ]
    window_results: list[tuple[object, set]] = []
    for _ip, events in group_events_by_device(test_events).items():
        events = sorted(events, key=lambda e: e.timestamp_ms)
        true_label = events[0].label
        for det in domain_detect(events, profiles, window_s, min_distinct):
            window_results.append((true_label, det.models))

    rows = []
    for p in profiles:
        m = p.model
        pos = [hit for t, hit in window_results if t == m]
        neg = [hit for t, hit in window_results if t != m]
        rows.append(
            {
                "model": m.canonical(),
                "method": "dns-domain",
                "tpr": (sum(1 for hit in pos if m in hit) / len(pos)) if pos else None,
                "fpr": (sum(1 for hit in neg if m in hit) / len(neg)) if neg else None,
                "positives": len(pos),
                "negatives": len(neg),
                "profile_size": len(p.server_names),
            }
        )
    return rows

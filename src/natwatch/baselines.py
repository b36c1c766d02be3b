"""DNS-based deNATing baselines: IP-ID increment/slope matching and
domain-profile detection over tumbling time windows."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from natwatch.evaluation import rates
from natwatch.flowdata import DeviceModelId
from natwatch.ingest import DnsEvent
from natwatch.preprocess import InsufficientDataError

IPID_MODULUS = 65536


def unwrap_ipid(events: list[DnsEvent]) -> list[int]:
    """Unwrap the 16-bit IP-ID counter over one device+resolver stream,
    in time order, to a non-decreasing sequence.

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
    return unwrapped


@dataclass
class SlopeModel:
    """Robust linear fit of unwrapped IP-ID growth for one model."""

    model: Optional[DeviceModelId]
    slope_per_index: float


def fit_slope(unwrapped_ids: list[int], model: Optional[DeviceModelId] = None) -> SlopeModel:
    """Theil-Sen fit of unwrapped IP-ID versus request index.

    The slope is the median of all pairwise difference quotients, so a
    minority of corrupted points does not move it.
    """
    n = len(unwrapped_ids)
    if n < 3:
        raise InsufficientDataError("insufficient-data: need >= 3 observations")
    ys = [float(v) for v in unwrapped_ids]
    slopes = [(ys[j] - ys[i]) / (j - i) for i in range(n) for j in range(i + 1, n)]
    return SlopeModel(model=model, slope_per_index=statistics.median(slopes))


def slope_match(
    unwrapped_ids: list[int],
    trained: list[SlopeModel],
    rel_tolerance: float = 0.2,
) -> Optional[DeviceModelId]:
    """Attribute an unwrapped test stream to the trained model with the
    closest per-index slope, within a relative tolerance. Ties are
    ambiguous and return None."""
    if not (math.isfinite(rel_tolerance) and rel_tolerance >= 0):
        raise ValueError(f"tolerance must be finite and at least 0, got {rel_tolerance}")
    test = fit_slope(unwrapped_ids)
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


def _time_ordered_groups(events: list[DnsEvent], key: Callable[[DnsEvent], Hashable]) -> dict:
    """Events grouped by key, in order of each key's first appearance,
    each group sorted by timestamp."""
    grouped: dict = {}
    for e in events:
        grouped.setdefault(key(e), []).append(e)
    return {k: sorted(evs, key=lambda e: e.timestamp_ms) for k, evs in grouped.items()}


def _baseline_row(method: str, m: DeviceModelId, outcomes: list[tuple[object, set]], **extra):
    """Model m's report row over (true label, set of detected models)
    outcomes: an outcome is a true positive for its own model and a
    false positive for any other model it detected."""
    positive = [t == m for t, _ in outcomes]
    tpr, fpr = rates([m in hit for _, hit in outcomes], positive)
    positives = sum(positive)
    return {
        "model": m.canonical(),
        "method": method,
        "tpr": tpr,
        "fpr": fpr,
        "positives": positives,
        "negatives": len(outcomes) - positives,
        **extra,
    }


def _by_model(events: list[DnsEvent]) -> dict[DeviceModelId, list[DnsEvent]]:
    """The events of labeled device models, by model; non-IoT and
    unlabeled hosts are left out."""
    groups = _time_ordered_groups(events, lambda e: e.label)
    return {m: evs for m, evs in groups.items() if isinstance(m, DeviceModelId)}


def train_slope_models(train_events: list[DnsEvent]) -> list[SlopeModel]:
    """Fit one slope model per labeled device model in the training events."""
    return [
        fit_slope(unwrap_ipid(events), model=m)
        for m, events in _by_model(train_events).items()
        if len(events) >= 3
    ]


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
    outcomes: list[tuple[object, set]] = []
    for events in _time_ordered_groups(test_events, lambda e: e.observed_src_ip).values():
        try:
            predicted = slope_match(unwrap_ipid(events), trained, rel_tolerance)
        except InsufficientDataError:
            predicted = None
        outcomes.append((events[0].label, {predicted}))
    return [
        _baseline_row("dns-ipid-slope", sm.model, outcomes, slope_per_index=sm.slope_per_index)
        for sm in trained
    ]


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
    if window_s < 1:
        raise ValueError(f"window must be at least 1 s, got {window_s}")
    if min_distinct < 1:
        raise ValueError(f"min-distinct must be at least 1, got {min_distinct}")
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
    profiles = [p for p in build_domain_profiles(_by_model(train_events)) if p.covered]
    outcomes: list[tuple[object, set]] = []
    for events in _time_ordered_groups(test_events, lambda e: e.observed_src_ip).values():
        for det in domain_detect(events, profiles, window_s, min_distinct):
            outcomes.append((events[0].label, det.models))
    return [
        _baseline_row("dns-domain", p.model, outcomes, profile_size=len(p.server_names))
        for p in profiles
    ]

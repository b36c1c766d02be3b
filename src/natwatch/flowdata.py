"""Core flow data model: device models, inventories, labeled flows,
NAT ground-truth labeling, and chronological dataset splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterator, Optional, Union

import numpy as np

# Reserved label for laptops, smartphones and other non-IoT hosts.
NON_IOT = "non-IoT"


class ConfigError(ValueError):
    """Bad configuration value (ratios, weights, etc.)."""


@dataclass(frozen=True)
class DeviceModelId:
    """A device model identified by type, make and firmware/hardware version.

    Canonical string form is "type.make.version", e.g.
    "webcam.D_Link.DCS_933L". Two models sharing type and make but
    differing in version are distinct.
    """

    type: str
    make: str
    version: str

    def __post_init__(self):
        for seg_name in ("type", "make", "version"):
            seg = getattr(self, seg_name)
            if not seg:
                raise ValueError(f"DeviceModelId.{seg_name} must be non-empty")
            if "." in seg:
                raise ValueError(f"DeviceModelId.{seg_name} may not contain '.': {seg!r}")

    def canonical(self) -> str:
        return f"{self.type}.{self.make}.{self.version}"

    @classmethod
    def parse(cls, s: str) -> "DeviceModelId":
        parts = s.split(".")
        if len(parts) != 3:
            raise ValueError(f"expected 'type.make.version', got {s!r}")
        return cls(*parts)

    def __str__(self) -> str:
        return self.canonical()


# A flow label is either a concrete model or the reserved non-IoT marker.
Label = Union[DeviceModelId, str]


def parse_label(s: str) -> Label:
    return NON_IOT if s == NON_IOT else DeviceModelId.parse(s)


def format_label(label: Label) -> str:
    return label if isinstance(label, str) else label.canonical()


@dataclass(frozen=True)
class InventoryEntry:
    mac: str
    internal_ip: str
    model: Label  # DeviceModelId or NON_IOT


@dataclass
class DeviceInventory:
    """IP/MAC/model table for the monitored internal network.

    Assumes static internal IPs: both MACs and IPs must be unique.
    """

    entries: list[InventoryEntry] = field(default_factory=list)

    def __post_init__(self):
        macs = [e.mac for e in self.entries]
        ips = [e.internal_ip for e in self.entries]
        if len(set(macs)) != len(macs):
            raise ValueError("duplicate MAC in inventory")
        if len(set(ips)) != len(ips):
            raise ValueError("duplicate internal IP in inventory")
        self._by_ip = {e.internal_ip: e for e in self.entries}

    def by_ip(self, ip: str) -> Optional[InventoryEntry]:
        return self._by_ip.get(ip)


@dataclass(frozen=True)
class FlowRecord:
    """One NetFlow aggregation between a client and a server.

    Keyed by (ingress interface, src/dst IP, protocol, src/dst port, ToS);
    carries byte counts, ToS bytes, the exporter's L7 protocol name and
    millisecond start/end timestamps.
    """

    ingress_interface: int
    src_ip: str
    dst_ip: str
    ip_protocol: int
    src_port: int
    dst_port: int
    tos: int
    in_bytes: int
    out_bytes: int
    src_tos: int
    dst_tos: int
    l7_proto_name: str
    flow_start_ms: int
    flow_end_ms: int

    def __post_init__(self):
        if not 0 <= self.ip_protocol <= 255:
            raise ValueError(f"ip_protocol out of range: {self.ip_protocol}")
        for p in (self.src_port, self.dst_port):
            if not 0 <= p <= 65535:
                raise ValueError(f"port out of range: {p}")
        for t in (self.tos, self.src_tos, self.dst_tos):
            if not 0 <= t <= 255:
                raise ValueError(f"tos out of range: {t}")
        for n in (self.ingress_interface, self.in_bytes, self.out_bytes, self.flow_start_ms,
                  self.flow_end_ms):
            if not 0 <= n < 2**64:  # RFC 3954 fields are at most 8 bytes
                raise ValueError(f"interface, byte count or timestamp out of range: {n}")
        if self.flow_end_ms < self.flow_start_ms:
            raise ValueError("flow_end_ms earlier than flow_start_ms")

    @property
    def key(self) -> tuple:
        return (
            self.ingress_interface,
            self.src_ip,
            self.dst_ip,
            self.ip_protocol,
            self.src_port,
            self.dst_port,
            self.tos,
        )


def flow_duration(flow: FlowRecord) -> int:
    """Flow duration in milliseconds (end minus start)."""
    return flow.flow_end_ms - flow.flow_start_ms


@dataclass(frozen=True)
class LabeledFlow:
    flow: FlowRecord
    label: Optional[Label]  # None = unlabeled
    source_mac: str


@dataclass
class FlowDataset:
    """Ordered collection of labeled flows.

    Nothing changes `flows` once the dataset is made, so what is derived
    from them is built at first use and kept: the label codes, the
    chronological split at the default ratios, each model's subset that
    filter_model puts in `subsets`, and the raw feature columns that
    preprocess.flow_columns puts in `columns`.
    """

    flows: list[LabeledFlow] = field(default_factory=list)
    columns: Optional[object] = field(default=None, init=False, repr=False, compare=False)
    subsets: dict[DeviceModelId, FlowDataset] = field(default_factory=dict, init=False,
                                                      repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.flows)

    @cached_property
    def label_codes(self) -> tuple[dict, np.ndarray]:
        """Each distinct label's code, in order of first appearance, and
        each flow's code, as intp."""
        labels = attrgetter("label")
        codes = {label: i for i, label in enumerate(dict.fromkeys(map(labels, self.flows)))}
        return codes, np.fromiter(map(codes.__getitem__, map(labels, self.flows)), np.intp,
                                  len(self.flows))

    @cached_property
    def split(self) -> DatasetSplit:
        """chronological_split(self) at the default ratios, so that every
        model trained from this dataset trains from one split."""
        return chronological_split(self)

    def __iter__(self) -> Iterator[LabeledFlow]:
        return iter(self.flows)


@dataclass
class DatasetSplit:
    training: FlowDataset
    validation: FlowDataset
    test: FlowDataset


@dataclass(frozen=True)
class RejectedFlow:
    flow: FlowRecord
    reason: str  # "no-match" | "ambiguous" | "unknown-device"


def label_flows(
    external: list[FlowRecord],
    internal: list[FlowRecord],
    inventory: DeviceInventory,
    router_ip: str,
) -> tuple[FlowDataset, list[RejectedFlow]]:
    """Ground-truth labeling of NATed flows.

    Each external flow (source-IP rewritten to the router's address) is
    matched with its internal twin: the unique internal flow agreeing on
    (dst_ip, protocol, src_port, dst_port) whose time interval overlaps.
    The label comes from the inventory lookup of the internal source IP.
    Unmatched or ambiguous external flows are rejected, not dropped
    silently.
    """
    candidates: dict[tuple, list[FlowRecord]] = {}
    for f in internal:
        k = (f.dst_ip, f.ip_protocol, f.src_port, f.dst_port)
        candidates.setdefault(k, []).append(f)

    labeled: list[LabeledFlow] = []
    rejected: list[RejectedFlow] = []
    for ext in external:
        if ext.src_ip != router_ip:
            raise ValueError(f"external flow src_ip {ext.src_ip} != router {router_ip}")
        k = (ext.dst_ip, ext.ip_protocol, ext.src_port, ext.dst_port)
        overlapping = [
            c
            for c in candidates.get(k, [])
            if c.flow_start_ms <= ext.flow_end_ms and ext.flow_start_ms <= c.flow_end_ms
        ]
        if not overlapping:
            rejected.append(RejectedFlow(ext, "no-match"))
        elif len(overlapping) > 1:
            rejected.append(RejectedFlow(ext, "ambiguous"))
        else:
            twin = overlapping[0]
            entry = inventory.by_ip(twin.src_ip)
            if entry is None:
                rejected.append(RejectedFlow(ext, "unknown-device"))
            else:
                labeled.append(LabeledFlow(flow=ext, label=entry.model, source_mac=entry.mac))
    return FlowDataset(labeled), rejected


def chronological_split(
    dataset: FlowDataset,
    ratios: tuple[float, float, float] = (0.70, 0.10, 0.20),
) -> DatasetSplit:
    """Partition flows chronologically per source device.

    Per MAC, flows are sorted by start time (ties: end time, then stable
    input order); the earliest floor(r1*n) go to training, the next
    floor((r1+r2)*n) - floor(r1*n) to validation and the remainder to
    test.
    """
    r1, r2, r3 = ratios
    if not all(0.0 <= r <= 1.0 for r in ratios):  # also rejects inf and nan
        raise ConfigError(f"split ratios must each be within [0, 1], got {ratios}")
    if abs((r1 + r2 + r3) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")

    by_mac: dict[str, list[LabeledFlow]] = {}
    for lf in dataset.flows:
        by_mac.setdefault(lf.source_mac, []).append(lf)

    train: list[LabeledFlow] = []
    valid: list[LabeledFlow] = []
    test: list[LabeledFlow] = []
    for mac in by_mac:
        flows = sorted(
            by_mac[mac], key=lambda lf: (lf.flow.flow_start_ms, lf.flow.flow_end_ms)
        )
        n = len(flows)
        # epsilon guards against 0.7+0.1 = 0.7999... undershooting floor
        i1 = math.floor(r1 * n + 1e-9)
        i2 = math.floor((r1 + r2) * n + 1e-9)
        train.extend(flows[:i1])
        valid.extend(flows[i1:i2])
        test.extend(flows[i2:])
    return DatasetSplit(FlowDataset(train), FlowDataset(valid), FlowDataset(test))


def filter_model(dataset: FlowDataset, m: DeviceModelId) -> FlowDataset:
    """Keep exactly the flows labeled with model m (all three segments
    match), in input order, selected by the dataset's label codes. The
    subset is kept with the dataset, so a second call returns it."""
    if m not in dataset.subsets:
        code_of, codes = dataset.label_codes
        rows = np.flatnonzero(codes == code_of.get(m, -1)).tolist()
        dataset.subsets[m] = FlowDataset([dataset.flows[i] for i in rows])
    return dataset.subsets[m]

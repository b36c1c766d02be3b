"""File ingestion: nProbe-style flow CSV exports and DNS event JSONL."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

from natwatch.flowdata import (
    DeviceInventory,
    FlowDataset,
    FlowRecord,
    Label,
    LabeledFlow,
    format_label,
    parse_label,
)

MANDATORY_COLUMNS = [
    "INPUT_INTERFACE",
    "SRC_IP",
    "DST_IP",
    "PROTOCOL",
    "L4_SRC_PORT",
    "L4_DST_PORT",
    "IN_BYTES",
    "OUT_BYTES",
    "SRC_TOS",
    "DST_TOS",
    "L7_PROTO_NAME",
    "FLOW_START_MILLISECONDS",
    "FLOW_END_MILLISECONDS",
]

_INT_COLUMNS = [
    "INPUT_INTERFACE",
    "PROTOCOL",
    "L4_SRC_PORT",
    "L4_DST_PORT",
    "IN_BYTES",
    "OUT_BYTES",
    "SRC_TOS",
    "DST_TOS",
    "FLOW_START_MILLISECONDS",
    "FLOW_END_MILLISECONDS",
]


class MissingColumnError(ValueError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing mandatory column: {column}")


@dataclass(frozen=True)
class RejectedRow:
    line_no: int  # 1-based, header = line 1
    reason: str


def parse_flow_csv(
    path, inventory: Optional[DeviceInventory] = None
) -> tuple[FlowDataset, list[RejectedRow]]:
    """Parse a flow CSV export into a FlowDataset.

    Every data row ends up either as a LabeledFlow or in the rejected
    list with its line number and a reason. Labels are taken from the
    LABEL column when present, otherwise from an inventory lookup of
    SRC_IP, otherwise left unset.
    """
    flows: list[LabeledFlow] = []
    rejected: list[RejectedRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return FlowDataset([]), []
        for col in MANDATORY_COLUMNS:
            if col not in reader.fieldnames:
                raise MissingColumnError(col)
        has_label = "LABEL" in reader.fieldnames
        has_mac = "SRC_MAC" in reader.fieldnames
        has_tos = "TOS" in reader.fieldnames
        for line_no, row in enumerate(reader, start=2):
            values: dict[str, int] = {}
            bad = None
            for col in _INT_COLUMNS:
                try:
                    values[col] = int(row[col])
                except (TypeError, ValueError):
                    bad = f"parse-error:{col}"
                    break
            if bad is not None:
                rejected.append(RejectedRow(line_no, bad))
                continue
            if values["FLOW_END_MILLISECONDS"] < values["FLOW_START_MILLISECONDS"]:
                rejected.append(RejectedRow(line_no, "negative-duration"))
                continue
            tos = values["SRC_TOS"]
            if has_tos and row["TOS"]:
                try:
                    tos = int(row["TOS"])
                except ValueError:
                    rejected.append(RejectedRow(line_no, "parse-error:TOS"))
                    continue
            try:
                flow = FlowRecord(
                    ingress_interface=values["INPUT_INTERFACE"],
                    src_ip=row["SRC_IP"],
                    dst_ip=row["DST_IP"],
                    ip_protocol=values["PROTOCOL"],
                    src_port=values["L4_SRC_PORT"],
                    dst_port=values["L4_DST_PORT"],
                    tos=tos,
                    in_bytes=values["IN_BYTES"],
                    out_bytes=values["OUT_BYTES"],
                    src_tos=values["SRC_TOS"],
                    dst_tos=values["DST_TOS"],
                    l7_proto_name=row["L7_PROTO_NAME"],
                    flow_start_ms=values["FLOW_START_MILLISECONDS"],
                    flow_end_ms=values["FLOW_END_MILLISECONDS"],
                )
            except ValueError as exc:
                rejected.append(RejectedRow(line_no, f"invalid-field:{exc}"))
                continue

            label: Optional[Label] = None
            mac = row.get("SRC_MAC", "") if has_mac else ""
            if has_label and row["LABEL"]:
                try:
                    label = parse_label(row["LABEL"])
                except ValueError:
                    rejected.append(RejectedRow(line_no, "parse-error:LABEL"))
                    continue
            elif inventory is not None:
                entry = inventory.by_ip(flow.src_ip)
                if entry is not None:
                    label = entry.model
                    if not mac:
                        mac = entry.mac
            if not mac and inventory is not None:
                entry = inventory.by_ip(flow.src_ip)
                if entry is not None:
                    mac = entry.mac
            flows.append(LabeledFlow(flow=flow, label=label, source_mac=mac or flow.src_ip))
    return FlowDataset(flows), rejected


def write_flow_csv(dataset: FlowDataset, path) -> None:
    """Write a FlowDataset in the same CSV schema parse_flow_csv reads."""
    columns = MANDATORY_COLUMNS + ["TOS", "LABEL", "SRC_MAC"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for lf in dataset.flows:
            f = lf.flow
            writer.writerow(
                [
                    f.ingress_interface,
                    f.src_ip,
                    f.dst_ip,
                    f.ip_protocol,
                    f.src_port,
                    f.dst_port,
                    f.in_bytes,
                    f.out_bytes,
                    f.src_tos,
                    f.dst_tos,
                    f.l7_proto_name,
                    f.flow_start_ms,
                    f.flow_end_ms,
                    f.tos,
                    format_label(lf.label) if lf.label is not None else "",
                    lf.source_mac,
                ]
            )


@dataclass(frozen=True)
class DnsEvent:
    """One observed DNS request (for the deNATing baselines)."""

    timestamp_ms: int
    observed_src_ip: str
    ip_id: int
    resolver_ip: str
    qname: str
    label: Optional[Label] = None

    def __post_init__(self):
        if not 0 <= self.ip_id <= 65535:
            raise ValueError(f"ip_id out of range: {self.ip_id}")
        if not self.qname:
            raise ValueError("qname must be non-empty")


def normalize_qname(qname: str) -> str:
    return qname.lower().rstrip(".")


def parse_dns_jsonl(path) -> tuple[list[DnsEvent], list[RejectedRow]]:
    """Parse DNS events from a JSONL file, one object per line.

    Expected keys: ts_ms, src_ip, ip_id, resolver_ip, qname, optional
    label. Query names are normalized to lower case without a trailing
    dot. Malformed lines and out-of-range IP-IDs are rejected with their
    line number.
    """
    events: list[DnsEvent] = []
    rejected: list[RejectedRow] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                label = parse_label(obj["label"]) if obj.get("label") else None
                event = DnsEvent(
                    timestamp_ms=int(obj["ts_ms"]),
                    observed_src_ip=str(obj["src_ip"]),
                    ip_id=int(obj["ip_id"]),
                    resolver_ip=str(obj["resolver_ip"]),
                    qname=normalize_qname(str(obj["qname"])),
                    label=label,
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                rejected.append(RejectedRow(line_no, f"malformed:{exc}"))
                continue
            events.append(event)
    return events, rejected


def write_dns_jsonl(events: list[DnsEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            obj = {
                "ts_ms": e.timestamp_ms,
                "src_ip": e.observed_src_ip,
                "ip_id": e.ip_id,
                "resolver_ip": e.resolver_ip,
                "qname": e.qname,
            }
            if e.label is not None:
                obj["label"] = format_label(e.label)
            fh.write(json.dumps(obj) + "\n")

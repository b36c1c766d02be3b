"""File ingestion: nProbe-style flow CSV exports and DNS event JSONL."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, get_type_hints

from natwatch.flowdata import (
    DeviceInventory,
    FlowDataset,
    FlowRecord,
    Label,
    LabeledFlow,
    format_label,
    parse_label,
)
from natwatch.preprocess import _exact

# The flow CSV columns in the order write_flow_csv writes them, each with
# the FlowRecord field it holds. All are mandatory but the last, TOS,
# which falls back to SRC_TOS.
FLOW_COLUMNS = (
    ("INPUT_INTERFACE", "ingress_interface"),
    ("SRC_IP", "src_ip"),
    ("DST_IP", "dst_ip"),
    ("PROTOCOL", "ip_protocol"),
    ("L4_SRC_PORT", "src_port"),
    ("L4_DST_PORT", "dst_port"),
    ("IN_BYTES", "in_bytes"),
    ("OUT_BYTES", "out_bytes"),
    ("SRC_TOS", "src_tos"),
    ("DST_TOS", "dst_tos"),
    ("L7_PROTO_NAME", "l7_proto_name"),
    ("FLOW_START_MILLISECONDS", "flow_start_ms"),
    ("FLOW_END_MILLISECONDS", "flow_end_ms"),
    ("TOS", "tos"),
)
# Optional columns after the record's: the label, which falls back to the
# inventory's model for SRC_IP, and the source MAC, which falls back to
# the inventory's MAC, then to SRC_IP.
LABEL_COLUMN, MAC_COLUMN = "LABEL", "SRC_MAC"

MANDATORY_COLUMNS = [column for column, _ in FLOW_COLUMNS[:-1]]
_TOS_COLUMN = FLOW_COLUMNS[-1][0]
_FIELD_TYPES = get_type_hints(FlowRecord)
_INT_COLUMNS = [(c, name) for c, name in FLOW_COLUMNS[:-1] if _FIELD_TYPES[name] is int]
_TEXT_COLUMNS = [(c, name) for c, name in FLOW_COLUMNS[:-1] if _FIELD_TYPES[name] is str]
_FLOW_CELLS = attrgetter(*(name for _, name in FLOW_COLUMNS))


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
    lines_read = quotes = 0  # quotes: quote characters in the lines of the row being read

    def lines(fh):
        nonlocal lines_read, quotes
        for lines_read, line in enumerate(fh, start=1):
            quotes += line.count('"')
            yield line

    with open(path, newline="", encoding="utf-8") as fh:
        source = lines(fh)
        reader = csv.reader(source)
        try:
            header = next(reader)
        except StopIteration:
            return FlowDataset([]), []
        except csv.Error as exc:
            raise ValueError(f"unreadable header: {exc}") from None
        for col in MANDATORY_COLUMNS:
            if col not in header:
                raise MissingColumnError(col)
        while True:
            line_no = lines_read + 1  # where the next row starts
            quotes = 0
            try:
                cells = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:  # a field over the size limit
                rejected.append(RejectedRow(line_no, f"csv-error:{exc}"))
                # the reader resumes on the next line: skip any rest of an open quoted field
                while quotes % 2 and next(source, None) is not None:
                    pass
                continue
            if not cells:
                continue  # a blank line
            row = dict(zip(header, cells))
            values: dict = {}
            try:
                for col, name in _INT_COLUMNS:
                    values[name] = int(row[col])
                for col, name in _TEXT_COLUMNS:
                    values[name] = row[col]
            except (KeyError, ValueError):  # a cell the row is short of, or not an integer
                rejected.append(RejectedRow(line_no, f"parse-error:{col}"))
                continue
            if values["flow_end_ms"] < values["flow_start_ms"]:
                rejected.append(RejectedRow(line_no, "negative-duration"))
                continue
            values["tos"] = values["src_tos"]
            if row.get(_TOS_COLUMN):
                try:
                    values["tos"] = int(row[_TOS_COLUMN])
                except ValueError:
                    rejected.append(RejectedRow(line_no, f"parse-error:{_TOS_COLUMN}"))
                    continue
            try:
                flow = FlowRecord(**values)
            except ValueError as exc:
                rejected.append(RejectedRow(line_no, f"invalid-field:{exc}"))
                continue

            label: Optional[Label] = None
            mac = row.get(MAC_COLUMN, "")
            entry = inventory.by_ip(flow.src_ip) if inventory is not None else None
            if row.get(LABEL_COLUMN):
                try:
                    label = parse_label(row[LABEL_COLUMN])
                except ValueError:
                    rejected.append(RejectedRow(line_no, f"parse-error:{LABEL_COLUMN}"))
                    continue
            elif entry is not None:
                label = entry.model
            if not mac and entry is not None:
                mac = entry.mac
            flows.append(LabeledFlow(flow=flow, label=label, source_mac=mac or flow.src_ip))
    return FlowDataset(flows), rejected


def write_flow_csv(dataset: FlowDataset, path) -> None:
    """Write a FlowDataset in the same CSV schema parse_flow_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([column for column, _ in FLOW_COLUMNS] + [LABEL_COLUMN, MAC_COLUMN])
        for lf in dataset.flows:
            label = format_label(lf.label) if lf.label is not None else ""
            writer.writerow(_FLOW_CELLS(lf.flow) + (label, lf.source_mac))


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


# The DNS JSONL keys in the order write_dns_jsonl writes them: (key,
# DnsEvent field, the JSON type its value must have, not coerced). An
# optional "label" key follows them.
_DNS_KEYS = (
    ("ts_ms", "timestamp_ms", int),
    ("src_ip", "observed_src_ip", str),
    ("ip_id", "ip_id", int),
    ("resolver_ip", "resolver_ip", str),
    ("qname", "qname", str),
)


def parse_dns_jsonl(path) -> tuple[list[DnsEvent], list[RejectedRow]]:
    """Parse DNS events from a JSONL file, one object per line.

    Expected keys: ts_ms, src_ip, ip_id, resolver_ip, qname, optional
    label. ts_ms and ip_id must be JSON integers and the others strings;
    nothing is coerced, and an absent label, null or "" is no label.
    Query names are normalized to lower case without a trailing dot.
    Malformed lines and out-of-range IP-IDs are rejected with their line
    number.
    """
    events: list[DnsEvent] = []
    rejected: list[RejectedRow] = []
    with open(path, "rb") as fh:  # bytes, so that a line that is not UTF-8 is one rejection
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                label = obj.get("label")
                label = None if label is None or label == "" else parse_label(
                    _exact(label, str, "label"))
                fields = {name: _exact(obj[key], kind, key) for key, name, kind in _DNS_KEYS}
                fields["qname"] = normalize_qname(fields["qname"])
                event = DnsEvent(**fields, label=label)
            # RecursionError: JSON nested deeper than the parser's stack
            except (ArithmeticError, AttributeError, LookupError, RecursionError, TypeError,
                    ValueError) as exc:
                rejected.append(RejectedRow(line_no, f"malformed:{exc}"))
                continue
            events.append(event)
    return events, rejected


def write_dns_jsonl(events: list[DnsEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            obj = {key: getattr(e, name) for key, name, _ in _DNS_KEYS}
            if e.label is not None:
                obj["label"] = format_label(e.label)
            fh.write(json.dumps(obj) + "\n")

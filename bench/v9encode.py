"""NetFlow v9 encoder for the benchmark's exporter.

Written from RFC 3954 alone, without reference to natwatch's decoder, so
that the benchmark's round-trip check compares two implementations.
Records are dicts keyed by field type number.
"""

from __future__ import annotations

import ipaddress
import struct

HEADER = struct.Struct("!HHIIII")  # version, count, sys_uptime, unix_secs, sequence, source_id
FLOWSET_HEADER = struct.Struct("!HH")  # flowset id, length in bytes including this header

TEMPLATE_FLOWSET_ID = 0
IPV4_FIELD_TYPES = frozenset({8, 12})

# The workload's template: 12 fields, 43 bytes per record. Every field
# the decoder maps onto a flow record, with absolute millisecond
# timestamps (types 152/153) so that decoding does not depend on the
# header clock.
WORKLOAD_FIELDS: tuple[tuple[int, int], ...] = (
    (8, 4),    # IPV4_SRC_ADDR
    (12, 4),   # IPV4_DST_ADDR
    (7, 2),    # L4_SRC_PORT
    (11, 2),   # L4_DST_PORT
    (4, 1),    # PROTOCOL
    (5, 1),    # SRC_TOS
    (55, 1),   # DST_TOS
    (10, 4),   # INPUT_SNMP (ingress interface)
    (1, 4),    # IN_BYTES
    (23, 4),   # OUT_BYTES
    (152, 8),  # flowStartMilliseconds
    (153, 8),  # flowEndMilliseconds
)


def record_length(fields) -> int:
    return sum(length for _type, length in fields)


def header(count: int, sys_uptime: int, unix_secs: int, sequence: int, source_id: int,
           version: int = 9) -> bytes:
    return HEADER.pack(version, count, sys_uptime, unix_secs, sequence, source_id)


def template_flowset(template_id: int, fields) -> bytes:
    body = FLOWSET_HEADER.pack(template_id, len(fields))
    body += b"".join(FLOWSET_HEADER.pack(t, n) for t, n in fields)
    return FLOWSET_HEADER.pack(TEMPLATE_FLOWSET_ID, FLOWSET_HEADER.size + len(body)) + body


def _field_bytes(field_type: int, length: int, value) -> bytes:
    if field_type in IPV4_FIELD_TYPES:
        packed = ipaddress.IPv4Address(value).packed
        if length != 4:
            raise ValueError(f"IPv4 field {field_type} needs length 4, got {length}")
        return packed
    return int(value).to_bytes(length, "big")  # OverflowError if it does not fit


def data_flowset(template_id: int, fields, records) -> bytes:
    """One data flowset, padded to a 4-byte boundary as RFC 3954 asks.

    The padding is shorter than a record, so a decoder that ignores
    trailing bytes shorter than one record sees no extra records.
    """
    body = b"".join(
        _field_bytes(t, n, rec[t]) for rec in records for t, n in fields
    )
    pad = (-(FLOWSET_HEADER.size + len(body))) % 4
    if pad >= record_length(fields):
        raise ValueError("padding would be read as a record")
    body += b"\x00" * pad
    return FLOWSET_HEADER.pack(template_id, FLOWSET_HEADER.size + len(body)) + body


def datagram(flowsets, *, count: int, sys_uptime: int, unix_secs: int, sequence: int,
             source_id: int, version: int = 9) -> bytes:
    """Header plus flowsets. `count` is the number of template and data
    records in the datagram, as RFC 3954 defines the header field."""
    return header(count, sys_uptime, unix_secs, sequence, source_id, version) + b"".join(flowsets)


def flow_fields(flow) -> dict:
    """The workload template's field values for a flow record."""
    return {
        8: flow.src_ip,
        12: flow.dst_ip,
        7: flow.src_port,
        11: flow.dst_port,
        4: flow.ip_protocol,
        5: flow.src_tos,
        55: flow.dst_tos,
        10: flow.ingress_interface,
        1: flow.in_bytes,
        23: flow.out_bytes,
        152: flow.flow_start_ms,
        153: flow.flow_end_ms,
    }


# Decoded flow attribute compared for each encoded field type.
DECODED_ATTRIBUTE = {
    8: "src_ip",
    12: "dst_ip",
    7: "src_port",
    11: "dst_port",
    4: "ip_protocol",
    5: "src_tos",
    55: "dst_tos",
    10: "ingress_interface",
    1: "in_bytes",
    23: "out_bytes",
    152: "flow_start_ms",
    153: "flow_end_ms",
}


def encoded_key(record: dict) -> tuple:
    """The encoded values in a fixed order, to compare with decoded_key."""
    return tuple(record[t] for t in DECODED_ATTRIBUTE)


def decoded_key(flow) -> tuple:
    return tuple(getattr(flow, attr) for attr in DECODED_ATTRIBUTE.values())


def round_trip_mismatches(decode, new_cache, records, template_id: int = 256,
                          source_id: int = 1) -> list[str]:
    """Encode `records` with the workload template and decode them with
    `decode(datagram, cache)`, once with the template in the same
    datagram and once with the data arriving first. Returns a list of
    mismatch descriptions, empty when every field round-trips."""
    problems = []
    tset = template_flowset(template_id, WORKLOAD_FIELDS)
    dset = data_flowset(template_id, WORKLOAD_FIELDS, records)
    want = sorted(encoded_key(r) for r in records)
    kw = dict(sys_uptime=1000, unix_secs=1_600_000_000, source_id=source_id)

    n = len(records)
    got = decode(datagram([tset, dset], count=1 + n, sequence=0, **kw), new_cache())
    if sorted(decoded_key(f) for f in got) != want:
        problems.append("template and data in one datagram")

    cache = new_cache()
    early = decode(datagram([dset], count=n, sequence=0, **kw), cache)
    late = decode(datagram([tset], count=1, sequence=1, **kw), cache)
    if early or sorted(decoded_key(f) for f in late) != want:
        problems.append("data before template")
    return problems

"""Test-only NetFlow v9 encoder, written independently of the decoder
so round-trip checks exercise a genuine second implementation."""

from __future__ import annotations

import socket
import struct

IP_FIELD_TYPES = {8, 12}


def encode_header(count: int, sys_uptime=0, unix_secs=0, sequence=0, source_id=0) -> bytes:
    return struct.pack("!HHIIII", 9, count, sys_uptime, unix_secs, sequence, source_id)


def encode_template_flowset(templates: list[tuple[int, list[tuple[int, int]]]]) -> bytes:
    body = b""
    for template_id, fields in templates:
        body += struct.pack("!HH", template_id, len(fields))
        for field_type, length in fields:
            body += struct.pack("!HH", field_type, length)
    return struct.pack("!HH", 0, 4 + len(body)) + body


def encode_value(field_type: int, value, length: int) -> bytes:
    if field_type in IP_FIELD_TYPES:
        return socket.inet_aton(value)[-length:].rjust(length, b"\x00")
    return int(value).to_bytes(length, "big")


def encode_data_flowset(
    template_id: int, fields: list[tuple[int, int]], records: list[dict]
) -> bytes:
    body = b""
    for record in records:
        for field_type, length in fields:
            body += encode_value(field_type, record[field_type], length)
    # no padding: keeps the flowset length a pure function of content
    return struct.pack("!HH", template_id, 4 + len(body)) + body


def build_datagram(
    flowsets: list[bytes], sys_uptime=0, unix_secs=0, sequence=0, source_id=0
) -> bytes:
    return (
        encode_header(len(flowsets), sys_uptime, unix_secs, sequence, source_id)
        + b"".join(flowsets)
    )


# A template of every field a flow record needs, and one record of it
FIELDS = [
    (10, 4),   # input interface
    (8, 4),    # src ip
    (12, 4),   # dst ip
    (4, 1),    # protocol
    (7, 2),    # src port
    (11, 2),   # dst port
    (5, 1),    # src tos
    (55, 1),   # dst tos
    (1, 4),    # in bytes
    (23, 4),   # out bytes
    (152, 8),  # flow start ms
    (153, 8),  # flow end ms
]

RECORD = {
    10: 1,
    8: "192.168.1.5",
    12: "8.8.8.8",
    4: 17,
    7: 40000,
    11: 53,
    5: 0,
    55: 0,
    1: 812,
    23: 120,
    152: 1000,
    153: 4000,
}


def template_then_data(template_id=300, records=None):
    records = records or [RECORD]
    return build_datagram(
        [
            encode_template_flowset([(template_id, FIELDS)]),
            encode_data_flowset(template_id, FIELDS, records),
        ]
    )


class InterruptedSocket:
    """A bound socket's stand-in for a collector: recvfrom returns each of
    datagrams in turn with its sender's address, all from one exporter
    unless `senders` gives each one's IP address, then raises
    KeyboardInterrupt, as Ctrl-C does."""

    def __init__(self, datagrams: list[bytes], senders: list[str] | None = None):
        self.received = list(zip(datagrams, senders or ["192.0.2.1"] * len(datagrams)))

    def recvfrom(self, size: int) -> tuple[bytes, tuple[str, int]]:
        if not self.received:
            raise KeyboardInterrupt
        datagram, sender = self.received.pop(0)
        return datagram, (sender, 2055)

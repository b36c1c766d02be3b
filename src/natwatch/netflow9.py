"""NetFlow v9 datagram decoding and a UDP collector.

Implements the subset of the v9 wire format needed to feed the local
detector: template flowsets, data flowsets, a per-exporter template
cache, and buffering of data that arrives before its template.
"""

from __future__ import annotations

import socket
import struct
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from natwatch.flowdata import FlowRecord

V9_HEADER = struct.Struct("!HHIIII")  # version, count, sysuptime, unix_secs, seq, source_id

# Field type numbers (RFC 3954) this decoder understands.
F_IN_BYTES = 1
F_PROTOCOL = 4
F_SRC_TOS = 5
F_L4_SRC_PORT = 7
F_IPV4_SRC_ADDR = 8
F_INPUT_INTERFACE = 10
F_L4_DST_PORT = 11
F_IPV4_DST_ADDR = 12
F_LAST_SWITCHED = 21
F_FIRST_SWITCHED = 22
F_OUT_BYTES = 23
F_DST_TOS = 55
F_FLOW_START_MS = 152
F_FLOW_END_MS = 153

_IP_FIELDS = {F_IPV4_SRC_ADDR, F_IPV4_DST_ADDR}

PENDING_LIMIT = 10_000  # buffered data flowsets, over all keys
TEMPLATE_LIMIT = 10_000  # cached templates, over all keys; oldest-registered evicted


class NetflowDecodeError(ValueError):
    """Datagram rejected; the template cache is left unchanged."""


@dataclass(frozen=True)
class TemplateField:
    field_type: int
    length: int


@dataclass(frozen=True)
class Template:
    template_id: int
    fields: tuple[TemplateField, ...]

    def __post_init__(self):
        if self.template_id < 256:
            raise ValueError(f"template_id must be >= 256, got {self.template_id}")

    @property
    def record_length(self) -> int:
        return sum(f.length for f in self.fields)


@dataclass
class _PendingData:
    payload: bytes
    sys_uptime: int
    unix_secs: int


@dataclass
class TemplateCache:
    """Templates keyed by (source_id, template_id), in registration
    order (at most TEMPLATE_LIMIT, oldest-registered evicted), plus data
    flowsets buffered while their template is unknown (at most
    PENDING_LIMIT, oldest dropped)."""

    templates: OrderedDict[tuple[int, int], Template] = field(default_factory=OrderedDict)
    pending: OrderedDict[tuple[int, int], deque] = field(default_factory=OrderedDict)
    _pending_count: int = 0

    def buffer(self, key: tuple[int, int], item: _PendingData) -> None:
        q = self.pending.setdefault(key, deque())
        q.append(item)
        self._pending_count += 1
        while self._pending_count > PENDING_LIMIT:
            self._drop_oldest()

    def _drop_oldest(self) -> None:
        # no queue is kept empty, so the first key's head goes; an
        # OrderedDict reaches its first key without scanning deleted slots
        key, q = next(iter(self.pending.items()))
        q.popleft()
        self._pending_count -= 1
        if not q:
            del self.pending[key]

    def take_pending(self, key: tuple[int, int]) -> list[_PendingData]:
        q = self.pending.pop(key, None)
        if q is None:
            return []
        self._pending_count -= len(q)
        return list(q)


def _field_value(data: bytes, is_ip: bool):
    if is_ip:
        return socket.inet_ntoa(data[-4:].rjust(4, b"\x00"))
    return int.from_bytes(data, "big")


def _decode_records(
    template: Template, payload: bytes, sys_uptime: int, unix_secs: int
) -> list[FlowRecord]:
    rec_len = template.record_length
    if rec_len == 0:
        return []
    records: list[FlowRecord] = []
    n = len(payload) // rec_len  # trailing padding ignored
    for i in range(n):
        chunk = payload[i * rec_len : (i + 1) * rec_len]
        values: dict[int, object] = {}
        off = 0
        for f in template.fields:
            values[f.field_type] = _field_value(
                chunk[off : off + f.length], f.field_type in _IP_FIELDS
            )
            off += f.length
        start_ms = values.get(F_FLOW_START_MS)
        end_ms = values.get(F_FLOW_END_MS)
        if start_ms is None and F_FIRST_SWITCHED in values:
            start_ms = unix_secs * 1000 - sys_uptime + values[F_FIRST_SWITCHED]
        if end_ms is None and F_LAST_SWITCHED in values:
            end_ms = unix_secs * 1000 - sys_uptime + values[F_LAST_SWITCHED]
        src_tos = int(values.get(F_SRC_TOS, 0))
        try:
            records.append(
                FlowRecord(
                    ingress_interface=int(values.get(F_INPUT_INTERFACE, 0)),
                    src_ip=values.get(F_IPV4_SRC_ADDR, "0.0.0.0"),
                    dst_ip=values.get(F_IPV4_DST_ADDR, "0.0.0.0"),
                    ip_protocol=int(values.get(F_PROTOCOL, 0)),
                    src_port=int(values.get(F_L4_SRC_PORT, 0)),
                    dst_port=int(values.get(F_L4_DST_PORT, 0)),
                    tos=src_tos,
                    in_bytes=int(values.get(F_IN_BYTES, 0)),
                    out_bytes=int(values.get(F_OUT_BYTES, 0)),
                    src_tos=src_tos,
                    dst_tos=int(values.get(F_DST_TOS, 0)),
                    l7_proto_name="unknown",  # not carried on the wire
                    flow_start_ms=int(start_ms or 0),
                    flow_end_ms=int(end_ms or 0),
                )
            )
        except ValueError:
            continue  # out-of-range field content; skip the record
    return records


def decode_netflow_v9(datagram: bytes, cache: TemplateCache) -> list[FlowRecord]:
    """Decode one v9 datagram, updating the template cache.

    Template flowsets (id 0) register templates; data flowsets are
    decoded against cached templates or buffered until the template
    arrives (those buffered records are returned by the call that
    delivers the template). Truncated or non-v9 datagrams raise
    NetflowDecodeError and leave the cache untouched.
    """
    if len(datagram) < V9_HEADER.size:
        raise NetflowDecodeError("truncated-header")
    version, _count, sys_uptime, unix_secs, _seq, source_id = V9_HEADER.unpack_from(datagram)
    if version != 9:
        raise NetflowDecodeError(f"unsupported-version:{version}")

    # Parse everything before touching the cache so a truncated flowset
    # can reject the datagram atomically.
    staged_templates: dict[tuple[int, int], Template] = {}
    data_sets: list[tuple[int, bytes]] = []
    off = V9_HEADER.size
    while off < len(datagram):
        if off + 4 > len(datagram):
            raise NetflowDecodeError("truncated-flowset-header")
        flowset_id, length = struct.unpack_from("!HH", datagram, off)
        if length < 4 or off + length > len(datagram):
            raise NetflowDecodeError("truncated-flowset")
        payload = datagram[off + 4 : off + length]
        if flowset_id == 0:
            p = 0
            while p + 4 <= len(payload):
                tid, field_count = struct.unpack_from("!HH", payload, p)
                p += 4
                if tid == 0 and field_count == 0:  # padding
                    break
                if p + 4 * field_count > len(payload):
                    raise NetflowDecodeError("truncated-template")
                fields = tuple(
                    TemplateField(*struct.unpack_from("!HH", payload, p + 4 * j))
                    for j in range(field_count)
                )
                if tid < 256:
                    raise NetflowDecodeError(f"bad-template-id:{tid}")
                staged_templates[(source_id, tid)] = Template(tid, fields)
                p += 4 * field_count
        elif flowset_id == 1:
            pass  # options templates not needed
        elif flowset_id >= 256:
            data_sets.append((flowset_id, payload))
        off += length

    # Commit: templates first, then data.
    for key, template in staged_templates.items():
        cache.templates[key] = template
        cache.templates.move_to_end(key)
    while len(cache.templates) > TEMPLATE_LIMIT:
        cache.templates.popitem(last=False)
    records: list[FlowRecord] = []
    for key, template in staged_templates.items():
        for item in cache.take_pending(key):
            records.extend(
                _decode_records(template, item.payload, item.sys_uptime, item.unix_secs)
            )
    for flowset_id, payload in data_sets:
        key = (source_id, flowset_id)
        template = cache.templates.get(key)
        if template is None:
            cache.buffer(key, _PendingData(payload, sys_uptime, unix_secs))
            continue
        records.extend(_decode_records(template, payload, sys_uptime, unix_secs))
    return records


@dataclass
class CollectorStats:
    datagrams: int = 0
    records: int = 0
    malformed: int = 0


def collect_udp(
    bind_addr: str,
    port: int,
    sink: Callable[[list[FlowRecord]], None],
    stop: threading.Event,
    ready: Optional[Callable[[], None]] = None,
) -> CollectorStats:
    """Receive NetFlow v9 over UDP until `stop` is set.

    Every datagram is decoded and its records handed to `sink` in
    arrival order; malformed datagrams are counted, not fatal. A port
    outside 0-65535 raises ValueError and bind failures propagate as
    OSError, both at startup; `ready` is called once the socket is bound.
    """
    if not 0 <= port <= 65535:
        raise ValueError(f"bad-port: {port} is outside 0-65535")
    stats = CollectorStats()
    cache = TemplateCache()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind((bind_addr, port))
        sock.settimeout(0.2)
        if ready is not None:
            ready()
        while not stop.is_set():
            try:
                datagram, _addr = sock.recvfrom(65535)
            except socket.timeout:
                continue
            stats.datagrams += 1
            try:
                records = decode_netflow_v9(datagram, cache)
            except NetflowDecodeError:
                stats.malformed += 1
                continue
            if records:
                stats.records += len(records)
                sink(records)
    finally:
        sock.close()
    return stats

"""NetFlow v9 datagram decoding and a UDP collector.

Implements the subset of the v9 wire format needed to feed the local
detector: template flowsets, data flowsets, a per-exporter template
cache, and buffering of data that arrives before its template.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from natwatch.flowdata import FlowRecord

V9_HEADER = struct.Struct("!HHIIII")  # version, count, sysuptime, unix_secs, seq, source_id

# The field types (RFC 3954) this decoder reads, and the FlowRecord field
# each one fills. 21/22 are relative to the exporter's sysuptime and are
# read only when a template lacks the absolute 153/152.
V9_FIELDS = {
    1: "in_bytes",  # IN_BYTES
    4: "ip_protocol",  # PROTOCOL
    5: "src_tos",  # SRC_TOS
    7: "src_port",  # L4_SRC_PORT
    8: "src_ip",  # IPV4_SRC_ADDR
    10: "ingress_interface",  # INPUT_SNMP
    11: "dst_port",  # L4_DST_PORT
    12: "dst_ip",  # IPV4_DST_ADDR
    21: "flow_end_ms",  # LAST_SWITCHED
    22: "flow_start_ms",  # FIRST_SWITCHED
    23: "out_bytes",  # OUT_BYTES
    55: "dst_tos",  # DST_TOS
    152: "flow_start_ms",  # flowStartMilliseconds
    153: "flow_end_ms",  # flowEndMilliseconds
}
_INT, _IP, _UPTIME = range(3)  # how a field's bytes become its value
_KINDS = {8: _IP, 12: _IP, 21: _UPTIME, 22: _UPTIME}
_ABSOLUTE = {21: 153, 22: 152}  # the field that replaces a sysuptime-relative one
# What a record holds for a field its template does not carry.
_ABSENT = {name: 0 for name in V9_FIELDS.values()} | {"src_ip": "0.0.0.0", "dst_ip": "0.0.0.0"}

PENDING_LIMIT = 10_000  # buffered data flowsets, over all keys
PENDING_BYTES = 16 * 2**20  # their payload bytes, over all keys: 256 of the largest v9 carries
TEMPLATE_LIMIT = 10_000  # cached templates, over all keys; oldest-registered evicted


class NetflowDecodeError(ValueError):
    """Datagram rejected; the template cache is left unchanged."""


@dataclass(frozen=True)
class Template:
    """The length of one record of a template, and its layout: (FlowRecord
    field, start, end, kind) for each field the decoder reads, a repeated
    type at its last occurrence. The (type, length) pairs it was sent with
    are not kept."""

    record_length: int
    layout: tuple[tuple[str, int, int, int], ...]

    @classmethod
    def of(cls, fields: tuple[tuple[int, int], ...]) -> Template:
        types = {t for t, _ in fields}
        spans: dict[str, tuple[str, int, int, int]] = {}
        off = 0
        for t, length in fields:
            if t in V9_FIELDS and _ABSOLUTE.get(t) not in types:
                spans[V9_FIELDS[t]] = (V9_FIELDS[t], off, off + length, _KINDS.get(t, _INT))
            off += length
        return cls(off, tuple(spans.values()))


# What a template is cached under: the exporter (its source IP address, or
# None for a lone unnamed one), the Source ID and the template ID. RFC 3954
# (5.1) tells export streams apart by source address and Source ID together.
TemplateKey = tuple[Optional[str], int, int]


@dataclass
class TemplateCache:
    """Templates by key, in registration order (at most TEMPLATE_LIMIT,
    oldest-registered evicted), plus data flowsets buffered while their
    template is unknown, as (payload, sys_uptime, unix_secs), one queue a
    key. Past PENDING_LIMIT flowsets or PENDING_BYTES payload bytes over all
    queues, the head of the queue whose key started buffering first is
    dropped: not the oldest flowset overall, since a key keeps its place
    while its queue is not empty. `drops` counts what was dropped, by
    reason."""

    templates: OrderedDict[TemplateKey, Template] = field(default_factory=OrderedDict,
                                                          init=False)
    pending: OrderedDict[TemplateKey, deque] = field(default_factory=OrderedDict, init=False)
    _pending_count: int = field(default=0, init=False)
    _pending_bytes: int = field(default=0, init=False)
    drops: Counter = field(default_factory=Counter, init=False)

    def register(self, key: TemplateKey, template: Template) -> deque:
        """Cache `template` as the newest, evicting past TEMPLATE_LIMIT,
        and return the flowsets that were waiting for `key`."""
        self.templates[key] = template
        self.templates.move_to_end(key)
        while len(self.templates) > TEMPLATE_LIMIT:
            self.templates.popitem(last=False)
            self.drops["template-evicted"] += 1
        waiting = self.pending.pop(key, deque())
        self._pending_count -= len(waiting)
        self._pending_bytes -= sum(len(payload) for payload, _, _ in waiting)
        return waiting

    def buffer(self, key: TemplateKey, item: tuple[bytes, int, int]) -> None:
        self.pending.setdefault(key, deque()).append(item)
        self._pending_count += 1
        self._pending_bytes += len(item[0])
        while self._pending_count > PENDING_LIMIT or self._pending_bytes > PENDING_BYTES:
            # no queue is kept empty, so the first key's head goes; an
            # OrderedDict reaches its first key without scanning deleted slots
            oldest, q = next(iter(self.pending.items()))
            self._pending_bytes -= len(q.popleft()[0])
            self._pending_count -= 1
            self.drops["pending-dropped"] += 1
            if not q:
                del self.pending[oldest]


def _decode_records(
    template: Template, payload: bytes, sys_uptime: int, unix_secs: int, drops: Counter
) -> list[FlowRecord]:
    rec_len = template.record_length
    boot_ms = unix_secs * 1000 - sys_uptime
    records: list[FlowRecord] = []
    for base in range(0, len(payload) - rec_len + 1, rec_len):  # trailing padding ignored
        values = dict(_ABSENT)
        for name, start, end, kind in template.layout:
            data = payload[base + start : base + end]
            if kind == _IP:
                values[name] = socket.inet_ntoa(data[-4:].rjust(4, b"\x00"))
            else:
                values[name] = int.from_bytes(data, "big") + (boot_ms if kind == _UPTIME else 0)
        try:
            # ToS is the source's; L7 is not carried on the wire
            records.append(FlowRecord(**values, tos=values["src_tos"], l7_proto_name="unknown"))
        except ValueError:
            drops["invalid-record"] += 1
    return records


def decode_netflow_v9(datagram: bytes, cache: TemplateCache,
                      exporter: Optional[str] = None) -> list[FlowRecord]:
    """Decode one v9 datagram from `exporter`, updating the template cache.

    Template flowsets (id 0) register templates under the exporter, the
    datagram's Source ID and the template ID; data flowsets are
    decoded against cached templates or buffered until the template
    arrives (those buffered records are returned by the call that
    delivers the template). Truncated or non-v9 datagrams, and templates
    whose records are 0 bytes long, raise NetflowDecodeError and leave the
    cache untouched.
    """
    if len(datagram) < V9_HEADER.size:
        raise NetflowDecodeError("truncated-header")
    version, _count, sys_uptime, unix_secs, _seq, source_id = V9_HEADER.unpack_from(datagram)
    if version != 9:
        raise NetflowDecodeError(f"unsupported-version:{version}")

    # Parse everything before touching the cache so a truncated flowset
    # can reject the datagram atomically.
    staged_templates: dict[TemplateKey, Template] = {}
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
                if tid < 256:
                    raise NetflowDecodeError(f"bad-template-id:{tid}")
                pairs = struct.unpack_from(f"!{2 * field_count}H", payload, p)
                template = Template.of(tuple(zip(pairs[::2], pairs[1::2])))
                if template.record_length == 0:  # its data would decode to nothing
                    raise NetflowDecodeError(f"empty-template:{tid}")
                staged_templates[(exporter, source_id, tid)] = template
                p += 4 * field_count
        elif flowset_id >= 256:  # 1 is an options template, not needed
            data_sets.append((flowset_id, payload))
        off += length

    # Commit: templates and the data that waited for them, then data.
    records: list[FlowRecord] = []
    for key, template in staged_templates.items():
        for item in cache.register(key, template):
            records += _decode_records(template, *item, cache.drops)
    for flowset_id, payload in data_sets:
        key = (exporter, source_id, flowset_id)
        template = cache.templates.get(key)
        if template is None:
            cache.buffer(key, (payload, sys_uptime, unix_secs))
        else:
            records += _decode_records(template, payload, sys_uptime, unix_secs, cache.drops)
    return records


@dataclass
class CollectorStats:
    datagrams: int = 0
    records: int = 0
    malformed: int = 0
    malformed_reasons: Counter = field(default_factory=Counter, init=False)
    drops: Counter = field(default_factory=Counter, init=False)  # the cache's, by reason


def open_udp(bind_addr: str, port: int) -> socket.socket:
    """A UDP socket bound to (bind_addr, port), with its receive timeout
    set. A port outside 0-65535 raises ValueError before any socket is
    made; a failed bind closes the socket and raises its OSError."""
    if not 0 <= port <= 65535:
        raise ValueError(f"bad-port: {port} is outside 0-65535")
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind((bind_addr, port))
    except OSError:
        sock.close()
        raise
    sock.settimeout(0.2)
    return sock


def collect_udp(
    sock: socket.socket,
    sink: Callable[[list[FlowRecord]], None],
    until: Optional[float] = None,
) -> CollectorStats:
    """Receive NetFlow v9 on the bound `sock` until `time.monotonic()`
    passes `until` or Ctrl-C, which ends the run the same way: either
    returns the stats. The socket stays open.

    Every datagram is decoded, its templates kept apart by its sender's
    IP address, and its records handed to `sink` in arrival order;
    malformed datagrams are counted, in all and by reason (the decode
    error up to its first ":"), not fatal.
    """
    stats = CollectorStats()
    cache = TemplateCache()
    stats.drops = cache.drops
    with contextlib.suppress(KeyboardInterrupt):  # Ctrl-C ends the run as until does
        while until is None or time.monotonic() < until:
            try:
                datagram, sender = sock.recvfrom(65535)
            except socket.timeout:
                continue
            stats.datagrams += 1
            try:
                records = decode_netflow_v9(datagram, cache, sender[0])
            except NetflowDecodeError as exc:
                stats.malformed += 1
                stats.malformed_reasons[str(exc).split(":", 1)[0]] += 1
                continue
            if records:
                stats.records += len(records)
                sink(records)
    return stats

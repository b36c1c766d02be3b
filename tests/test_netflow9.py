import socket
import struct
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch import netflow9
from natwatch.netflow9 import (
    NetflowDecodeError,
    TemplateCache,
    decode_netflow_v9,
)

from netflow_encoder import (
    FIELDS,
    RECORD,
    InterruptedSocket,
    build_datagram,
    encode_data_flowset,
    encode_template_flowset,
    template_then_data,
)


class TestDecode:
    def test_template_and_data_in_one_datagram(self):
        cache = TemplateCache()
        records = decode_netflow_v9(template_then_data(), cache)
        assert len(records) == 1
        r = records[0]
        assert r.src_ip == "192.168.1.5"
        assert r.dst_ip == "8.8.8.8"
        assert r.dst_port == 53
        assert r.in_bytes == 812
        assert r.out_bytes == 120
        assert r.flow_start_ms == 1000
        assert r.flow_end_ms == 4000
        assert r.l7_proto_name == "unknown"

    def test_data_before_template_is_buffered(self):
        cache = TemplateCache()
        data_only = build_datagram([encode_data_flowset(300, FIELDS, [RECORD])])
        assert decode_netflow_v9(data_only, cache) == []
        template_only = build_datagram([encode_template_flowset([(300, FIELDS)])])
        records = decode_netflow_v9(template_only, cache)
        assert len(records) == 1
        assert records[0].dst_port == 53

    def test_wrong_version_rejected(self):
        cache = TemplateCache()
        bad = b"\x00\x05" + template_then_data()[2:]
        with pytest.raises(NetflowDecodeError, match="unsupported-version"):
            decode_netflow_v9(bad, cache)

    def test_truncated_datagram_leaves_cache_unchanged(self):
        cache = TemplateCache()
        datagram = template_then_data()
        with pytest.raises(NetflowDecodeError):
            decode_netflow_v9(datagram[:-3], cache)
        assert cache.templates == {}

    def test_template_replacement(self):
        cache = TemplateCache()
        decode_netflow_v9(
            build_datagram([encode_template_flowset([(300, FIELDS)])]), cache
        )
        new_fields = FIELDS[:6]
        decode_netflow_v9(
            build_datagram([encode_template_flowset([(300, new_fields)])]), cache
        )
        template = cache.templates[(None, 0, 300)]
        assert template.record_length == sum(length for _, length in new_fields)
        assert len(template.layout) == 6

    def test_resending_identical_template_is_noop(self):
        cache = TemplateCache()
        datagram = build_datagram([encode_template_flowset([(300, FIELDS)])])
        decode_netflow_v9(datagram, cache)
        before = dict(cache.templates)
        decode_netflow_v9(datagram, cache)
        assert cache.templates == before

    def test_sysuptime_fallback_timestamps(self):
        fields = FIELDS[:10] + [(22, 4), (21, 4)]  # FIRST/LAST_SWITCHED
        record = {k: v for k, v in RECORD.items() if k not in (152, 153)}
        record[22] = 500
        record[21] = 1500
        datagram = build_datagram(
            [
                encode_template_flowset([(301, fields)]),
                encode_data_flowset(301, fields, [record]),
            ],
            sys_uptime=1000,
            unix_secs=100,
        )
        records = decode_netflow_v9(datagram, TemplateCache())
        assert records[0].flow_start_ms == 100_000 - 1000 + 500
        assert records[0].flow_end_ms == 100_000 - 1000 + 1500

    def test_record_starting_before_the_epoch_is_dropped(self):
        fields = FIELDS[:10] + [(22, 4), (21, 4)]  # FIRST/LAST_SWITCHED
        record = {k: v for k, v in RECORD.items() if k not in (152, 153)}
        early = {**record, 22: 500, 21: 1500}  # starts 500 ms before unix_secs=0
        late = {**record, 22: 1500, 21: 2500}
        datagram = build_datagram(
            [
                encode_template_flowset([(301, fields)]),
                encode_data_flowset(301, fields, [early, late]),
            ],
            sys_uptime=1000,
            unix_secs=0,
        )
        cache = TemplateCache()
        records = decode_netflow_v9(datagram, cache)
        assert [(r.flow_start_ms, r.flow_end_ms) for r in records] == [(500, 1500)]
        assert cache.drops == Counter({"invalid-record": 1})

    def test_pending_buffer_bounded(self, monkeypatch):
        monkeypatch.setattr(netflow9, "PENDING_LIMIT", 5)
        cache = TemplateCache()
        for i in range(10):
            record = {**RECORD, 11: i}
            decode_netflow_v9(
                build_datagram([encode_data_flowset(300, FIELDS, [record])]), cache
            )
        records = decode_netflow_v9(
            build_datagram([encode_template_flowset([(300, FIELDS)])]), cache
        )
        assert len(records) == 5
        assert [r.dst_port for r in records] == [5, 6, 7, 8, 9]  # oldest dropped
        assert cache.drops == Counter({"pending-dropped": 5})

    def test_spoofed_sources_evict_in_constant_time(self):
        """Templates, and the data waiting for them, are keyed by source_id
        (RFC 3954), so each spoofed source is a new pending key. Dropping
        the oldest flowset must not cost time per key."""
        n = 20_000
        data = encode_data_flowset(300, FIELDS, [RECORD])
        datagrams = [build_datagram([data], source_id=s) for s in range(n)]
        cache = TemplateCache()
        t0 = time.perf_counter()
        for datagram in datagrams:
            assert decode_netflow_v9(datagram, cache) == []
        assert time.perf_counter() - t0 < 5.0
        newest = [(None, s, 300) for s in range(n - netflow9.PENDING_LIMIT, n)]
        assert list(cache.pending) == newest
        assert [len(q) for q in cache.pending.values()] == [1] * netflow9.PENDING_LIMIT
        assert cache.drops == Counter({"pending-dropped": n - netflow9.PENDING_LIMIT})

    def test_pending_overflow_drops_the_head_of_the_queue_that_started_buffering_first(
            self, monkeypatch):
        """Flowsets a1, b1, a2, c1 and d1 wait under keys A to D with room
        for 3: the overflow drops a1, then a2, the head of A's queue each
        time, and keeps b1, which is older than a2."""
        monkeypatch.setattr(netflow9, "PENDING_LIMIT", 3)
        cache = TemplateCache()
        for source_id, port in [(1, 1), (2, 2), (1, 3), (3, 4), (4, 5)]:  # a1 b1 a2 c1 d1
            data = encode_data_flowset(300, FIELDS, [{**RECORD, 11: port}])
            assert decode_netflow_v9(build_datagram([data], source_id=source_id), cache) == []
        assert cache.drops == Counter({"pending-dropped": 2})
        assert list(cache.pending) == [(None, 2, 300), (None, 3, 300), (None, 4, 300)]
        template = encode_template_flowset([(300, FIELDS)])
        kept = [r.dst_port for source_id in (1, 2, 3, 4)
                for r in decode_netflow_v9(build_datagram([template], source_id=source_id), cache)]
        assert kept == [2, 4, 5]

    def test_pending_payloads_are_bounded_in_bytes(self):
        """400 data flowsets of the largest datagram UDP carries over IPv4
        (65,507 bytes), each for a template never sent, hold under
        PENDING_BYTES + 1 MiB; the 144 past 16 MiB, 256 payloads of 65,483
        bytes, are dropped and counted."""
        payload = b"\x00" * (65_507 - 20 - 4)
        cache = TemplateCache()
        tracemalloc.start()
        try:
            for tid in range(256, 656):
                datagram = build_datagram([struct.pack("!HH", tid, 4 + len(payload)) + payload])
                assert len(datagram) == 65_507
                assert decode_netflow_v9(datagram, cache) == []
                del datagram
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert netflow9.PENDING_BYTES == 16 * 2**20
        assert held < netflow9.PENDING_BYTES + 2**20, held
        assert cache.drops == Counter({"pending-dropped": 144})
        assert list(cache.pending) == [(None, 0, tid) for tid in range(400, 656)]
        template = build_datagram([encode_template_flowset([(655, FIELDS)])])
        released = decode_netflow_v9(template, cache)
        assert len(released) == len(payload) // sum(length for _, length in FIELDS)
        assert cache._pending_bytes == 255 * len(payload)

    def test_template_cache_evicts_oldest_registered(self, monkeypatch):
        monkeypatch.setattr(netflow9, "TEMPLATE_LIMIT", 3)
        cache = TemplateCache()

        def register(source_id):
            datagram = build_datagram([encode_template_flowset([(300, FIELDS)])],
                                      source_id=source_id)
            decode_netflow_v9(datagram, cache)

        for source_id in (0, 1, 2):
            register(source_id)
        register(0)  # registering again makes it the newest
        register(3)
        assert list(cache.templates) == [(None, 2, 300), (None, 0, 300), (None, 3, 300)]
        assert cache.drops == Counter({"template-evicted": 1})
        # data for the evicted template waits for it again
        data = build_datagram([encode_data_flowset(300, FIELDS, [RECORD])], source_id=1)
        assert decode_netflow_v9(data, cache) == []
        assert list(cache.pending) == [(None, 1, 300)]

    def test_spoofed_template_flood_is_bounded(self):
        n = 20_000
        templates = encode_template_flowset([(300, FIELDS), (301, FIELDS)])
        cache = TemplateCache()
        for s in range(n):
            decode_netflow_v9(build_datagram([templates], source_id=s), cache)
        newest = [(None, s, t) for s in range(n - netflow9.TEMPLATE_LIMIT // 2, n) for t in (300, 301)]
        assert list(cache.templates) == newest
        assert cache.drops == Counter({"template-evicted": 2 * n - netflow9.TEMPLATE_LIMIT})

    def test_a_cached_template_keeps_none_of_the_fields_it_was_sent_with(self):
        """Each of 20 datagrams of 65,507 bytes or less (the most UDP
        carries over IPv4) registers one template of as many fields as fit,
        16,369. Held in the cache, the 20 take well under 1 MiB in all: a
        template keeps its record length and the spans of the fields the
        decoder reads, not every (type, length) pair it was sent with."""
        field_count = (65_507 - 20 - 8) // 4
        fields = FIELDS + [(1000 + i, 1 + i % 4) for i in range(field_count - len(FIELDS))]
        datagrams = [build_datagram([encode_template_flowset([(tid, fields)])])
                     for tid in range(256, 276)]
        assert max(map(len, datagrams)) <= 65_507
        cache = TemplateCache()
        tracemalloc.start()
        try:
            for datagram in datagrams:
                decode_netflow_v9(datagram, cache)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(cache.templates) == 20
        assert held < 2**20, held
        assert cache.templates[(None, 0, 275)].record_length == sum(length for _, length in fields)


# Exporter B's layout: FIELDS with IN_BYTES and OUT_BYTES swapped
SWAPPED = [{(1, 4): (23, 4), (23, 4): (1, 4)}.get(f, f) for f in FIELDS]


class TestExporters:
    """Two exporters both send Source ID 0 and template 256, but their
    layouts differ (RFC 3954 5.1: a stream is its source address and
    Source ID together)."""

    def datagrams(self):
        record = {**RECORD, 1: 100, 23: 200}  # IN_BYTES 100, OUT_BYTES 200
        return [build_datagram([encode_template_flowset([(256, FIELDS)])]),
                build_datagram([encode_template_flowset([(256, SWAPPED)])]),
                build_datagram([encode_data_flowset(256, FIELDS, [record])]),
                build_datagram([encode_data_flowset(256, SWAPPED, [record])])]

    def test_each_decodes_with_its_own_template(self):
        cache = TemplateCache()
        records = [r for datagram, exporter in zip(self.datagrams(), ["a", "b", "a", "b"])
                   for r in decode_netflow_v9(datagram, cache, exporter)]
        assert [(r.in_bytes, r.out_bytes) for r in records] == [(100, 200), (100, 200)]
        assert list(cache.templates) == [("a", 0, 256), ("b", 0, 256)]

    def test_the_collector_keys_templates_by_sender_address(self):
        received = []
        sock = InterruptedSocket(self.datagrams(),
                                 senders=["192.0.2.1", "192.0.2.2", "192.0.2.1", "192.0.2.2"])
        stats = netflow9.collect_udp(sock, received.extend)
        assert [(r.in_bytes, r.out_bytes) for r in received] == [(100, 200), (100, 200)]
        assert (stats.datagrams, stats.records, stats.malformed) == (4, 2, 0)


def _flowset(flowset_id, body):
    return struct.pack("!HH", flowset_id, 4 + len(body)) + body


def _one_record(fields, record_bytes, sys_uptime=0, unix_secs=0):
    """Decode one data record written byte for byte against `fields`."""
    datagram = build_datagram(
        [encode_template_flowset([(300, fields)]), _flowset(300, record_bytes)],
        sys_uptime=sys_uptime, unix_secs=unix_secs,
    )
    return decode_netflow_v9(datagram, TemplateCache())


class TestLayout:
    @pytest.mark.parametrize("absolute_first", [True, False])
    def test_absolute_timestamps_win_over_sysuptime_ones(self, absolute_first):
        absolute = [((152, 8), 7_000), ((153, 8), 9_000)]
        relative = [((22, 4), 100), ((21, 4), 200)]
        pairs = absolute + relative if absolute_first else relative + absolute
        fields = [f for f, _ in pairs]
        body = b"".join(v.to_bytes(f[1], "big") for f, v in pairs)
        [r] = _one_record(fields, body, sys_uptime=1000, unix_secs=100)
        assert (r.flow_start_ms, r.flow_end_ms) == (7_000, 9_000)

    def test_repeated_field_type_takes_its_last_value(self):
        fields = [(11, 2), (7, 2), (11, 2)]
        [r] = _one_record(fields, struct.pack("!HHH", 53, 40000, 443))
        assert (r.src_port, r.dst_port) == (40000, 443)

    def test_short_ip_is_left_padded_and_long_ip_keeps_its_last_4_bytes(self):
        fields = [(8, 2), (12, 6)]
        [r] = _one_record(fields, bytes([1, 2]) + bytes([0xAA, 0xBB, 10, 0, 0, 1]))
        assert (r.src_ip, r.dst_ip) == ("0.0.1.2", "10.0.0.1")

    def test_options_template_flowset_is_ignored(self):
        # id 300, one scope field (system, 4 bytes), one option (INPUT_SNMP, 4 bytes)
        options = _flowset(1, struct.pack("!7H", 300, 4, 4, 1, 4, 10, 4))
        cache = TemplateCache()
        data = encode_data_flowset(300, FIELDS, [RECORD])
        assert decode_netflow_v9(build_datagram([options, data]), cache) == []
        assert cache.templates == {}
        template = build_datagram([encode_template_flowset([(300, FIELDS)])])
        assert decode_netflow_v9(template, cache) == decode_netflow_v9(
            template_then_data(), TemplateCache())

    def test_a_padding_record_ends_the_template_flowset(self):
        """tid 0 with 0 fields is padding: what follows it in the flowset,
        here a template ID under 256 that would be refused, is not read."""
        template = encode_template_flowset([(300, FIELDS)])[4:]
        padded = _flowset(0, template + struct.pack("!HHHH", 0, 0, 5, 1))
        cache = TemplateCache()
        assert decode_netflow_v9(build_datagram([padded]), cache) == []
        assert list(cache.templates) == [(None, 0, 300)]
        data = build_datagram([encode_data_flowset(300, FIELDS, [RECORD])])
        assert decode_netflow_v9(data, cache) == decode_netflow_v9(template_then_data(),
                                                                   TemplateCache())

    def test_a_template_longer_than_its_flowset_is_refused(self):
        cache = TemplateCache()
        short = _flowset(0, struct.pack("!HHHHHH", 300, 3, 1, 4, 2, 4))  # 3 fields, 2 sent
        with pytest.raises(NetflowDecodeError, match="^truncated-template$"):
            decode_netflow_v9(build_datagram([short]), cache)
        assert cache.templates == {}

    def test_template_of_zero_length_is_refused(self):
        for fields in ([], [(10, 0), (8, 0)]):  # no fields, or only zero-length ones
            cache = TemplateCache()
            datagram = build_datagram(
                [encode_template_flowset([(300, fields)]), _flowset(300, bytes(8))])
            with pytest.raises(NetflowDecodeError, match="^empty-template:300$"):
                decode_netflow_v9(datagram, cache)
            assert cache.templates == {} and cache.pending == {}
            assert cache.drops == Counter()

    def test_live_template_still_decodes_after_a_spoofed_empty_one(self):
        cache = TemplateCache()
        expected = decode_netflow_v9(template_then_data(), cache)
        with pytest.raises(NetflowDecodeError, match="^empty-template:300$"):
            decode_netflow_v9(build_datagram([encode_template_flowset([(300, [])])]), cache)
        data = build_datagram([encode_data_flowset(300, FIELDS, [RECORD])])
        assert decode_netflow_v9(data, cache) == expected != []

    def test_interface_index_beyond_64_bits_is_dropped_and_counted(self):
        fields = [(10, 9)] + FIELDS[1:]
        records = [{**RECORD, 10: 2**64}, {**RECORD, 10: 2**64 - 1}]
        cache = TemplateCache()
        datagram = build_datagram([encode_template_flowset([(300, fields)]),
                                   encode_data_flowset(300, fields, records)])
        assert [r.ingress_interface for r in decode_netflow_v9(datagram, cache)] == [2**64 - 1]
        assert cache.drops == Counter({"invalid-record": 1})


_fields = st.lists(
    st.tuples(st.sampled_from([1, 4, 5, 7, 8, 10, 11, 12, 21, 22, 23, 55, 152, 153, 99]),
              st.integers(0, 9)),
    max_size=8,
)
_flowsets = st.one_of(
    st.lists(st.tuples(st.integers(250, 260), _fields), min_size=1, max_size=2).map(
        encode_template_flowset
    ),
    st.builds(_flowset, st.integers(256, 260), st.binary(max_size=48)),
    st.builds(_flowset, st.integers(1, 255), st.binary(max_size=8)),
    st.binary(max_size=12),  # raw bytes: usually a broken flowset header
)


@st.composite
def _datagrams(draw):
    header = struct.pack(
        "!HHIIII",
        draw(st.sampled_from([9, 9, 9, 5])),
        draw(st.integers(0, 3)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(0, 2**32 - 1)),
        0,
        draw(st.integers(0, 2)),  # source_id
    )
    datagram = header + b"".join(draw(st.lists(_flowsets, max_size=4)))
    cut = draw(st.none() | st.integers(0, len(datagram)))
    return datagram if cut is None else datagram[:cut]


def _cache_state(cache):
    return (list(cache.templates.items()), [(k, list(q)) for k, q in cache.pending.items()],
            dict(cache.drops))


@given(datagrams=st.lists(_datagrams(), min_size=1, max_size=12),
       limit=st.sampled_from([1, netflow9.PENDING_LIMIT]))
def test_decode_rejects_only_with_decode_error_and_atomically(datagrams, limit):
    """Any datagram either decodes or raises NetflowDecodeError, a
    rejected one leaves the templates, the buffered data and the drop
    counts unchanged, and both stay within their limits."""
    cache = TemplateCache()
    with mock.patch.object(netflow9, "PENDING_LIMIT", limit), \
            mock.patch.object(netflow9, "TEMPLATE_LIMIT", limit):
        for datagram in datagrams:
            before = _cache_state(cache)
            try:
                decode_netflow_v9(datagram, cache)
            except NetflowDecodeError:
                assert _cache_state(cache) == before
            queued = [len(q) for q in cache.pending.values()]
            assert all(queued) and sum(queued) == cache._pending_count <= limit
            assert sum(len(item[0]) for q in cache.pending.values() for item in q) \
                == cache._pending_bytes <= netflow9.PENDING_BYTES
            assert len(cache.templates) <= netflow9.TEMPLATE_LIMIT


class TestCollector:
    def test_delivery_order_and_malformed_counting(self):
        received = []
        with netflow9.open_udp("127.0.0.1", 0) as sock, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as exporter:
            for payload in [
                template_then_data(records=[{**RECORD, 11: 1}]),
                b"garbage",
                template_then_data(records=[{**RECORD, 11: 2}, {**RECORD, 11: 3},
                                            {**RECORD, 11: 4, 152: 5000}]),  # ends before it starts
            ]:
                exporter.sendto(payload, sock.getsockname())
            stats = netflow9.collect_udp(sock, received.extend, time.monotonic() + 0.3)
            assert sock.fileno() != -1  # the collector leaves the socket open
        assert [r.dst_port for r in received] == [1, 2, 3]
        assert stats.malformed == 1
        assert stats.malformed_reasons == Counter({"truncated-header": 1})
        assert stats.datagrams == 3
        assert stats.drops == Counter({"invalid-record": 1})

    def test_ctrl_c_ends_the_run_as_its_deadline_does(self):
        received = []
        sock = InterruptedSocket([template_then_data(), b"garbage",
                                  template_then_data(records=[{**RECORD, 11: 2}])])
        stats = netflow9.collect_udp(sock, received.extend)
        assert [r.dst_port for r in received] == [53, 2]
        assert (stats.datagrams, stats.records, stats.malformed) == (3, 2, 1)
        assert stats.malformed_reasons == Counter({"truncated-header": 1})

    def test_bind_failure_raises(self, monkeypatch):
        made = []
        real_socket = socket.socket
        monkeypatch.setattr(socket, "socket", lambda *a: made.append(real_socket(*a)) or made[-1])
        with pytest.raises(OSError):
            netflow9.open_udp("203.0.113.99", 0)
        assert len(made) == 1 and made[0].fileno() == -1  # the failed socket is closed

    @pytest.mark.parametrize("port", [70000, -1])
    def test_port_out_of_range_is_refused_before_any_socket(self, port, monkeypatch):
        made = []
        monkeypatch.setattr(socket, "socket", lambda *a: made.append(a))
        with pytest.raises(ValueError, match="^bad-port: "):
            netflow9.open_udp("127.0.0.1", port)
        assert made == []

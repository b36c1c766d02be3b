import csv
import json
import os
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch.flowdata import (
    NON_IOT,
    DeviceInventory,
    DeviceModelId,
    FlowDataset,
    FlowRecord,
    InventoryEntry,
    LabeledFlow,
)
from natwatch.ingest import (
    MissingColumnError,
    RejectedRow,
    normalize_qname,
    parse_dns_jsonl,
    parse_flow_csv,
    write_dns_jsonl,
    write_flow_csv,
    DnsEvent,
)

from util import WEBCAM, dataset, make_labeled

HEADER = (
    "INPUT_INTERFACE,SRC_IP,DST_IP,PROTOCOL,L4_SRC_PORT,L4_DST_PORT,"
    "IN_BYTES,OUT_BYTES,SRC_TOS,DST_TOS,L7_PROTO_NAME,"
    "FLOW_START_MILLISECONDS,FLOW_END_MILLISECONDS"
)


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "flows.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestParseFlowCsv:
    def test_valid_row(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000"],
        )
        ds, rejected = parse_flow_csv(path)
        assert rejected == []
        f = ds.flows[0].flow
        assert f.in_bytes == 812
        assert f.out_bytes == 0
        assert f.ip_protocol == 17
        assert f.dst_port == 53
        assert f.l7_proto_name == "DNS"
        assert f.flow_end_ms - f.flow_start_ms == 3000

    def test_negative_duration_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,4000,1000"],
        )
        ds, rejected = parse_flow_csv(path)
        assert len(ds) == 0
        assert rejected[0].reason == "negative-duration"
        assert rejected[0].line_no == 2

    def test_non_numeric_port_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["1,192.168.1.5,8.8.8.8,6,40000,http,812,0,0,0,HTTP,1000,4000"],
        )
        _, rejected = parse_flow_csv(path)
        assert rejected[0].reason == "parse-error:L4_DST_PORT"

    def test_missing_mandatory_column(self, tmp_path):
        header = HEADER.replace("IN_BYTES,", "")
        path = write_csv(tmp_path, ["1,a,b,6,1,2,0,0,0,HTTP,1,2"], header=header)
        with pytest.raises(MissingColumnError, match="IN_BYTES"):
            parse_flow_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        ds, rejected = parse_flow_csv(path)
        assert len(ds) == 0 and rejected == []

    def test_label_column_wins(self, tmp_path):
        header = HEADER + ",LABEL"
        path = write_csv(
            tmp_path,
            [
                "1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000,"
                "webcam.D_Link.DCS_933L"
            ],
            header=header,
        )
        ds, _ = parse_flow_csv(path)
        assert ds.flows[0].label == WEBCAM

    def test_inventory_fallback(self, tmp_path):
        inv = DeviceInventory([InventoryEntry("aa:bb:cc:00:00:01", "192.168.1.5", WEBCAM)])
        path = write_csv(
            tmp_path, ["1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000"]
        )
        ds, _ = parse_flow_csv(path, inv)
        assert ds.flows[0].label == WEBCAM
        assert ds.flows[0].source_mac == "aa:bb:cc:00:00:01"

    def test_inventory_fills_empty_mac_of_labeled_row(self, tmp_path):
        inv = DeviceInventory([InventoryEntry("aa:bb:cc:00:00:01", "192.168.1.5", WEBCAM)])
        path = write_csv(
            tmp_path,
            ["1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000,non-IoT,"],
            header=HEADER + ",LABEL,SRC_MAC",
        )
        ds, _ = parse_flow_csv(path, inv)
        assert ds.flows[0].label == NON_IOT  # the LABEL column still wins
        assert ds.flows[0].source_mac == "aa:bb:cc:00:00:01"

    def test_totality(self, tmp_path):
        rows = [
            "1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000",
            "1,192.168.1.5,8.8.8.8,17,40000,bad,812,0,0,0,DNS,1000,4000",
            "1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,9000,1000",
        ]
        path = write_csv(tmp_path, rows)
        ds, rejected = parse_flow_csv(path)
        assert len(ds) + len(rejected) == len(rows)

    def test_oversized_field_is_one_rejection_and_the_next_row_parses(self, tmp_path):
        valid = "1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000"
        long = valid.replace("DNS", "x" * (csv.field_size_limit() + 1))
        path = write_csv(tmp_path, [long, valid])
        ds, rejected = parse_flow_csv(path)
        assert [(r.line_no, r.reason.split(":")[0]) for r in rejected] == [(2, "csv-error")]
        assert [lf.flow.l7_proto_name for lf in ds] == ["DNS"]

    def test_oversized_field_spanning_lines_is_one_rejection(self, tmp_path):
        valid = "1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000"
        long = valid.replace("DNS", '"' + "x" * (csv.field_size_limit() + 1) + '\nmore"')
        path = write_csv(tmp_path, [long, valid, valid.replace("53", "bad")])
        ds, rejected = parse_flow_csv(path)
        assert [(r.line_no, r.reason.split(":")[0]) for r in rejected] == [
            (2, "csv-error"), (5, "parse-error")]
        assert [lf.flow.l7_proto_name for lf in ds] == ["DNS"]

    def test_values_no_exporter_sends_are_rejected(self, tmp_path):
        valid = "1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000"
        rows = [valid.replace(",812,", ",99999999999999999999999,"),
                valid.replace(",1000,", ",-1,"),
                valid.replace(",812,", f",{2**64 - 1},"),
                f"99999999999999999999999{valid[1:]}",
                f"-7{valid[1:]}",
                f"{2**64 - 1}{valid[1:]}"]
        ds, rejected = parse_flow_csv(write_csv(tmp_path, rows))
        assert [(r.line_no, r.reason.split(":")[0]) for r in rejected] == [
            (2, "invalid-field"), (3, "invalid-field"), (5, "invalid-field"),
            (6, "invalid-field")]
        assert [(lf.flow.ingress_interface, lf.flow.in_bytes) for lf in ds] == [
            (1, 2**64 - 1), (2**64 - 1, 812)]

    def test_row_short_of_a_text_cell_is_rejected(self, tmp_path):
        header = HEADER.replace("L7_PROTO_NAME,", "") + ",L7_PROTO_NAME"
        path = write_csv(tmp_path, ["1,a,b,17,1,2,3,4,0,0,1000,2000"], header=header)
        ds, rejected = parse_flow_csv(path)
        assert list(ds) == []
        assert rejected == [RejectedRow(2, "parse-error:L7_PROTO_NAME")]

    def test_line_number_is_the_line_the_row_starts_on(self, tmp_path):
        valid = "1,192.168.1.5,8.8.8.8,17,40000,53,812,0,0,0,DNS,1000,4000"
        two_lines = valid.replace("DNS", '"D\nNS"')
        path = write_csv(tmp_path, [two_lines, "", valid.replace("53", "bad")])
        ds, rejected = parse_flow_csv(path)
        assert [lf.flow.l7_proto_name for lf in ds] == ["D\nNS"]
        assert rejected == [RejectedRow(5, "parse-error:L4_DST_PORT")]

    def test_oversized_header_is_value_error(self, tmp_path):
        path = write_csv(tmp_path, [], header=HEADER + "," + "x" * (csv.field_size_limit() + 1))
        with pytest.raises(ValueError, match="unreadable header"):
            parse_flow_csv(path)

    def test_round_trip_through_writer(self, tmp_path):
        original = dataset(
            make_labeled(label=WEBCAM),
            make_labeled(label=NON_IOT, mac="ff:ff:ff:ff:ff:01", dst_port=443),
        )
        path = tmp_path / "out.csv"
        write_flow_csv(original, path)
        parsed, rejected = parse_flow_csv(path)
        assert rejected == []
        assert [lf.flow for lf in parsed] == [lf.flow for lf in original]
        assert [lf.label for lf in parsed] == [lf.label for lf in original]


class TestParseDnsJsonl:
    def test_qname_normalized(self, tmp_path):
        path = tmp_path / "dns.jsonl"
        path.write_text(
            json.dumps(
                {
                    "ts_ms": 1000,
                    "src_ip": "10.0.0.2",
                    "ip_id": 7,
                    "resolver_ip": "8.8.8.8",
                    "qname": "NTP.Amazon.COM.",
                }
            )
            + "\n"
        )
        events, rejected = parse_dns_jsonl(path)
        assert rejected == []
        assert events[0].qname == "ntp.amazon.com"

    def test_out_of_range_ip_id_rejected(self, tmp_path):
        path = tmp_path / "dns.jsonl"
        path.write_text(
            '{"ts_ms":1,"src_ip":"a","ip_id":70000,"resolver_ip":"b","qname":"x.com"}\n'
        )
        events, rejected = parse_dns_jsonl(path)
        assert events == []
        assert rejected[0].line_no == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "dns.jsonl"
        path.write_text("not json\n")
        events, rejected = parse_dns_jsonl(path)
        assert events == [] and len(rejected) == 1

    def test_deeply_nested_line_is_one_rejection(self, tmp_path):
        path = tmp_path / "dns.jsonl"
        valid = '{"ts_ms":1,"src_ip":"a","ip_id":7,"resolver_ip":"b","qname":"x.com"}'
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n" + valid + "\n")
        events, rejected = parse_dns_jsonl(path)
        assert [e.qname for e in events] == ["x.com"]
        assert [(r.line_no, r.reason.split(":")[0]) for r in rejected] == [(1, "malformed")]

    def test_line_that_is_not_utf8_is_one_rejection(self, tmp_path):
        path = tmp_path / "dns.jsonl"
        valid = b'{"ts_ms":1,"src_ip":"a","ip_id":7,"resolver_ip":"b","qname":"x.com"}'
        path.write_bytes(valid + b"\n\xff\n" + valid + b"\n")
        events, rejected = parse_dns_jsonl(path)
        assert [e.qname for e in events] == ["x.com", "x.com"]
        assert [(r.line_no, r.reason.split(":")[0]) for r in rejected] == [(2, "malformed")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "dns.jsonl"
        path.write_text("")
        assert parse_dns_jsonl(path) == ([], [])

    @pytest.mark.parametrize("key, value", [
        ("ts_ms", 1.9), ("ts_ms", "1000"), ("ip_id", True), ("ip_id", 6.99), ("src_ip", 7),
        ("resolver_ip", None),
    ])
    def test_value_of_the_wrong_json_type_is_rejected_not_coerced(self, key, value, tmp_path):
        path = tmp_path / "dns.jsonl"
        valid = {"ts_ms": 1, "src_ip": "a", "ip_id": 7, "resolver_ip": "b", "qname": "x.com"}
        path.write_text(json.dumps({**valid, key: value}) + "\n" + json.dumps(valid) + "\n")
        events, rejected = parse_dns_jsonl(path)
        assert [e.qname for e in events] == ["x.com"]
        assert [(r.line_no, r.reason.split(":")[0]) for r in rejected] == [(1, "malformed")]
        assert key in rejected[0].reason

    @pytest.mark.parametrize("label", [0, False, [], {}, 7, 1.5, True, ["a.b.c"]])
    def test_label_that_is_not_a_string_is_rejected(self, label, tmp_path):
        path = tmp_path / "dns.jsonl"
        valid = {"ts_ms": 1, "src_ip": "a", "ip_id": 7, "resolver_ip": "b", "qname": "x.com"}
        path.write_text(json.dumps({**valid, "label": label}) + "\n" + json.dumps(valid) + "\n")
        events, rejected = parse_dns_jsonl(path)
        assert [e.qname for e in events] == ["x.com"]
        assert [(r.line_no, r.reason) for r in rejected] == [
            (1, f"malformed:label {label!r:.30}: not str")]

    @pytest.mark.parametrize("line", [{}, {"label": None}, {"label": ""}])
    def test_absent_null_or_empty_label_is_unlabeled(self, line, tmp_path):
        path = tmp_path / "dns.jsonl"
        valid = {"ts_ms": 1, "src_ip": "a", "ip_id": 7, "resolver_ip": "b", "qname": "x.com"}
        path.write_text(json.dumps({**valid, **line}) + "\n")
        events, rejected = parse_dns_jsonl(path)
        assert rejected == [] and [e.label for e in events] == [None]

    def test_writer_round_trip(self, tmp_path):
        events = [
            DnsEvent(1000, "10.0.0.2", 7, "8.8.8.8", "a.example", WEBCAM),
            DnsEvent(2000, "10.0.0.3", 9, "8.8.8.8", "b.example", None),
        ]
        path = tmp_path / "dns.jsonl"
        write_dns_jsonl(events, path)
        parsed, rejected = parse_dns_jsonl(path)
        assert rejected == []
        assert parsed == events


_text = st.text(st.characters(codec="utf-8"), max_size=10)
_segment = _text.filter(lambda s: s and "." not in s)
_labels = st.one_of(st.none(), st.just(NON_IOT), st.builds(DeviceModelId, _segment, _segment,
                                                              _segment))
_byte = st.integers(0, 255)
_port = st.integers(0, 65535)
_count = st.integers(0, 2**64 - 1)
_ms = st.integers(-(2**62), 2**62)
_flow_ms = st.integers(0, 2**62)


@st.composite
def _labeled_flows(draw):
    start = draw(_flow_ms)
    flow = FlowRecord(
        ingress_interface=draw(_count), src_ip=draw(_text),
        dst_ip=draw(_text), ip_protocol=draw(_byte), src_port=draw(_port),
        dst_port=draw(_port), tos=draw(_byte), in_bytes=draw(_count), out_bytes=draw(_count),
        src_tos=draw(_byte), dst_tos=draw(_byte), l7_proto_name=draw(_text),
        flow_start_ms=start, flow_end_ms=start + draw(st.integers(0, 2**40)),
    )
    return LabeledFlow(flow=flow, label=draw(_labels), source_mac=draw(_text.filter(bool)))


@given(flows=st.lists(_labeled_flows(), max_size=8))
def test_written_flows_parse_back_unchanged(flows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flows.csv")
        write_flow_csv(FlowDataset(flows), path)
        parsed, rejected = parse_flow_csv(path)
    assert rejected == []
    assert parsed.flows == flows


_cells = st.one_of(_text, st.integers(-10, 70_000).map(str), st.sampled_from(["", NON_IOT, "a.b.c"]))


@given(
    flows=st.lists(_labeled_flows(), max_size=5),
    edits=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), _cells), max_size=8),
    extra=st.lists(st.lists(_cells, min_size=1, max_size=18), max_size=5),
)
def test_any_written_rows_parse_or_are_rejected(flows, edits, extra):
    """Valid rows with some cells replaced, then rows of arbitrary cells:
    each data row becomes a flow or a rejection, and nothing raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flows.csv")
        write_flow_csv(FlowDataset(flows), path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        for row_at, cell_at, cell in edits:
            if rows:
                row = rows[row_at % len(rows)]
                row[cell_at % len(row)] = cell
        rows += extra
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        parsed, rejected = parse_flow_csv(path)
    assert len(parsed) + len(rejected) == len(rows)


_qnames = _text.map(normalize_qname).filter(lambda q: q and normalize_qname(q) == q)
_dns_events = st.builds(
    DnsEvent, timestamp_ms=_ms, observed_src_ip=_text, ip_id=_port, resolver_ip=_text,
    qname=_qnames, label=_labels,
)


@given(events=st.lists(_dns_events, max_size=8))
def test_written_dns_events_parse_back_unchanged(events):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dns.jsonl")
        write_dns_jsonl(events, path)
        parsed, rejected = parse_dns_jsonl(path)
    assert rejected == []
    assert parsed == events


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)
_DNS_KEYS = ["ts_ms", "src_ip", "ip_id", "resolver_ip", "qname", "label"]


@st.composite
def _dns_lines(draw):
    """A line of any text, of any JSON, or of a valid event with one key
    dropped or given any JSON value."""
    kind = draw(st.sampled_from(["text", "json", "edited"]))
    if kind == "text":
        return draw(st.text(st.characters(codec="utf-8", exclude_characters="\r\n")))
    if kind == "json":
        return json.dumps(draw(_json))
    event = draw(_dns_events)
    obj = {"ts_ms": event.timestamp_ms, "src_ip": event.observed_src_ip, "ip_id": event.ip_id,
           "resolver_ip": event.resolver_ip, "qname": event.qname, "label": "a.b.c"}
    key = draw(st.sampled_from(_DNS_KEYS))
    if draw(st.booleans()):
        del obj[key]
    else:
        obj[key] = draw(_json)
    return json.dumps(obj)


@given(lines=st.lists(_dns_lines(), max_size=10))
def test_any_lines_parse_or_are_rejected(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dns.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        events, rejected = parse_dns_jsonl(path)
    assert len(events) + len(rejected) == sum(1 for line in lines if line.strip())

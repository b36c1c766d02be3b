import json

import pytest

from natwatch.flowdata import NON_IOT, DeviceInventory, InventoryEntry
from natwatch.ingest import (
    MissingColumnError,
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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "dns.jsonl"
        path.write_text("")
        assert parse_dns_jsonl(path) == ([], [])

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

import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch.flowdata import (
    NON_IOT,
    ConfigError,
    DeviceInventory,
    DeviceModelId,
    FlowDataset,
    InventoryEntry,
    chronological_split,
    filter_model,
    flow_duration,
    label_flows,
    parse_label,
)

from util import WEBCAM, dataset, make_flow, make_labeled


class TestDeviceModelId:
    def test_canonical_round_trip(self):
        m = DeviceModelId("webcam", "D_Link", "DCS_933L")
        assert m.canonical() == "webcam.D_Link.DCS_933L"
        assert DeviceModelId.parse(m.canonical()) == m

    def test_versions_distinguish_models(self):
        a = DeviceModelId.parse("webcam.D_Link.DCS_933L")
        b = DeviceModelId.parse("webcam.D_Link.DCS_942L")
        assert a != b

    @pytest.mark.parametrize("bad", ["", "webcam", "webcam.D_Link", "a.b.c.d", "..x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            DeviceModelId.parse(bad)

    @pytest.mark.parametrize("segments", [("web.cam", "D_Link", "DCS_933L"),
                                          ("webcam", "D_Link", "DCS.933L")])
    def test_a_segment_holding_a_dot_is_refused(self, segments):
        with pytest.raises(ValueError, match="may not contain '.'"):
            DeviceModelId(*segments)

    def test_non_iot_is_reserved_string(self):
        assert parse_label(NON_IOT) == NON_IOT
        assert parse_label("webcam.D_Link.DCS_933L") == WEBCAM


class TestInventory:
    def test_duplicate_mac_rejected(self):
        with pytest.raises(ValueError, match="MAC"):
            DeviceInventory(
                [
                    InventoryEntry("aa:aa:aa:aa:aa:01", "192.168.1.5", WEBCAM),
                    InventoryEntry("aa:aa:aa:aa:aa:01", "192.168.1.6", NON_IOT),
                ]
            )

    def test_duplicate_ip_rejected(self):
        with pytest.raises(ValueError, match="IP"):
            DeviceInventory(
                [
                    InventoryEntry("aa:aa:aa:aa:aa:01", "192.168.1.5", WEBCAM),
                    InventoryEntry("aa:aa:aa:aa:aa:02", "192.168.1.5", NON_IOT),
                ]
            )


class TestFlowRecord:
    def test_duration(self):
        assert flow_duration(make_flow(flow_start_ms=1000, flow_end_ms=4000)) == 3000

    def test_zero_duration(self):
        assert flow_duration(make_flow(flow_start_ms=5, flow_end_ms=5)) == 0

    def test_eighteen_minute_flow(self):
        # upper end of the observed time-to-detect range
        f = make_flow(flow_start_ms=0, flow_end_ms=1_080_000)
        assert flow_duration(f) == 18 * 60 * 1000

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_flow(flow_start_ms=4000, flow_end_ms=1000)

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            make_flow(dst_port=70000)

    @pytest.mark.parametrize("field", ["in_bytes", "out_bytes", "flow_start_ms", "flow_end_ms",
                                       "ingress_interface"])
    def test_counters_and_timestamps_bounded_to_64_bits(self, field):
        top = {"flow_end_ms": 2**64 - 1} if field == "flow_start_ms" else {}
        make_flow(**top, **{field: 2**64 - 1})
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match=f"out of range: {bad}"):
                make_flow(**top, **{field: bad})


@pytest.fixture
def inventory():
    return DeviceInventory(
        [
            InventoryEntry("aa:aa:aa:aa:aa:01", "192.168.1.5", WEBCAM),
            InventoryEntry("aa:aa:aa:aa:aa:02", "192.168.1.6", NON_IOT),
        ]
    )


ROUTER = "10.0.0.1"


class TestLabelFlows:
    def test_matches_internal_twin(self, inventory):
        external = [make_flow(src_ip=ROUTER)]
        internal = [make_flow(src_ip="192.168.1.5")]
        labeled, rejected = label_flows(external, internal, inventory, ROUTER)
        assert rejected == []
        assert len(labeled) == 1
        assert labeled.flows[0].label == WEBCAM
        assert labeled.flows[0].source_mac == "aa:aa:aa:aa:aa:01"

    def test_an_external_flow_not_from_the_router_is_refused(self, inventory):
        external = [make_flow(src_ip=ROUTER), make_flow(src_ip="10.0.0.9")]
        internal = [make_flow(src_ip="192.168.1.5")]
        with pytest.raises(ValueError, match=r"^external flow src_ip 10\.0\.0\.9 != router "
                                             r"10\.0\.0\.1$"):
            label_flows(external, internal, inventory, ROUTER)

    def test_no_twin_rejected(self, inventory):
        external = [make_flow(src_ip=ROUTER, dst_port=443)]
        internal = [make_flow(src_ip="192.168.1.5")]
        labeled, rejected = label_flows(external, internal, inventory, ROUTER)
        assert len(labeled) == 0
        assert rejected[0].reason == "no-match"

    def test_ambiguous_rejected(self, inventory):
        external = [make_flow(src_ip=ROUTER)]
        internal = [
            make_flow(src_ip="192.168.1.5"),
            make_flow(src_ip="192.168.1.6"),
        ]
        _, rejected = label_flows(external, internal, inventory, ROUTER)
        assert rejected[0].reason == "ambiguous"

    def test_non_overlapping_interval_not_matched(self, inventory):
        external = [make_flow(src_ip=ROUTER, flow_start_ms=100, flow_end_ms=150)]
        internal = [make_flow(src_ip="192.168.1.5", flow_start_ms=200, flow_end_ms=250)]
        _, rejected = label_flows(external, internal, inventory, ROUTER)
        assert rejected[0].reason == "no-match"

    def test_unknown_internal_device_rejected(self, inventory):
        external = [make_flow(src_ip=ROUTER)]
        internal = [make_flow(src_ip="192.168.1.99")]
        _, rejected = label_flows(external, internal, inventory, ROUTER)
        assert rejected[0].reason == "unknown-device"

    def test_labels_come_only_from_inventory(self, inventory):
        external = [make_flow(src_ip=ROUTER, dst_port=p) for p in (53, 123)]
        internal = [
            make_flow(src_ip="192.168.1.5", dst_port=53),
            make_flow(src_ip="192.168.1.6", dst_port=123),
        ]
        labeled, _ = label_flows(external, internal, inventory, ROUTER)
        allowed = {e.model for e in inventory.entries}
        assert all(lf.label in allowed for lf in labeled)


def _device_flows(mac, n, t0=0, step=100):
    return [
        make_labeled(mac=mac, flow_start_ms=t0 + i * step, flow_end_ms=t0 + i * step + 10)
        for i in range(n)
    ]


class TestChronologicalSplit:
    def test_exact_multiples(self):
        split = chronological_split(dataset(*_device_flows("m1", 10)))
        assert (len(split.training), len(split.validation), len(split.test)) == (7, 1, 2)

    def test_floor_rule_13_flows(self):
        # floor(0.7*13)=9, floor(0.8*13)=10
        split = chronological_split(dataset(*_device_flows("m1", 13)))
        assert (len(split.training), len(split.validation), len(split.test)) == (9, 1, 3)

    def test_per_device_independent(self):
        flows = _device_flows("m1", 10, t0=0) + _device_flows("m2", 10, t0=50)
        split = chronological_split(dataset(*flows))
        for part, count in ((split.training, 7), (split.validation, 1), (split.test, 2)):
            for mac in ("m1", "m2"):
                assert sum(1 for lf in part if lf.source_mac == mac) == count

    def test_chronological_order_per_device(self):
        flows = list(reversed(_device_flows("m1", 10)))
        split = chronological_split(dataset(*flows))
        max_train = max(lf.flow.flow_start_ms for lf in split.training)
        min_valid = min(lf.flow.flow_start_ms for lf in split.validation)
        min_test = min(lf.flow.flow_start_ms for lf in split.test)
        assert max_train <= min_valid <= min_test

    def test_partition_property(self):
        flows = _device_flows("m1", 23, step=7)
        split = chronological_split(dataset(*flows))
        recombined = split.training.flows + split.validation.flows + split.test.flows
        assert sorted(
            (lf.flow.flow_start_ms for lf in recombined)
        ) == sorted(lf.flow.flow_start_ms for lf in flows)
        assert len(recombined) == len(flows)

    def test_deterministic_with_ties(self):
        flows = [
            make_labeled(mac="m1", flow_start_ms=100, flow_end_ms=100 + i, dst_port=50 + i)
            for i in range(10)
        ]
        a = chronological_split(dataset(*flows))
        b = chronological_split(dataset(*flows))
        assert [lf.flow for lf in a.training] == [lf.flow for lf in b.training]
        assert [lf.flow for lf in a.test] == [lf.flow for lf in b.test]

    def test_empty_dataset(self):
        split = chronological_split(FlowDataset([]))
        assert len(split.training) == len(split.validation) == len(split.test) == 0

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            chronological_split(dataset(*_device_flows("m1", 10)), (0.5, 0.2, 0.2))

    def test_kept_split_is_built_once_at_the_default_ratios(self):
        d = dataset(*_device_flows("m1", 10))
        split = d.split
        assert d.split is split
        assert split == chronological_split(d)

    def test_other_ratios_split_afresh(self):
        d = dataset(*_device_flows("m1", 10))
        kept = d.split
        other = chronological_split(d, (0.5, 0.3, 0.2))
        assert (len(other.training), len(other.validation), len(other.test)) == (5, 3, 2)
        assert d.split is kept
        assert len(kept.training) == 7


class TestFilterModel:
    def test_keeps_only_matching(self):
        other = DeviceModelId("socket", "TP_Link", "HS110")
        flows = [make_labeled(label=WEBCAM)] * 3 + [make_labeled(label=other)] * 2
        assert len(filter_model(dataset(*flows), WEBCAM)) == 3

    def test_empty_result(self):
        d = dataset(make_labeled(label=WEBCAM))
        assert len(filter_model(d, DeviceModelId("socket", "TP_Link", "HS110"))) == 0

    def test_version_exact_match(self):
        near_miss = DeviceModelId("webcam", "D_Link", "DCS_942L")
        d = dataset(make_labeled(label=WEBCAM))
        assert len(filter_model(d, near_miss)) == 0

    def test_complement_partitions(self):
        other = DeviceModelId("socket", "TP_Link", "HS110")
        flows = [make_labeled(label=WEBCAM)] * 3 + [make_labeled(label=other)] * 2
        d = dataset(*flows)
        kept = filter_model(d, WEBCAM)
        complement = [lf for lf in d if lf.label != WEBCAM]
        assert len(kept) + len(complement) == len(d)


NEAR_MISS = DeviceModelId("webcam", "D_Link", "DCS_942L")  # WEBCAM but for its version
OTHER = DeviceModelId("socket", "TP_Link", "HS110")


@given(labels=st.lists(st.sampled_from([None, NON_IOT, WEBCAM, OTHER, NEAR_MISS]), max_size=40),
       model=st.sampled_from([WEBCAM, OTHER, NEAR_MISS, DeviceModelId("tv", "LG", "OLED55")]))
def test_filter_model_keeps_the_flows_labeled_model_in_order(labels, model):
    flows = [make_labeled(label=label, dst_port=i) for i, label in enumerate(labels)]
    assert filter_model(dataset(*flows), model).flows == [lf for lf in flows if lf.label == model]


def test_label_codes_follow_first_appearance():
    data = dataset(make_labeled(label=NON_IOT), make_labeled(), make_labeled(label=None),
                   make_labeled())
    code_of, codes = data.label_codes
    assert code_of == {NON_IOT: 0, WEBCAM: 1, None: 2}
    assert codes.tolist() == [0, 1, 2, 1]

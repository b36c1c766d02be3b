import functools
import json
import math
import operator
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch.baselines import fit_slope, unwrap_ipid
from natwatch.flowdata import NON_IOT, ConfigError, DeviceModelId
from natwatch.synth import (
    DnsModelSpec,
    ModelTrafficSpec,
    ScenarioSpec,
    builtin_scenario,
    generate_dns,
    generate_flows,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

CAM = DeviceModelId("webcam", "Alphacam", "AC_100")


def tiny_spec(label=CAM, mac="02:00:00:00:01:00", **overrides):
    base = dict(
        label=label,
        port_weights={20000: 1.0},
        protocol_weights={17: 1.0},
        l7_weights={"svc": 1.0},
        macs=[mac],
    )
    base.update(overrides)
    return ModelTrafficSpec(**base)


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            tiny_spec(port_weights={80: 0.5, 443: 0.4})

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(port_weights={80: 1.5, 443: -0.5})

    def test_macs_required(self):
        with pytest.raises(ConfigError):
            ModelTrafficSpec(
                label=CAM,
                port_weights={80: 1.0},
                protocol_weights={6: 1.0},
                l7_weights={"x": 1.0},
                macs=[],
            )

    def test_dns_slope_positive(self):
        with pytest.raises(ConfigError):
            DnsModelSpec(label=CAM, slope_per_request=0, noise=0, qnames=["a.example"])


class TestGenerateFlows:
    def scenario(self, **overrides):
        base = dict(
            name="t",
            specs=[tiny_spec(), tiny_spec(label=NON_IOT, mac="02:00:00:00:02:00")],
            flows_per_device=50,
            seed=3,
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_counts_and_labels(self):
        ds = generate_flows(self.scenario())
        assert len(ds) == 100
        assert sum(1 for lf in ds if lf.label == CAM) == 50
        assert sum(1 for lf in ds if lf.label == NON_IOT) == 50

    def test_deterministic(self):
        a = generate_flows(self.scenario())
        b = generate_flows(self.scenario())
        assert [lf.flow for lf in a] == [lf.flow for lf in b]

    def test_seed_changes_output(self):
        a = generate_flows(self.scenario())
        b = generate_flows(self.scenario(seed=4))
        assert [lf.flow for lf in a] != [lf.flow for lf in b]

    def test_sorted_by_start(self):
        starts = [lf.flow.flow_start_ms for lf in generate_flows(self.scenario())]
        assert starts == sorted(starts)

    def test_spec_distributions_respected(self):
        ds = generate_flows(self.scenario())
        for lf in ds:
            if lf.label == CAM:
                assert lf.flow.dst_port == 20000
                assert lf.flow.ip_protocol == 17
                assert lf.flow.l7_proto_name == "svc"

    def test_adding_device_keeps_existing_streams(self):
        """Per-device RNG streams: an extra later device must not
        perturb earlier devices' flows."""
        small = generate_flows(self.scenario())
        extra = tiny_spec(
            label=DeviceModelId("bulb", "Lumino", "L_5"), mac="02:00:00:00:03:00"
        )
        big = generate_flows(
            self.scenario(
                specs=[
                    tiny_spec(),
                    tiny_spec(label=NON_IOT, mac="02:00:00:00:02:00"),
                    extra,
                ]
            )
        )
        cam_small = [lf.flow for lf in small if lf.label == CAM]
        cam_big = [lf.flow for lf in big if lf.label == CAM]
        assert cam_small == cam_big

    def test_overlap_blends_vocabulary(self):
        other = DeviceModelId("webcam", "Betacam", "BC_200")
        scenario = self.scenario(
            specs=[
                tiny_spec(),
                tiny_spec(label=other, mac="02:00:00:00:01:01",
                          port_weights={30000: 1.0}),
            ],
            overlap_pairs=[("webcam.Alphacam.AC_100", "webcam.Betacam.BC_200", 0.5)],
            flows_per_device=200,
        )
        ds = generate_flows(scenario)
        cam_ports = {lf.flow.dst_port for lf in ds if lf.label == CAM}
        assert cam_ports == {20000, 30000}

    def test_overlap_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            self.scenario(overlap_pairs=[("a.b.c", "d.e.f", 0.5)])


class TestGenerateDns:
    def scenario(self):
        return ScenarioSpec(
            name="t",
            specs=[tiny_spec()],
            dns=[
                DnsModelSpec(
                    label=CAM,
                    slope_per_request=5.0,
                    noise=2,
                    qnames=["a.example", "b.example"],
                    macs=["02:00:00:00:01:00"],
                )
            ],
            dns_events_per_device=150,
            seed=3,
        )

    def test_slope_recoverable(self):
        events = generate_dns(self.scenario())
        assert len(events) == 150
        sm = fit_slope(unwrap_ipid(sorted(events, key=lambda e: e.timestamp_ms)))
        assert abs(sm.slope_per_index - 5.0) / 5.0 < 0.01

    def test_deterministic(self):
        assert generate_dns(self.scenario()) == generate_dns(self.scenario())

    def test_qnames_from_spec(self):
        assert {e.qname for e in generate_dns(self.scenario())} == {
            "a.example",
            "b.example",
        }


class TestSerialization:
    def test_round_trip(self, tmp_path):
        scenario = builtin_scenario("overlap-pair", flows_per_device=20, seed=9)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        restored = load_scenario(path)
        assert scenario_to_dict(restored) == scenario_to_dict(scenario)
        a = generate_flows(scenario)
        b = generate_flows(restored)
        assert [lf.flow for lf in a] == [lf.flow for lf in b]

    def test_deeply_nested_json_is_config_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigError, match="^scenario: "):
            load_scenario(path)

    @pytest.mark.parametrize("path, value", [
        (("specs", 0, "macs"), "02:00"),  # not 5 devices, two of them sharing MAC "0"
        (("dns", 0, "qnames"), "abc"),
        (("specs",), "abc"),
        (("dns",), {"label": "non-IoT"}),
        (("overlap_pairs",), "abc"),
        (("overlap_pairs", 0), "abc"),
        (("overlap_pairs", 0), ["webcam.Alphacam.AC_100", "webcam.Betacam.BC_200"]),
        (("specs", 0, "in_bytes_lognorm"), [6.0, 0.6, 1.0]),
        (("specs", 0, "out_bytes_lognorm"), "ab"),
        (("specs", 0, "duration_lognorm_ms"), [10.0, True]),
        (("specs", 0, "duration_lognorm_ms"), [10.0, "0.5"]),
        (("specs", 0), "abc"),  # a spec that is not an object
        (("specs", 1), [{"label": "non-IoT"}]),
        (("dns", 0), None),
        (("dns", 0, "qnames"), [1, 2, 3]),  # DNS lines parse_dns_jsonl would refuse
        (("specs", 0, "macs"), [None]),
        (("overlap_pairs", 0), ["webcam.Alphacam.AC_100", "webcam.Betacam.BC_200", "half"]),
        (("overlap_pairs", 0), ["webcam.Alphacam.AC_100", None, 0.5]),
        (("overlap_pairs", 0), ["webcam.Alphacam.AC_100", "webcam.Betacam.BC_200", True]),
    ])
    def test_a_list_field_takes_only_a_json_list(self, path, value):
        doc = scenario_to_dict(builtin_scenario("overlap-pair", flows_per_device=10))
        *parents, key = path
        functools.reduce(operator.getitem, parents, doc)[key] = value
        name = [step for step in path if isinstance(step, str)][-1]
        with pytest.raises(ConfigError, match=f"^scenario: malformed field '{name}'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value", [
        (("specs", 0, "in_bytes_lognorm"), [math.nan, 0.2]),
        (("specs", 0, "in_bytes_lognorm"), [3.0, math.nan]),
        (("specs", 0, "out_bytes_lognorm"), [math.inf, 0.2]),
        (("specs", 0, "duration_lognorm_ms"), [5.0, math.inf]),
        (("specs", 0, "mean_iat_s"), math.nan),
        (("specs", 0, "mean_iat_s"), math.inf),
        (("specs", 0, "port_weights"), {"20000": math.nan, "20001": 1.0}),
        (("specs", 0, "protocol_weights"), {"17": math.inf, "6": math.nan}),
        (("specs", 0, "l7_weights"), {"svc_0_a": math.nan}),
        (("dns", 0, "mean_iat_s"), math.nan),
        (("dns", 0, "mean_iat_s"), -1.0),
        (("dns", 0, "slope_per_request"), math.nan),
        (("dns", 0, "slope_per_request"), -math.inf),
    ])
    def test_a_nan_or_infinite_number_is_refused_naming_its_field(self, path, value):
        """NaN passes no spec check: each is refused where the spec is made,
        by the spec's own ConfigError, not wrapped as a malformed list."""
        doc = scenario_to_dict(builtin_scenario("separable-13", flows_per_device=10))
        *parents, key = path
        spec = functools.reduce(operator.getitem, parents, doc)
        spec[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(spec['label'])}\\.{key}: "):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value", [
        (("flows_per_device",), "abc"),
        (("seed",), "1.5"),
        (("dns_events_per_device",), math.inf),
        (("specs", 0, "mean_iat_s"), "abc"),
        (("specs", 0, "mean_iat_s"), 10**400),
        (("specs", 0, "in_bytes_lognorm"), [10**400, 0.2]),
        (("specs", 0, "port_weights"), {"80": "x"}),
        (("specs", 0, "label"), "webcam"),
        (("seed",), 7.9),
        (("seed",), True),
        (("specs", 0, "src_tos"), 1.9),
        (("dns", 0, "noise"), 2.0),
        (("specs", 0, "mean_iat_s"), True),
        (("specs", 0, "port_weights"), {"20000": True}),
        (("name",), 5),
        (("dns", 0, "resolver_ip"), None),
        (("specs", 0, "port_weights"), {" 20000 ": 1.0}),
        (("specs", 0, "port_weights"), {"2_0000": 1.0}),
        (("specs", 0, "port_weights"), {"+7": 1.0}),
        (("specs", 0, "port_weights"), {"\u0663": 1.0}),
        (("specs", 0, "protocol_weights"), {"06": 1.0}),
    ], ids=["int-abc", "int-1.5", "int-inf", "float-abc", "float-10e400", "lognorm-10e400",
            "weight-x", "label", "int-7.9", "int-true", "tos-1.9", "noise-2.0", "float-true",
            "weight-true", "str-5", "str-null", "key-spaces", "key-underscore", "key-plus",
            "key-arabic-indic-3", "key-leading-zero"])
    def test_a_value_its_converter_refuses_names_the_field(self, path, value):
        doc = scenario_to_dict(builtin_scenario("separable-13", flows_per_device=10))
        *parents, key = path
        functools.reduce(operator.getitem, parents, doc)[key] = value
        with pytest.raises(ConfigError, match=f"^scenario: malformed field '{key}'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value, message", [
        (("seed",), -1, "scenario.seed: must be non-negative, got -1"),
        (("flows_per_device",), -3, "scenario.flows_per_device: must be non-negative, got -3"),
        (("flows_per_device",), 10**13, "scenario.flows_per_device: 10000000000000 for each of "
                                        "15 devices is over the limit of 1,000,000 in all"),
        (("dns_events_per_device",), -2,
         "scenario.dns_events_per_device: must be non-negative, got -2"),
        (("dns_events_per_device",), 10**6, "scenario.dns_events_per_device: 1000000 for each "
                                            "of 13 devices is over the limit of 1,000,000 in all"),
        (("dns", 0, "noise"), -2, "webcam.Alphacam.AC_100.noise: must be non-negative, got -2"),
        (("overlap_pairs", 0, 2), 2.0, "overlap fraction out of [0,1]: 2.0"),
        (("overlap_pairs", 0, 1), "a.b.c",
         "overlap pair references unknown model: webcam.Alphacam.AC_100, a.b.c"),
        (("specs", 0, "port_weights"), {"-5": 1.0},
         "webcam.Alphacam.AC_100.port_weights key: must be in 0..65535, got -5"),
        (("specs", 1, "port_weights"), {"20010": 0.5, "99999999": 0.5},
         "webcam.Betacam.BC_200.port_weights key: must be in 0..65535, got 99999999"),
        (("specs", 0, "protocol_weights"), {"300": 1.0},
         "webcam.Alphacam.AC_100.protocol_weights key: must be in 0..255, got 300"),
        (("specs", 0, "src_tos"), 300,
         "webcam.Alphacam.AC_100.src_tos: must be in 0..255, got 300"),
        (("specs", 0, "dst_tos"), -1, "webcam.Alphacam.AC_100.dst_tos: must be in 0..255, got -1"),
        (("dns", 1, "qnames"), ["a.example", ""], "webcam.Betacam.BC_200.qnames: an empty qname"),
        (("dns", 0, "qnames"), [], "webcam.Alphacam.AC_100.qnames: must be non-empty"),
        (("flows_per_device",), 10**400, f"scenario.flows_per_device: {10**29} for each of 15 "
                                         "devices is over the limit of 1,000,000 in all"),
        (("seed",), -10**400, f"scenario.seed: must be non-negative, got -{10**28}"),
    ], ids=["seed-minus-1", "flows-minus-3", "flows-10e13", "dns-events-minus-2",
            "dns-events-10e6", "noise-minus-2", "fraction-2", "pair-unknown", "port-minus-5",
            "port-99999999", "protocol-300", "src-tos-300", "dst-tos-minus-1", "qname-empty",
            "qnames-empty", "flows-10e400", "seed-minus-10e400"])
    def test_a_value_out_of_range_is_refused_when_the_scenario_is_read(self, path, value,
                                                                       message):
        """Each is refused by its spec, naming it, before any row is made:
        numpy's own errors would name no field, and come after files are
        written."""
        doc = scenario_to_dict(builtin_scenario("overlap-pair", flows_per_device=10))
        *parents, key = path
        functools.reduce(operator.getitem, parents, doc)[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("path, key", [
        ((), "flows_per_devise"),
        ((), "specs "),
        (("specs", 0), "mean_iat"),
        (("specs", 2), "label_"),
        (("dns", 0), "slope"),
        (("dns", 1), "resolver"),
    ])
    def test_an_unknown_field_is_refused_naming_it(self, path, key):
        """A misspelled field is refused, not left at its default."""
        doc = scenario_to_dict(builtin_scenario("separable-13", flows_per_device=10))
        functools.reduce(operator.getitem, path, doc)[key] = 1.0
        with pytest.raises(ConfigError, match=f"^scenario: unknown field '{key}'$"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], "abc", None, 5, [{"name": "x", "specs": []}]])
    def test_a_scenario_that_is_not_an_object_is_refused(self, doc):
        with pytest.raises(ConfigError, match="^scenario: expected an object, got "):
            scenario_from_dict(doc)

    def test_an_absent_optional_field_takes_its_dataclass_default(self):
        doc = scenario_to_dict(builtin_scenario("overlap-pair", flows_per_device=10))
        for fields_of, name in [(doc, "seed"), (doc, "dns_events_per_device"),
                                (doc["specs"][0], "mean_iat_s"), (doc["specs"][0], "src_tos"),
                                (doc["dns"][0], "macs"), (doc["dns"][0], "resolver_ip")]:
            del fields_of[name]
        scenario = scenario_from_dict(doc)
        assert (scenario.seed, scenario.dns_events_per_device) == (0, 200)
        assert (scenario.specs[0].mean_iat_s, scenario.specs[0].src_tos) == (60.0, 0)
        assert (scenario.dns[0].macs, scenario.dns[0].resolver_ip) == ([], "8.8.8.8")
        assert scenario.specs[1] == builtin_scenario("overlap-pair").specs[1]

    def test_dict_round_trip_preserves_overlap(self):
        scenario = builtin_scenario("overlap-pair", flows_per_device=10)
        restored = scenario_from_dict(scenario_to_dict(scenario))
        assert restored.overlap_pairs == scenario.overlap_pairs


_OVERLAP_DOC = json.loads(json.dumps(scenario_to_dict(
    builtin_scenario("overlap-pair", flows_per_device=10))))


def _value_paths(node, path=()):
    """The path to each value below node: each leaf, list and object."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@given(path=st.sampled_from(list(_value_paths(_OVERLAP_DOC))), value=_json)
def test_any_json_value_anywhere_is_read_or_refused_as_config_error(path, value):
    """Whatever JSON value takes the place of one in a scenario document,
    reading it gives a scenario or a ConfigError, never another error."""
    doc = json.loads(json.dumps(_OVERLAP_DOC))
    *parents, key = path
    functools.reduce(operator.getitem, parents, doc)[key] = value
    try:
        scenario = scenario_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(scenario, ScenarioSpec)


class TestBuiltinScenarios:
    def test_separable_has_13_models_plus_non_iot(self):
        scenario = builtin_scenario("separable-13", flows_per_device=10)
        labels = [s.label for s in scenario.specs]
        assert sum(1 for x in labels if x != NON_IOT) == 13
        assert sum(1 for x in labels if x == NON_IOT) == 2
        assert len({s.label for s in scenario.specs if s.label != NON_IOT}) == 13
        assert scenario.overlap_pairs == []
        assert len(scenario.dns) == 13

    def test_overlap_pair_targets_first_two(self):
        scenario = builtin_scenario("overlap-pair", flows_per_device=10)
        [(a, b, f)] = scenario.overlap_pairs
        assert a == "webcam.Alphacam.AC_100"
        assert b == "webcam.Betacam.BC_200"
        assert f == 0.5

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            builtin_scenario("nope")

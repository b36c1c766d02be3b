import pytest

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
        scenario = self.scenario(overlap_pairs=[("a.b.c", "d.e.f", 0.5)])
        with pytest.raises(ConfigError):
            generate_flows(scenario)


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

    def test_dict_round_trip_preserves_overlap(self):
        scenario = builtin_scenario("overlap-pair", flows_per_device=10)
        restored = scenario_from_dict(scenario_to_dict(scenario))
        assert restored.overlap_pairs == scenario.overlap_pairs


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

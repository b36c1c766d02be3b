"""Deterministic synthetic traffic generator: labeled flow datasets and
DNS event streams for desk-scale testing of the whole pipeline."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from natwatch.flowdata import (
    NON_IOT,
    ConfigError,
    DeviceModelId,
    FlowDataset,
    FlowRecord,
    Label,
    LabeledFlow,
    format_label,
    parse_label,
)
from natwatch.ingest import DnsEvent

BASE_EPOCH_MS = 1_600_000_000_000
# The most flows, and the most DNS events, one scenario may generate. A
# generated flow is held as Python objects until it is written, about 933
# bytes a flow, so the flows of a scenario at the limit take about 0.9 GB.
ROW_LIMIT = 1_000_000


# Each spec check passes only what is valid, so NaN, which fails every comparison, fails it
def _check_weights(name: str, weights: dict) -> None:
    if not weights:
        raise ConfigError(f"{name}: empty weight map")
    if not all(math.isfinite(w) and w >= 0 for w in weights.values()):
        raise ConfigError(f"{name}: negative or non-finite weight")
    total = sum(weights.values())
    if not abs(total - 1.0) <= 1e-6:
        raise ConfigError(f"{name}: weights sum to {total}, expected 1")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name}: must be finite and positive, got {value}")


def _check_range(name: str, value: int, high: int) -> None:
    if not 0 <= value <= high:
        raise ConfigError(f"{name}: must be in 0..{high}, got {value!r:.30}")


@dataclass
class ModelTrafficSpec:
    """Sampling distributions for one device model's flows."""

    label: Label
    port_weights: dict[int, float]
    protocol_weights: dict[int, float]
    l7_weights: dict[str, float]
    macs: list[str]
    src_tos: int = 0
    dst_tos: int = 0
    in_bytes_lognorm: tuple[float, float] = (6.0, 0.6)
    out_bytes_lognorm: tuple[float, float] = (5.0, 0.6)
    duration_lognorm_ms: tuple[float, float] = (10.0, 0.5)
    mean_iat_s: float = 60.0

    def __post_init__(self):
        name = format_label(self.label)
        _check_weights(f"{name}.port_weights", self.port_weights)
        _check_weights(f"{name}.protocol_weights", self.protocol_weights)
        _check_weights(f"{name}.l7_weights", self.l7_weights)
        for port in self.port_weights:
            _check_range(f"{name}.port_weights key", port, 65535)
        for protocol in self.protocol_weights:
            _check_range(f"{name}.protocol_weights key", protocol, 255)
        _check_range(f"{name}.src_tos", self.src_tos, 255)
        _check_range(f"{name}.dst_tos", self.dst_tos, 255)
        for field_name in ("in_bytes_lognorm", "out_bytes_lognorm", "duration_lognorm_ms"):
            mu, sigma = getattr(self, field_name)
            if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0):
                raise ConfigError(f"{name}.{field_name}: needs a finite mu and a finite, "
                                  f"positive sigma, got {mu}, {sigma}")
        _check_positive(f"{name}.mean_iat_s", self.mean_iat_s)
        if not self.macs:
            raise ConfigError(f"{name}: at least one device MAC required")


@dataclass
class DnsModelSpec:
    """IP-ID slope and queried names for one model's DNS stream."""

    label: Label
    slope_per_request: float
    qnames: list[str]
    noise: int = 0
    mean_iat_s: float = 30.0
    resolver_ip: str = "8.8.8.8"
    macs: list[str] = field(default_factory=list)

    def __post_init__(self):
        name = format_label(self.label)
        _check_positive(f"{name}.slope_per_request", self.slope_per_request)
        _check_positive(f"{name}.mean_iat_s", self.mean_iat_s)
        if not self.qnames:
            raise ConfigError(f"{name}.qnames: must be non-empty")
        if not all(self.qnames):
            raise ConfigError(f"{name}.qnames: an empty qname")
        if self.noise < 0:
            raise ConfigError(f"{name}.noise: must be non-negative, got {self.noise!r:.30}")


@dataclass
class ScenarioSpec:
    name: str
    specs: list[ModelTrafficSpec]
    flows_per_device: int = 1000
    seed: int = 0
    # (label_a, label_b, fraction): blend that fraction of each other's
    # port/l7 mass into both models, emulating shared backend domains.
    overlap_pairs: list[tuple[str, str, float]] = field(default_factory=list)
    dns: list[DnsModelSpec] = field(default_factory=list)
    dns_events_per_device: int = 200

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"scenario.seed: must be non-negative, got {self.seed!r:.30}")
        devices = {"flows_per_device": sum(len(s.macs) for s in self.specs),
                   "dns_events_per_device": sum(len(d.macs) or 1 for d in self.dns)}
        for field_name, count in devices.items():
            per_device = getattr(self, field_name)
            if per_device < 0:
                raise ConfigError(f"scenario.{field_name}: must be non-negative, "
                                  f"got {per_device!r:.30}")
            if per_device * count > ROW_LIMIT:
                raise ConfigError(f"scenario.{field_name}: {per_device!r:.30} for each of {count} "
                                  f"devices is over the limit of {ROW_LIMIT:,} in all")
        names = {format_label(s.label) for s in self.specs}
        for name_a, name_b, fraction in self.overlap_pairs:
            if name_a not in names or name_b not in names:
                raise ConfigError(f"overlap pair references unknown model: {name_a}, {name_b}")
            if not 0.0 <= fraction <= 1.0:
                raise ConfigError(f"overlap fraction out of [0,1]: {fraction}")


def _blend(a: dict, b: dict, fraction: float) -> dict:
    out: dict = {}
    for k, w in a.items():
        out[k] = out.get(k, 0.0) + (1.0 - fraction) * w
    for k, w in b.items():
        out[k] = out.get(k, 0.0) + fraction * w
    return out


def _apply_overlap(scenario: ScenarioSpec) -> list[ModelTrafficSpec]:
    specs = {format_label(s.label): s for s in scenario.specs}
    blended = dict(specs)
    for name_a, name_b, fraction in scenario.overlap_pairs:
        a, b = specs[name_a], specs[name_b]
        for src, other in ((a, b), (b, a)):
            blended[format_label(src.label)] = replace(
                src,
                port_weights=_blend(src.port_weights, other.port_weights, fraction),
                l7_weights=_blend(src.l7_weights, other.l7_weights, fraction),
            )
    return [blended[format_label(s.label)] for s in scenario.specs]


def _device_rng(seed: int, stream: str, device_index: int) -> np.random.Generator:
    stream_key = 0 if stream == "flows" else 1
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_key, device_index))
    return np.random.Generator(np.random.PCG64(ss))


def _weighted_choice(rng: np.random.Generator, weights: dict, n: int) -> list:
    keys = list(weights.keys())
    p = np.array([weights[k] for k in keys], dtype=float)
    p = p / p.sum()
    idx = rng.choice(len(keys), size=n, p=p)
    return [keys[i] for i in idx]


def generate_flows(scenario: ScenarioSpec) -> FlowDataset:
    """Generate the scenario's labeled flow dataset, deterministically
    for a given seed."""
    specs = _apply_overlap(scenario)
    all_flows: list[LabeledFlow] = []
    device_index = 0
    for spec_index, spec in enumerate(specs):
        for mac in spec.macs:
            rng = _device_rng(scenario.seed, "flows", device_index)
            n = scenario.flows_per_device
            src_ip = f"192.168.{1 + device_index // 200}.{10 + device_index % 200}"
            dst_ips = [f"203.0.113.{(spec_index * 3 + j) % 250 + 1}" for j in range(3)]
            iats_ms = rng.exponential(spec.mean_iat_s, size=n) * 1000.0
            starts = BASE_EPOCH_MS + np.cumsum(iats_ms).astype(np.int64)
            durations = rng.lognormal(*spec.duration_lognorm_ms, size=n).astype(np.int64)
            in_bytes = rng.lognormal(*spec.in_bytes_lognorm, size=n).astype(np.int64) + 1
            out_bytes = rng.lognormal(*spec.out_bytes_lognorm, size=n).astype(np.int64)
            ports = _weighted_choice(rng, spec.port_weights, n)
            protocols = _weighted_choice(rng, spec.protocol_weights, n)
            l7s = _weighted_choice(rng, spec.l7_weights, n)
            for i in range(n):
                flow = FlowRecord(
                    ingress_interface=1,
                    src_ip=src_ip,
                    dst_ip=dst_ips[int(rng.integers(3))],
                    ip_protocol=int(protocols[i]),
                    src_port=int(rng.integers(32768, 61000)),
                    dst_port=int(ports[i]),
                    tos=spec.src_tos,
                    in_bytes=int(in_bytes[i]),
                    out_bytes=int(out_bytes[i]),
                    src_tos=spec.src_tos,
                    dst_tos=spec.dst_tos,
                    l7_proto_name=str(l7s[i]),
                    flow_start_ms=int(starts[i]),
                    flow_end_ms=int(starts[i] + durations[i]),
                )
                all_flows.append(LabeledFlow(flow=flow, label=spec.label, source_mac=mac))
            device_index += 1
    all_flows.sort(key=lambda lf: lf.flow.flow_start_ms)
    return FlowDataset(all_flows)


def generate_dns(scenario: ScenarioSpec) -> list[DnsEvent]:
    """Generate DNS events whose unwrapped IP-IDs grow linearly with
    the configured slope plus bounded integer noise, wrapping mod 2^16."""
    events: list[DnsEvent] = []
    device_index = 0
    for spec in scenario.dns:
        macs = spec.macs or ["02:00:00:00:00:00"]
        for _mac in macs:
            rng = _device_rng(scenario.seed, "dns", device_index)
            n = scenario.dns_events_per_device
            src_ip = f"192.168.9.{10 + device_index % 200}"
            iats_ms = rng.exponential(spec.mean_iat_s, size=n) * 1000.0
            times = BASE_EPOCH_MS + np.cumsum(iats_ms).astype(np.int64)
            base = int(rng.integers(0, 65536))
            for i in range(n):
                noise = int(rng.integers(-spec.noise, spec.noise + 1)) if spec.noise else 0
                unwrapped = base + int(round(spec.slope_per_request * i)) + noise
                events.append(
                    DnsEvent(
                        timestamp_ms=int(times[i]),
                        observed_src_ip=src_ip,
                        ip_id=unwrapped % 65536,
                        resolver_ip=spec.resolver_ip,
                        qname=spec.qnames[int(rng.integers(len(spec.qnames)))],
                        label=spec.label,
                    )
                )
            device_index += 1
    events.sort(key=lambda e: e.timestamp_ms)
    return events


# ---------------------------------------------------------------------------
# Scenario (de)serialization and built-in presets

def _encode(value):
    """value as JSON data: a dataclass as an object of its fields in
    declaration order, a label in canonical form, and map keys as
    strings."""
    if isinstance(value, DeviceModelId):
        return value.canonical()
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def scenario_to_dict(s: ScenarioSpec) -> dict:
    return _encode(s)


def _decode(cls, obj):
    """The cls that obj, a scenario_to_dict object, describes: each field
    present is read as its annotation says, and each absent one takes the
    dataclass default. A missing, malformed or unknown field raises
    ConfigError naming it; a nested spec's own ConfigError passes
    through. obj not a JSON object is a TypeError."""
    if type(obj) is not dict:
        raise TypeError(f"expected an object, got {obj!r:.40}")
    kinds = get_type_hints(cls)  # each field's annotation, by field name
    for key in obj:
        if key not in kinds:
            raise ConfigError(f"scenario: unknown field {key!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"scenario: missing field {f.name!r}")
            continue
        try:
            kwargs[f.name] = _read(kinds[f.name], obj[f.name])
        except ConfigError:
            raise
        # ValueError: int("abc") as a map key; OverflowError: float(10**400)
        except (TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"scenario: malformed field {f.name!r}: {exc}") from None
    return cls(**kwargs)


def _read(kind, value):
    """value, JSON data, as the annotation kind: a label in canonical form,
    a dataclass from an object, a list or a tuple only from a JSON list (a
    string is not read as its characters; a tuple takes a list of its own
    length), and a map's keys through the key type, an int key only in
    canonical decimal form. A scalar takes its JSON
    type exactly, and nothing is coerced: a bool is no int, 7.9 no int and
    "1" no number; only a float also takes an integer."""
    if kind == Label:  # before the dataclass branch: a DeviceModelId is a dataclass
        return parse_label(value)
    if is_dataclass(kind):
        return _decode(kind, value)
    origin, args = get_origin(kind), get_args(kind)
    if origin is dict:
        key, item = args
        read = {}
        for k, v in value.items():
            # int(k) also reads " 7", "+7", "0_7" and an Arabic-Indic 7 as 7
            if key is int and str(int(k)) != k:
                raise ValueError(f"map key {k!r:.30} is not an int in canonical form")
            read[key(k)] = _read(item, v)
        return read
    if origin in (list, tuple):
        length = len(args) if origin is tuple else None
        if type(value) is not list or length is not None and len(value) != length:
            items = "" if length is None else f" of {length} items"
            raise TypeError(f"expected a list{items}, got {value!r:.40}")
        if origin is list:
            return [_read(args[0], v) for v in value]
        return tuple(map(_read, args, value))
    exact = (float, int) if kind is float else (kind,)
    if type(value) not in exact:
        names = " or ".join(t.__name__ for t in exact)
        raise TypeError(f"expected {names}, got {value!r:.40}")
    return kind(value)


def scenario_from_dict(d: dict) -> ScenarioSpec:
    """The scenario a scenario_to_dict document describes. A missing,
    malformed or unknown field raises ConfigError naming the field; a spec
    that fails a spec check raises its own ConfigError, naming the spec."""
    try:
        return _decode(ScenarioSpec, d)
    except TypeError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def save_scenario(scenario: ScenarioSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)


def load_scenario(path) -> ScenarioSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:  # JSON nested deeper than the parser's stack
            raise ConfigError(f"scenario: {exc}") from None
    return scenario_from_dict(doc)


_DEVICE_TYPES = [
    ("webcam", "Alphacam", "AC_100"),
    ("webcam", "Betacam", "BC_200"),
    ("socket", "Plugsmith", "PS_10"),
    ("socket", "Wattly", "W_22"),
    ("bulb", "Lumino", "L_5"),
    ("doorbell", "Ringer", "R_31"),
    ("thermostat", "Heatware", "H_7"),
    ("speaker", "Boomo", "B_44"),
    ("vacuum", "Sweepix", "S_90"),
    ("sensor", "Enviro", "E_12"),
    ("tv", "Screenly", "T_55"),
    ("hub", "Bridgely", "G_2"),
    ("printer", "Inkjetta", "P_300"),
]


def _iot_spec(i: int, type_make_version: tuple[str, str, str]) -> ModelTrafficSpec:
    t, make, version = type_make_version
    model = DeviceModelId(t, make, version)
    base_port = 20000 + 10 * i
    # The first two models (a webcam pair) share their numeric traffic
    # character and are separated by port/L7 vocabulary only, so the
    # overlap knob meaningfully confuses them; the rest also differ in
    # byte/duration scales along independent gradients.
    numeric_i = 0 if i in (0, 1) else i
    return ModelTrafficSpec(
        label=model,
        port_weights={base_port: 0.6, base_port + 1: 0.3, base_port + 2: 0.1},
        protocol_weights={17: 0.7, 6: 0.3},
        l7_weights={f"svc_{i}_a": 0.7, f"svc_{i}_b": 0.3},
        src_tos=0,
        dst_tos=0,
        in_bytes_lognorm=(3.0 + 0.8 * numeric_i, 0.2),
        out_bytes_lognorm=(12.1 - 0.8 * numeric_i, 0.2),
        duration_lognorm_ms=(5.0 + 0.8 * ((numeric_i * 5) % 13), 0.2),
        mean_iat_s=45.0 + 5.0 * i,
        macs=[f"02:00:00:00:01:{i:02x}"],
    )


def _non_iot_spec(j: int) -> ModelTrafficSpec:
    return ModelTrafficSpec(
        label=NON_IOT,
        port_weights={80: 0.3, 443: 0.5, 8080: 0.1, 53: 0.1},
        protocol_weights={6: 0.85, 17: 0.15},
        l7_weights={"HTTP": 0.3, "SSL": 0.5, "DNS": 0.2},
        src_tos=0,
        dst_tos=0,
        in_bytes_lognorm=(8.0, 1.2),
        out_bytes_lognorm=(7.5, 1.2),
        duration_lognorm_ms=(9.0, 1.2),
        mean_iat_s=20.0,
        macs=[f"02:00:00:00:02:{j:02x}"],
    )


def _dns_spec(i: int, label: Label, mac: str) -> DnsModelSpec:
    return DnsModelSpec(
        label=label,
        slope_per_request=3.0 + 2.0 * i,
        noise=2,
        qnames=[f"m{i}-{c}.devices.example" for c in ("api", "ntp", "fw", "cdn")],
        mean_iat_s=30.0,
        macs=[mac],
    )


def builtin_scenario(name: str, flows_per_device: int = 2000, seed: int = 7) -> ScenarioSpec:
    """Built-in scenario presets.

    "separable-13": 13 IoT models with disjoint port/L7 vocabularies
    plus two non-IoT devices. "overlap-pair": the same population with
    the first two webcams' port/L7 distributions blended half-and-half,
    making the pair indistinguishable by vocabulary.
    """
    if name not in ("separable-13", "overlap-pair"):
        raise ConfigError(f"unknown scenario: {name}")
    specs = [_iot_spec(i, tmv) for i, tmv in enumerate(_DEVICE_TYPES)]
    specs += [_non_iot_spec(j) for j in range(2)]
    dns = [
        _dns_spec(i, spec.label, spec.macs[0])
        for i, spec in enumerate(specs[: len(_DEVICE_TYPES)])
    ]
    overlap = []
    if name == "overlap-pair":
        overlap = [(specs[0].label, specs[1].label, 0.5)]
        overlap = [(format_label(a), format_label(b), f) for a, b, f in overlap]
    return ScenarioSpec(
        name=name,
        specs=specs,
        flows_per_device=flows_per_device,
        seed=seed,
        overlap_pairs=overlap,
        dns=dns,
    )

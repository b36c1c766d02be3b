"""Per-model feature schema: min-max scaling of the numeric flow
features and one-hot encoding of the categorical ones, fitted on
training flows only."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from natwatch.flowdata import DeviceModelId, FlowDataset, FlowRecord, flow_duration

NUMERIC_FEATURES = ("in_bytes", "out_bytes", "flow_duration")
# Each categorical feature, with the type of its values as FlowRecord holds them
CATEGORICAL_FEATURES = {"protocol": int, "l4_dst_port": int, "l7_proto_name": str,
                        "src_tos": int, "dst_tos": int}


class InsufficientDataError(ValueError):
    pass


def _exact(value, kind: type, name: str, low=None, high=math.inf):
    """value if its type is kind (a bool is no int) and, given low, in [low,
    high), else ValueError: nothing loaded is coerced, so it saves back the same."""
    if type(value) is not kind or low is not None and not low <= value < high:
        raise ValueError(f"{name} {value!r:.30}: not {kind.__name__}"
                         + (f" in [{low}, {high})" if low is not None else ""))
    return value


def _numeric_values(flow: FlowRecord) -> tuple[float, float, float]:
    return (float(flow.in_bytes), float(flow.out_bytes), float(flow_duration(flow)))


def _categorical_values(flow: FlowRecord) -> tuple:
    return (flow.ip_protocol, flow.dst_port, flow.l7_proto_name, flow.src_tos, flow.dst_tos)


@dataclass
class FeatureSchema:
    """Fitted feature transformation for one device model.

    Numeric features scale to [0,1] on the training range (values
    outside it are not clipped; a constant feature maps to 0). Each
    categorical feature expands into one dummy column per distinct
    training value, ordered by first appearance; unseen values encode
    as an all-zero block.
    """

    model: DeviceModelId
    numeric_ranges: dict[str, tuple[float, float]]
    categories: dict[str, list]

    def __post_init__(self):
        features = (set(self.numeric_ranges), set(self.categories))
        if features != (set(NUMERIC_FEATURES), set(CATEGORICAL_FEATURES)):
            raise ValueError("schema features differ from NUMERIC_FEATURES/CATEGORICAL_FEATURES")
        for name, (lo, hi) in self.numeric_ranges.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"bad range [{lo}, {hi}] for numeric feature {name}")
        for name, vocab in self.categories.items():
            if len(set(vocab)) != len(vocab):
                raise ValueError(f"duplicate category value in {name}")
        self._index = {
            name: {v: i for i, v in enumerate(vocab)}
            for name, vocab in self.categories.items()
        }

    @property
    def dimension(self) -> int:
        return len(NUMERIC_FEATURES) + sum(len(v) for v in self.categories.values())

    def to_dict(self) -> dict:
        return {
            "model": self.model.canonical(),
            "numeric_ranges": {k: list(v) for k, v in self.numeric_ranges.items()},
            "categories": self.categories,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        """The schema to_dict wrote: each range a list of two floats, each
        vocabulary a list of its feature's values, each of its type in
        CATEGORICAL_FEATURES. Anything else is a ValueError, not coerced."""
        schema = cls(
            model=DeviceModelId.parse(d["model"]),
            numeric_ranges={k: tuple(_exact(bound, float, f"{k} bound")
                                     for bound in _exact(v, list, f"{k} range"))
                            for k, v in d["numeric_ranges"].items()},
            categories={k: _exact(v, list, f"{k} vocabulary") for k, v in d["categories"].items()},
        )
        for name, kind in CATEGORICAL_FEATURES.items():
            for value in schema.categories[name]:
                _exact(value, kind, f"{name} value")
        return schema


def fit_schema(training: FlowDataset, m: DeviceModelId) -> FeatureSchema:
    """Fit the schema on model-m training flows only."""
    if len(training) == 0:
        raise InsufficientDataError("insufficient-data: empty training set")
    for lf in training:
        if lf.label != m:
            raise ValueError(f"training flow labeled {lf.label}, expected {m}")

    numerics = zip(NUMERIC_FEATURES, zip(*(_numeric_values(lf.flow) for lf in training)))
    categories = zip(CATEGORICAL_FEATURES, zip(*(_categorical_values(lf.flow) for lf in training)))
    return FeatureSchema(
        model=m,
        numeric_ranges={name: (min(v), max(v)) for name, v in numerics},
        categories={name: list(dict.fromkeys(v)) for name, v in categories},
    )


def transform(schema: FeatureSchema, flow: FlowRecord) -> np.ndarray:
    """Map one flow to a fixed-length vector: transform_many of one flow."""
    return transform_many(schema, [flow])[0]


def transform_many(schema: FeatureSchema, flows: list[FlowRecord]) -> np.ndarray:
    """Vectorize flows into an (n, dimension) matrix: the one transform."""
    n = len(flows)
    out = np.zeros((n, schema.dimension))
    ranges = [schema.numeric_ranges[name] for name in NUMERIC_FEATURES]
    cat_offsets = []
    offset = len(NUMERIC_FEATURES)
    for name in CATEGORICAL_FEATURES:
        cat_offsets.append((name, offset, schema._index[name]))
        offset += len(schema.categories[name])
    for r, flow in enumerate(flows):
        for i, x in enumerate(_numeric_values(flow)):
            lo, hi = ranges[i]
            out[r, i] = (x - lo) / (hi - lo) if hi > lo else 0.0
        for (name, off, index), value in zip(cat_offsets, _categorical_values(flow)):
            j = index.get(value)
            if j is not None:
                out[r, off + j] = 1.0
    return out

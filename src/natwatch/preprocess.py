"""Per-model feature schema: min-max scaling of the numeric flow
features and one-hot encoding of the categorical ones, fitted on
training flows only."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, count
from operator import attrgetter
from typing import Sequence, Union

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


# The FlowRecord field each categorical feature reads, in feature order
_CATEGORICAL_FIELDS = tuple(map(attrgetter, ("ip_protocol", "dst_port", "l7_proto_name",
                                             "src_tos", "dst_tos")))


@dataclass(frozen=True)
class FlowColumns:
    """A batch of flows read once into raw columns, which every schema
    encodes without walking the flows again.

    `numeric` is an (n, 3) float64 matrix of the numeric features, each
    row as _numeric_values gives it. For each categorical feature,
    `values` maps the batch's distinct values, in order of first
    appearance, to their codes, which number the values of all features
    laid end to end; `codes` is (5, n) int32, codes[f, r] the code of row
    r's value of feature f (there are at most a few hundred codes, so a
    row takes 20 bytes rather than intp's 40).
    """

    numeric: np.ndarray
    values: tuple[dict, ...]
    codes: np.ndarray


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
        # what transform_many reads, in feature order: each numeric feature's
        # lo, span and whether it scales (hi > lo; else it maps to +0.0), and
        # each categorical feature's first column and its value -> column index
        ranges = [self.numeric_ranges[name] for name in NUMERIC_FEATURES]
        self._lo = np.array([lo for lo, _ in ranges])
        self._span = np.array([hi - lo for lo, hi in ranges])
        self._scaled = np.array([hi > lo for lo, hi in ranges])
        vocabs = [self.categories[name] for name in CATEGORICAL_FEATURES]
        self._offsets = list(accumulate([len(NUMERIC_FEATURES)] + [len(v) for v in vocabs]))
        self._dimension = self._offsets.pop()
        self._indexes = [{v: i for i, v in enumerate(vocab)} for vocab in vocabs]

    @property
    def dimension(self) -> int:
        return self._dimension

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
    """Fit the schema on model-m training flows only, from their columns."""
    if len(training) == 0:
        raise InsufficientDataError("insufficient-data: empty training set")
    code_of, _ = training.label_codes
    for label in code_of:
        if label != m:
            raise ValueError(f"training flow labeled {label}, expected {m}")

    columns = flow_columns(training)
    lows, highs = columns.numeric.min(axis=0).tolist(), columns.numeric.max(axis=0).tolist()
    return FeatureSchema(
        model=m,
        numeric_ranges={name: (lo, hi) for name, lo, hi in zip(NUMERIC_FEATURES, lows, highs)},
        categories={name: list(v) for name, v in zip(CATEGORICAL_FEATURES, columns.values)},
    )


def flow_columns(flows: Union[FlowDataset, Sequence[FlowRecord]]) -> FlowColumns:
    """The raw columns of a batch of flows. A FlowDataset's are built at
    first use and kept with it, so each schema that encodes it reuses them."""
    if isinstance(flows, FlowDataset):
        if flows.columns is None:
            flows.columns = flow_columns([lf.flow for lf in flows])
        return flows.columns
    n = len(flows)
    numeric = np.fromiter(chain.from_iterable(map(_numeric_values, flows)), np.float64,
                          n * len(NUMERIC_FEATURES)).reshape(n, len(NUMERIC_FEATURES))
    values, base = [], 0
    for get in _CATEGORICAL_FIELDS:
        values.append(dict(zip(dict.fromkeys(map(get, flows)), count(base))))
        base += len(values[-1])
    codes = np.fromiter(chain.from_iterable(map(coded.__getitem__, map(get, flows))
                                            for get, coded in zip(_CATEGORICAL_FIELDS, values)),
                        np.int32, n * len(values)).reshape(len(values), n)
    return FlowColumns(numeric, tuple(values), codes)


def transform(schema: FeatureSchema, flow: FlowRecord) -> np.ndarray:
    """Map one flow to a fixed-length vector: transform_many of one flow."""
    return transform_many(schema, [flow])[0]


def transform_many(schema: FeatureSchema,
                   flows: Union[FlowColumns, Sequence[FlowRecord]]) -> np.ndarray:
    """Vectorize flows, or their columns, into an (n, dimension) matrix:
    the one transform."""
    columns = flows if isinstance(flows, FlowColumns) else flow_columns(flows)
    n = len(columns.numeric)
    out = np.zeros((n, schema.dimension))
    # each distinct value of the batch -> its one-hot column, or 0 if unseen;
    # an unseen value writes its 0.0 to column 0, which the numerics then set
    lut = np.array([index.get(v, -off) + off
                    for index, off, values in zip(schema._indexes, schema._offsets, columns.values)
                    for v in values], dtype=np.intp)
    hot = lut[columns.codes]
    out[np.arange(n), hot] = hot > 0
    with np.errstate(over="ignore"):  # a loaded span may be subnormal: the value is inf
        np.divide(columns.numeric - schema._lo, schema._span, out=out[:, :len(NUMERIC_FEATURES)],
                  where=schema._scaled)
    return out

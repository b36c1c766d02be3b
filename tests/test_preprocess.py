import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from natwatch import preprocess
from natwatch.preprocess import (
    CATEGORICAL_FEATURES,
    NUMERIC_FEATURES,
    InsufficientDataError,
    FeatureSchema,
    fit_schema,
    flow_columns,
    transform,
    transform_many,
)
from natwatch.flowdata import NON_IOT, DeviceModelId, FlowDataset, LabeledFlow, filter_model

from util import WEBCAM, dataset, make_labeled, make_flow


def training_set():
    return dataset(
        make_labeled(in_bytes=100, dst_port=53, l7_proto_name="DNS"),
        make_labeled(in_bytes=300, dst_port=123, l7_proto_name="NTP"),
        make_labeled(in_bytes=200, dst_port=443, l7_proto_name="SSL"),
    )


class TestFitSchema:
    def test_numeric_ranges_from_training(self):
        schema = fit_schema(training_set(), WEBCAM)
        assert schema.numeric_ranges["in_bytes"] == (100.0, 300.0)

    def test_midpoint_scales_to_half(self):
        schema = fit_schema(training_set(), WEBCAM)
        v = transform(schema, make_flow(in_bytes=200, dst_port=53))
        assert v[0] == pytest.approx(0.5)

    def test_port_vocabulary_size(self):
        schema = fit_schema(training_set(), WEBCAM)
        assert schema.categories["l4_dst_port"] == [53, 123, 443]

    def test_dimension(self):
        schema = fit_schema(training_set(), WEBCAM)
        # 3 numeric + 1 protocol + 3 ports + 3 l7 + 1 src_tos + 1 dst_tos
        assert schema.dimension == 3 + 1 + 3 + 3 + 1 + 1

    def test_empty_training_raises(self):
        with pytest.raises(InsufficientDataError):
            fit_schema(FlowDataset([]), WEBCAM)

    def test_wrong_label_raises(self):
        from natwatch.flowdata import DeviceModelId

        bad = dataset(make_labeled(label=DeviceModelId("socket", "TP_Link", "HS110")))
        with pytest.raises(ValueError):
            fit_schema(bad, WEBCAM)

    def test_constant_duration_degenerate(self):
        flows = dataset(
            make_labeled(flow_start_ms=0, flow_end_ms=0),
            make_labeled(flow_start_ms=5, flow_end_ms=5),
        )
        schema = fit_schema(flows, WEBCAM)
        assert schema.numeric_ranges["flow_duration"] == (0.0, 0.0)
        v = transform(schema, make_flow(flow_start_ms=0, flow_end_ms=900))
        assert v[2] == 0.0


class TestTransform:
    def test_endpoints(self):
        schema = fit_schema(training_set(), WEBCAM)
        assert transform(schema, make_flow(in_bytes=100))[0] == 0.0
        assert transform(schema, make_flow(in_bytes=300))[0] == 1.0

    def test_out_of_range_not_clipped(self):
        schema = fit_schema(training_set(), WEBCAM)
        assert transform(schema, make_flow(in_bytes=500))[0] == pytest.approx(2.0)

    def test_unseen_category_all_zero_block(self):
        schema = fit_schema(training_set(), WEBCAM)
        v = transform(schema, make_flow(dst_port=8080))
        offset = 3 + len(schema.categories["protocol"])
        block = v[offset : offset + 3]
        assert list(block) == [0.0, 0.0, 0.0]

    def test_one_hot_single_one(self):
        schema = fit_schema(training_set(), WEBCAM)
        v = transform(schema, make_flow(dst_port=123))
        offset = 3 + len(schema.categories["protocol"])
        assert list(v[offset : offset + 3]) == [0.0, 1.0, 0.0]

    def test_training_values_in_unit_interval(self):
        train = training_set()
        schema = fit_schema(train, WEBCAM)
        for lf in train:
            v = transform(schema, lf.flow)
            assert np.all(v[:3] >= 0.0) and np.all(v[:3] <= 1.0)

    def test_vector_length_matches_dimension(self):
        schema = fit_schema(training_set(), WEBCAM)
        assert transform(schema, make_flow(dst_port=9)).shape == (schema.dimension,)

    def test_transform_many_matches_single(self):
        schema = fit_schema(training_set(), WEBCAM)
        flows = [make_flow(in_bytes=b, dst_port=p) for b, p in ((100, 53), (999, 1))]
        X = transform_many(schema, flows)
        for i, f in enumerate(flows):
            assert np.array_equal(X[i], transform(schema, f))

    def test_overflow_past_a_subnormal_span_is_inf_without_a_warning(self):
        """A loaded schema may hold a span no fit gives: a scaled value past
        the largest double is inf, quietly."""
        d = fit_schema(training_set(), WEBCAM).to_dict()
        d["numeric_ranges"]["in_bytes"] = [0.0, 5e-324]
        schema = FeatureSchema.from_dict(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = transform_many(schema, [make_flow(in_bytes=2**63)])
        assert v[0, 0] == np.inf

    def test_serialization_round_trip(self):
        schema = fit_schema(training_set(), WEBCAM)
        restored = FeatureSchema.from_dict(schema.to_dict())
        f = make_flow(in_bytes=217, dst_port=443, l7_proto_name="SSL")
        assert np.array_equal(transform(schema, f), transform(restored, f))


def _row_values(flow):
    """A flow's numeric and categorical feature values, in feature order."""
    numeric = (float(flow.in_bytes), float(flow.out_bytes),
               float(flow.flow_end_ms - flow.flow_start_ms))
    return numeric, (flow.ip_protocol, flow.dst_port, flow.l7_proto_name, flow.src_tos,
                     flow.dst_tos)


def reference_transform_many(schema, flows):
    """The transform one row and one feature at a time, in Python floats:
    what the column transform must give bit for bit."""
    out = np.zeros((len(flows), schema.dimension))
    ranges = [schema.numeric_ranges[name] for name in NUMERIC_FEATURES]
    blocks, offset = [], len(NUMERIC_FEATURES)
    for name in CATEGORICAL_FEATURES:
        blocks.append((offset, {v: i for i, v in enumerate(schema.categories[name])}))
        offset += len(schema.categories[name])
    for r, flow in enumerate(flows):
        numeric, categorical = _row_values(flow)
        for i, x in enumerate(numeric):
            lo, hi = ranges[i]
            out[r, i] = (x - lo) / (hi - lo) if hi > lo else 0.0
        for (off, index), value in zip(blocks, categorical):
            j = index.get(value)
            if j is not None:
                out[r, off + j] = 1.0
    return out


def reference_fit(flows):
    """fit_schema one flow at a time: each range the min and max of the
    training values, each vocabulary in order of first appearance."""
    numeric, categorical = zip(*map(_row_values, flows))
    return FeatureSchema(
        model=WEBCAM,
        numeric_ranges={name: (min(v), max(v)) for name, v in zip(NUMERIC_FEATURES, zip(*numeric))},
        categories={name: list(dict.fromkeys(v))
                    for name, v in zip(CATEGORICAL_FEATURES, zip(*categorical))},
    )


# byte counts and times up to the FlowRecord bound, around 2^53, where
# float64 stops holding every integer, and small
_counts = st.one_of(st.integers(0, 5000), st.integers(2**53 - 3, 2**53 + 3),
                    st.integers(0, 2**64 - 1), st.just(2**64 - 1))
# each categorical feature's pool: flows and vocabularies both draw from it,
# so a vocabulary may lack a flow's value
_POOLS = {"protocol": [1, 6, 17, 47], "l4_dst_port": [53, 80, 123, 443, 8080],
          "l7_proto_name": ["DNS", "HTTP", "SSL", "", "\u00e9"], "src_tos": [0, 1, 255],
          "dst_tos": [0, 32, 255]}


@st.composite
def _flows(draw):
    start, end = sorted((draw(_counts), draw(_counts)))
    protocol, port, l7, src_tos, dst_tos = (draw(st.sampled_from(pool)) for pool in _POOLS.values())
    return make_flow(in_bytes=draw(_counts), out_bytes=draw(_counts), flow_start_ms=start,
                     flow_end_ms=end, ip_protocol=protocol, dst_port=port, l7_proto_name=l7,
                     src_tos=src_tos, dst_tos=dst_tos)


_bounds = st.one_of(st.floats(-1e6, 2.0**65), st.sampled_from([0.0, 2.0**53, 2.0**53 + 2, 2.0**64]),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _schemas(draw):
    ranges = {}
    for name in NUMERIC_FEATURES:
        lo, hi = sorted((draw(_bounds), draw(_bounds)))
        ranges[name] = (lo, lo) if draw(st.booleans()) else (lo, hi)  # hi == lo: constant
    categories = {name: draw(st.lists(st.sampled_from(pool), unique=True))
                  for name, pool in _POOLS.items()}
    return FeatureSchema(model=WEBCAM, numeric_ranges=ranges, categories=categories)


@given(schema=_schemas(), flows=st.lists(_flows(), max_size=8))
def test_column_transform_is_bit_identical_to_the_row_reference(schema, flows):
    """Batches of 0 to 8 rows, a list or a dataset's kept columns, against
    any schema: a constant feature, values past 2^53 and unseen values."""
    expected = reference_transform_many(schema, flows).tobytes()
    data = FlowDataset([LabeledFlow(f, WEBCAM, "m") for f in flows])
    # a span near 0 with a count near 2^64 overflows to inf, as in the
    # reference; numpy warns of it
    with np.errstate(over="ignore"):
        assert transform_many(schema, flows).tobytes() == expected
        assert transform_many(schema, flow_columns(data)).tobytes() == expected
        assert transform_many(schema, flow_columns(data)).tobytes() == expected
    assert flow_columns(data) is data.columns


@given(flows=st.lists(_flows(), min_size=1, max_size=8))
def test_schema_fitted_from_columns_is_the_row_reference(flows):
    schema = fit_schema(FlowDataset([LabeledFlow(f, WEBCAM, "m") for f in flows]), WEBCAM)
    assert json.dumps(schema.to_dict()) == json.dumps(reference_fit(flows).to_dict())



OTHER = DeviceModelId("socket", "TP_Link", "HS110")


@given(labeled=st.lists(st.tuples(_flows(), st.sampled_from([None, NON_IOT, WEBCAM, OTHER])),
                        max_size=12),
       model=st.sampled_from([WEBCAM, OTHER]), parent_first=st.booleans())
def test_a_filtered_models_subset_is_kept_and_reads_its_own_flows(labeled, model, parent_first):
    """filter_model's subset has the label codes and the columns, values in
    order of first appearance among its flows, that its flows would give
    read afresh; it is kept with the dataset, and so are its columns."""
    data = FlowDataset([LabeledFlow(flow, label, "m") for flow, label in labeled])
    if parent_first:
        flow_columns(data)
    subset = filter_model(data, model)
    flows = [lf.flow for lf in subset]
    assert flows == [flow for flow, label in labeled if label == model]
    fresh = FlowDataset(subset.flows)
    assert subset.label_codes[0] == fresh.label_codes[0]
    assert subset.label_codes[1].tobytes() == fresh.label_codes[1].tobytes()
    expected = flow_columns(flows)
    columns = flow_columns(subset)
    assert filter_model(data, model) is subset
    with pytest.MonkeyPatch.context() as patch:  # the subset's columns are kept: no flow is read
        patch.setattr(preprocess, "_numeric_values", None)
        patch.setattr(preprocess, "_CATEGORICAL_FIELDS", None)
        assert flow_columns(filter_model(data, model)) is columns
    assert columns.numeric.tobytes() == expected.numeric.tobytes()
    assert [list(values.items()) for values in columns.values] == \
        [list(values.items()) for values in expected.values]
    assert columns.codes.dtype == expected.codes.dtype == np.int32  # 4 bytes a code
    assert columns.codes.shape == expected.codes.shape
    assert columns.codes.tobytes() == expected.codes.tobytes()

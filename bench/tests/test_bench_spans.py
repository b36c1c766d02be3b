"""Self time from nested spans, and the rebinding that records them."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

common.import_natwatch()


def test_self_time_subtracts_nested_children():
    s = [
        Span("cli.main", 0.0, 10.0, -1, "r"),
        Span("ingest.parse", 1.0, 3.0, 0, "r"),
        Span("detect.run", 4.0, 9.0, 0, "r"),
        Span("iforest.score", 5.0, 6.0, 2, "r"),
        Span("iforest.score", 7.0, 8.5, 2, "r"),
    ]
    assert spans.self_times(s) == [10.0 - 2.0 - 5.0, 2.0, 5.0 - 2.5, 1.0, 1.5]
    # self times of a properly nested tree add up to the top span
    assert abs(sum(spans.self_times(s)) - 10.0) < 1e-12


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    s = [
        Span("detect.a", 0.0, 4.0, -1, "r"),
        Span("iforest.b", 1.0, 3.0, 0, "r"),
        Span("iforest.c", 2.0, 5.0, 0, "r"),  # overlaps b and outlives its parent
    ]
    assert spans.self_times(s)[0] == 1.0  # children cover [1, 4]


def test_outside_time_is_window_minus_top_level_spans():
    s = [
        Span("cli.main", 1.0, 2.0, -1, "a"),
        Span("ingest.parse", 1.2, 1.5, 0, "a"),
        Span("cli.main", 3.0, 3.5, -1, "b"),
        Span("cli.main", 9.0, 9.5, -1, "c"),  # outside every window
    ]
    assert spans.outside_time(s, [(0.5, 2.5), (2.9, 4.0)]) == (2.0 - 1.0) + (1.1 - 0.5)


def test_install_wraps_cross_layer_calls_only_and_uninstall_restores():
    import numpy as np
    from natwatch import detect, flowdata, iforest, preprocess

    original = detect.transform
    modules = {"detect": detect, "preprocess": preprocess, "iforest": iforest,
               "flowdata": flowdata}
    model = flowdata.DeviceModelId("webcam", "Alphacam", "AC_100")
    flows = [flowdata.FlowRecord(1, "192.168.1.5", "203.0.113.1", 17, 40000, 53, 0, 100 + i,
                                 120, 0, 0, "DNS", 1000, 4000 + 37 * i) for i in range(40)]
    data = flowdata.FlowDataset([flowdata.LabeledFlow(f, model, "02:00:00:00:00:01")
                                 for f in flows])
    schema = preprocess.fit_schema(data, model)
    X = preprocess.transform_many(schema, [lf.flow for lf in data])
    artifact = iforest.ModelArtifact(model=model, schema=schema,
                                     forest=iforest.train_forest(X, n_trees=5, subsample=16))

    tracer = spans.Tracer()
    uninstall = spans.install(tracer, modules)
    try:
        assert detect.transform is not original
        assert preprocess.transform is original  # a module's own binding is untouched
        tracer.active = True
        tracer.request = "flow-1"
        detect.classify(artifact, data.flows[0].flow)
        tracer.active = False
        detect.classify(artifact, data.flows[0].flow)  # inactive: no spans
    finally:
        uninstall()
    assert detect.transform is original
    names = [s.name for s in tracer.spans]
    assert names == ["preprocess.transform", "flowdata.flow_duration", "iforest.normality_score"]
    assert [s.parent for s in tracer.spans] == [-1, 0, -1]
    assert {s.request for s in tracer.spans} == {"flow-1"}
    assert tracer.counts == {"preprocess.rows": 1, "iforest.score_rows": 1}
    assert np.isfinite(sum(spans.self_times(tracer.spans)))


def test_count_nodes_walks_linked_trees_and_refuses_other_layouts():
    from types import SimpleNamespace as N

    leaf = lambda: N(left=None, right=None)  # noqa: E731
    forest = N(trees=[N(root=N(left=leaf(), right=N(left=leaf(), right=leaf()))),
                      N(root=leaf())])
    assert spans._count_nodes(forest) == (2, 6)
    # a node table or a forest without trees is not counted as 0 nodes
    assert spans._count_nodes(N(left=[1, -1], right=[2, -1])) is None
    assert spans._count_nodes(N(trees=[N(nodes=[0, 1, 2])])) is None


def test_unknown_forest_layout_is_counted_apart():
    from types import SimpleNamespace as N

    tracer = spans.Tracer()
    tracer.active = True
    tracer.call("iforest", "train_forest", lambda: N(table=[0, 1, 2]), (), {})
    assert tracer.counts == {"iforest.unknown_layouts": 1}

"""The benchmark's NetFlow v9 encoder against natwatch's decoder."""

import os
import struct
import sys
from collections import Counter

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402
import inputs  # noqa: E402
import v9encode  # noqa: E402

common.import_natwatch()

from natwatch.netflow9 import NetflowDecodeError, TemplateCache, decode_netflow_v9  # noqa: E402


def records(n, seed=0):
    rng = np.random.default_rng(seed)
    return [inputs._random_record(rng) for _ in range(n)]


def test_workload_template_has_43_byte_records():
    assert v9encode.record_length(v9encode.WORKLOAD_FIELDS) == 43
    assert len(v9encode.template_flowset(256, v9encode.WORKLOAD_FIELDS)) == 4 + 4 + 4 * 12


def test_data_flowset_is_padded_to_four_bytes():
    for n in range(1, 9):
        fs = v9encode.data_flowset(300, v9encode.WORKLOAD_FIELDS, records(n))
        flowset_id, length = struct.unpack("!HH", fs[:4])
        assert (flowset_id, length) == (300, len(fs))
        assert len(fs) % 4 == 0 and len(fs) - 4 - 43 * n < 4


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_round_trip_against_natwatch_decoder(n):
    assert v9encode.round_trip_mismatches(decode_netflow_v9, TemplateCache, records(n, n)) == []


def test_round_trip_detects_a_wrong_value():
    def corrupting_decode(datagram, cache):
        flows = decode_netflow_v9(datagram, cache)
        return [f.__class__(**{**f.__dict__, "in_bytes": f.in_bytes + 1}) for f in flows]

    problems = v9encode.round_trip_mismatches(corrupting_decode, TemplateCache, records(3))
    assert problems == ["template and data in one datagram", "data before template"]


def test_stream_plan_matches_what_natwatch_decodes():
    recs = records(400, 5)
    datagrams, plan = inputs.v9_stream(recs, np.random.default_rng(5), refresh_every=10,
                                       new_template_every=2)
    kinds = Counter(p["kind"] for p in plan)
    assert kinds["malformed"] >= 3 and kinds["spoofed"] >= 2
    cache = TemplateCache()
    delivered = []
    early = 0
    for datagram, p in zip(datagrams, plan):
        if p["kind"] == "malformed":
            with pytest.raises(NetflowDecodeError):
                decode_netflow_v9(datagram, cache)
            continue
        got = decode_netflow_v9(datagram, cache)
        if p["kind"] == "legit":
            want = [v9encode.encoded_key(recs[i]) for i in p["expect"]]
            assert Counter(v9encode.decoded_key(f) for f in got) == Counter(want)
            delivered.extend(p["expect"])
            early += not p["expect"]
    assert sorted(delivered) == list(range(len(recs)))  # every record, exactly once
    assert early >= 2  # data flowsets that arrived before their template

"""Set-up for one benchmark run: generate a workload's inputs from its
seed and write them under --out.

    python3 bench/inputs.py --workload detect-csv-13 --seed 1 --out DIR

Prints {"setup_s": ..., "wall_s": ...} as its last line: the time from
the first generated flow to the last file written, at the reference pace
of pace.py and as measured. The benchmark runs this in a
child process so that set-up allocations do not count in the measured
phase's peak memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import struct
import time

import common
import pace
import v9encode


def _scenario(nw_synth, seed: int):
    scenario = nw_synth.builtin_scenario(common.SCENARIO, flows_per_device=common.FLOWS_PER_DEVICE,
                                         seed=seed)
    return nw_synth.generate_flows(scenario)


def _models(dataset, non_iot) -> list[str]:
    return sorted({lf.label.canonical() for lf in dataset if lf.label != non_iot})


def _test_sample(flowdata, dataset, rng, size: int) -> list:
    """A seeded sample of the test portion, in order of flow start."""
    test = flowdata.chronological_split(dataset).test.flows
    picked = rng.choice(len(test), size=min(size, len(test)), replace=False)
    return sorted((test[int(i)] for i in picked),
                  key=lambda lf: (lf.flow.flow_start_ms, lf.flow.flow_end_ms))


def _train(detect, iforest, flowdata, dataset, models, seed, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name in models:
        cfg = detect.TrainConfig(model=flowdata.DeviceModelId.parse(name), master_seed=seed)
        iforest.save_artifact(detect.train_pipeline(dataset, cfg),
                              os.path.join(out_dir, f"{name}.json"))


def _malformed_row(row: list, header: list, kind: int, j: int) -> list:
    """A row that ingest must reject, with a source address no valid row
    uses so that accepting it shows up in the audit log."""
    col = {name: i for i, name in enumerate(header)}
    row = list(row)
    row[col["SRC_IP"]] = f"10.66.{j // 250}.{j % 250 + 1}"
    row[col["SRC_MAC"]] = f"02:66:00:00:{j // 250:02x}:{j % 250:02x}"
    if kind == 0:
        row[col["IN_BYTES"]] = row[col["IN_BYTES"]] + "x"
    elif kind == 1:
        row[col["FLOW_END_MILLISECONDS"]] = str(int(row[col["FLOW_START_MILLISECONDS"]]) - 1)
    elif kind == 2:
        row[col["L4_DST_PORT"]] = "70000"
    elif kind == 3:
        row = row[: col["L4_DST_PORT"]]
    else:
        row[col["LABEL"]] = "not-a-model"
    return row


def setup_detect_csv(seed: int, out: str, rng) -> None:
    from natwatch import detect, flowdata, iforest, ingest, synth

    dataset = _scenario(synth, seed)
    models = _models(dataset, flowdata.NON_IOT)
    test = _test_sample(flowdata, dataset, rng, common.CSV_FLOWS)
    raw = os.path.join(out, "valid.csv")
    ingest.write_flow_csv(flowdata.FlowDataset(test), raw)
    with open(raw, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    os.remove(raw)

    keys = [common.flow_key(lf.flow.src_ip, lf.flow.dst_ip, lf.flow.dst_port, lf.flow.ip_protocol,
                            lf.flow.flow_start_ms) for lf in test]
    if len(set(keys)) != len(keys):
        raise SystemExit("error: two test flows share an audit key; choose another seed")
    n_bad = max(1, round(common.MALFORMED_ROW_SHARE * len(rows)))
    sources = rng.choice(len(rows), size=n_bad, replace=False)
    bad_rows = [_malformed_row(rows[int(s)], header, j % 5, j) for j, s in enumerate(sources)]
    positions = sorted(rng.choice(len(rows) + n_bad, size=n_bad, replace=False).tolist())
    merged = list(rows)
    for pos, bad in zip(positions, bad_rows):  # ascending, so each lands at its position
        merged.insert(pos, bad)
    with open(os.path.join(out, "test.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(merged)

    _train(detect, iforest, flowdata, dataset, models, seed, os.path.join(out, "artifacts"))
    expected = {
        "rows": len(merged),
        "malformed": n_bad,
        "models": models,
        "valid": [[k, flowdata.format_label(lf.label)] for k, lf in zip(keys, test)],
    }
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh)


def _record_counts(rng, n_records: int) -> list[int]:
    """Records per data datagram, 1 to 30, with about 40/k datagrams of
    k records per 1200 records, so small datagrams are the most common.
    The mix is the same for every seed; the seed sets the order."""
    per_k = n_records / 30.0
    sizes = [k for k in range(1, 31) for _ in range(max(1, round(per_k / k)))]
    sizes = [int(k) for k in rng.permutation(sizes)]
    out, left, i = [], n_records, 0
    while left > 0:
        out.append(min(sizes[i % len(sizes)], left))
        left -= out[-1]
        i += 1
    return out


def _random_record(rng) -> dict:
    return {
        8: f"10.77.{int(rng.integers(256))}.{int(rng.integers(1, 255))}",
        12: f"198.51.100.{int(rng.integers(1, 255))}",
        7: int(rng.integers(1024, 65536)),
        11: int(rng.integers(1, 1024)),
        4: 6,
        5: 0,
        55: 0,
        10: 1,
        1: int(rng.integers(40, 100_000)),
        23: int(rng.integers(40, 100_000)),
        152: 1_600_000_000_000,
        153: 1_600_000_001_000,
    }


def v9_stream(records: list[dict], rng, source_id: int = 7, refresh_every: int = 40,
              new_template_every: int = 3):
    """The legitimate exporter's datagrams plus injected hostile ones.

    Returns (datagrams, plan); plan[i] is {"kind": "legit", "expect":
    [record indices the decoder should return]}, {"kind": "malformed"}
    or {"kind": "spoofed"}. The exporter resends its template every
    `refresh_every` datagrams; every `new_template_every`-th refresh
    switches to a new template id with the fields in another order, and
    1 to 3 data datagrams for it are sent before the template, as UDP
    reordering would deliver them.
    """
    fields = v9encode.WORKLOAD_FIELDS
    tid = 256
    announced, early_left, since_refresh, epoch = False, int(rng.integers(1, 4)), 0, 0
    pending: list[int] = []
    legit: list[tuple[list[bytes], int, list[int]]] = []  # (flowsets, records, expected)
    pos = 0
    for k in _record_counts(rng, len(records)):
        idx = list(range(pos, pos + k))
        pos += k
        data = v9encode.data_flowset(tid, fields, [records[i] for i in idx])
        if announced and since_refresh >= refresh_every:
            epoch += 1
            since_refresh = 0
            if epoch % new_template_every == 0:
                tid += 1
                order = rng.permutation(len(fields))
                fields = tuple(fields[int(i)] for i in order)
                announced, early_left = False, int(rng.integers(1, 4))
                data = v9encode.data_flowset(tid, fields, [records[i] for i in idx])
            else:
                legit.append(([v9encode.template_flowset(tid, fields), data], 1 + k, idx))
                since_refresh += 1
                continue
        if not announced and early_left > 0:
            legit.append(([data], k, []))
            pending.extend(idx)
            early_left -= 1
        elif not announced:
            legit.append(([v9encode.template_flowset(tid, fields), data], 1 + k, pending + idx))
            pending, announced = [], True
        else:
            legit.append(([data], k, idx))
        since_refresh += 1
    if pending:
        legit.append(([v9encode.template_flowset(tid, fields)], 1, pending))

    n_hostile = max(5, round(common.HOSTILE_DATAGRAM_SHARE * len(legit)))
    hostile_at = set(rng.choice(len(legit) + n_hostile, size=n_hostile, replace=False).tolist())
    datagrams, plan = [], []
    legit_iter = iter(legit)
    seq = hostile = 0
    for i in range(len(legit) + n_hostile):
        kw = dict(sys_uptime=60_000 + 50 * i, unix_secs=1_600_000_000 + i // 10, sequence=seq)
        if i not in hostile_at:
            flowsets, count, expect = next(legit_iter)
            datagrams.append(v9encode.datagram(flowsets, count=count, source_id=source_id, **kw))
            plan.append({"kind": "legit", "expect": expect})
            seq += 1
            continue
        kind = hostile % 5
        hostile += 1
        bogus = [_random_record(rng) for _ in range(int(rng.integers(1, 6)))]
        kw["count"] = len(bogus)
        spoof = int(rng.integers(1000, 2**32))
        if kind == 0:  # truncated inside a flowset
            whole = v9encode.datagram([v9encode.data_flowset(tid, fields, bogus)],
                                      source_id=source_id, **kw)
            datagrams.append(whole[: int(rng.integers(v9encode.HEADER.size + 1, len(whole)))])
            plan.append({"kind": "malformed"})
        elif kind == 1:  # truncated inside the header
            whole = v9encode.datagram([], source_id=source_id, **{**kw, "count": 0})
            datagrams.append(whole[: int(rng.integers(0, v9encode.HEADER.size))])
            plan.append({"kind": "malformed"})
        elif kind == 2:  # another NetFlow version
            version = int(rng.choice([5, 10]))
            datagrams.append(v9encode.datagram([v9encode.data_flowset(tid, fields, bogus)],
                                               source_id=source_id, version=version, **kw))
            plan.append({"kind": "malformed"})
        elif kind == 3:  # template from a spoofed exporter
            spoof_tid = int(rng.integers(256, 65536))
            datagrams.append(v9encode.datagram(
                [v9encode.template_flowset(spoof_tid, v9encode.WORKLOAD_FIELDS)],
                source_id=spoof, **{**kw, "count": 1}))
            plan.append({"kind": "spoofed"})
        else:  # data for a template a spoofed exporter never sends
            datagrams.append(v9encode.datagram(
                [v9encode.data_flowset(int(rng.integers(256, 65536)), v9encode.WORKLOAD_FIELDS,
                                       bogus)], source_id=spoof, **kw))
            plan.append({"kind": "spoofed"})
    return datagrams, plan


def setup_detect_v9(seed: int, out: str, rng) -> None:
    from natwatch import detect, flowdata, iforest, synth

    dataset = _scenario(synth, seed)
    records = [v9encode.flow_fields(lf.flow) for lf in _test_sample(flowdata, dataset, rng, common.V9_FLOWS)]
    datagrams, plan = v9_stream(records, rng)
    with open(os.path.join(out, "datagrams.bin"), "wb") as fh:
        for d in datagrams:
            fh.write(struct.pack("!I", len(d)) + d)
    _train(detect, iforest, flowdata, dataset, [common.V9_MODEL], seed,
           os.path.join(out, "artifacts"))
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"plan": plan, "records": [v9encode.encoded_key(r) for r in records]}, fh)


def setup_train(seed: int, out: str, rng) -> None:
    from natwatch import flowdata, ingest, synth

    dataset = _scenario(synth, seed)
    ingest.write_flow_csv(dataset, os.path.join(out, "flows.csv"))
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"models": _models(dataset, flowdata.NON_IOT)}, fh)


def setup_evaluate(seed: int, out: str, rng) -> None:
    """The train-13 inputs plus the 13 artifacts trained from them."""
    from natwatch import detect, flowdata, iforest, ingest, synth

    dataset = _scenario(synth, seed)
    models = _models(dataset, flowdata.NON_IOT)
    ingest.write_flow_csv(dataset, os.path.join(out, "flows.csv"))
    _train(detect, iforest, flowdata, dataset, models, seed, os.path.join(out, "artifacts"))
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"models": models}, fh)


SETUPS = {
    "detect-csv-13": setup_detect_csv,
    "detect-v9-1": setup_detect_v9,
    "train-13": setup_train,
    "evaluate-13": setup_evaluate,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    common.import_natwatch()
    import numpy as np

    os.makedirs(args.out, exist_ok=True)
    ticker = pace.Ticker()
    stop = ticker.start()
    t0 = time.perf_counter()
    rng = np.random.default_rng([args.seed, common.WORKLOADS.index(args.workload)])
    SETUPS[args.workload](args.seed, args.out, rng)
    t1 = time.perf_counter()
    stop()
    [(_work, scaled)] = pace.at_reference([(t0, t1)], ticker.starts, ticker.ends)
    print(json.dumps({"setup_s": scaled, "wall_s": t1 - t0}))


if __name__ == "__main__":
    main()

"""Command-line entry point wiring the whole workflow: synthetic data,
training, calibration, evaluation, live detection, collection, the DNS
baselines, and dataset splitting.

Exit codes: 0 success, 1 usage error, 2 data error. Errors print one
machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import threading
import time

from natwatch import baselines, evaluation, ingest, netflow9, synth
from natwatch.detect import (
    ActionPolicy,
    Detector,
    TrainConfig,
    calibrate_threshold,
    train_pipeline,
)
from natwatch.flowdata import (
    DeviceModelId,
    FlowDataset,
    LabeledFlow,
    chronological_split,
    filter_model,
)
from natwatch.iforest import ArtifactError, load_artifact, save_artifact


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"usage-error: {message}", file=sys.stderr)
        sys.exit(1)


def _load(parse, path: str, kind: str, unit: str):
    """What parse(path) accepts of the file. A missing file or one parse
    refuses whole is a data error; the rejected count is one warning."""
    if not os.path.exists(path):
        raise DataError(f"no-such-file: {path}")
    try:
        records, rejected = parse(path)
    except ValueError as exc:
        raise DataError(f"{kind}-error: {exc}") from exc
    if rejected:
        print(f"warning: {len(rejected)} rejected {unit} in {path}", file=sys.stderr)
    return records


def _load_dataset(path: str) -> FlowDataset:
    return _load(ingest.parse_flow_csv, path, "csv", "rows")


def _load_dns(path: str):
    return _load(ingest.parse_dns_jsonl, path, "dns", "lines")


def _load_artifact(path: str):
    try:
        return load_artifact(path)
    except ArtifactError as exc:
        raise DataError(f"artifact-error: {exc}") from exc


def _load_artifacts(path: str) -> dict:
    """{file path: artifact} for an artifact file or a directory of them."""
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    if not paths:
        raise DataError(f"no-artifacts: {path}")
    return {p: _load_artifact(p) for p in paths}


def _or_na(rate) -> str:
    """A rate or AUC for a summary line; None, when its class is absent, is n/a."""
    return "n/a" if rate is None else str(rate)


def _open_udp(bind: str, port: int):
    """The bound collector socket; a failed bind is a data error."""
    try:
        return netflow9.open_udp(bind, port)
    except OSError as exc:
        raise DataError(f"bind-error: {exc}") from exc


def _collector_line(stats: netflow9.CollectorStats, out: str) -> str:
    """The summary of a collector run: its counts, each reason a datagram
    was refused or a record dropped, and where its output went."""
    counts = "".join(f", {n} {reason}" for by_reason in (stats.malformed_reasons, stats.drops)
                     for reason, n in sorted(by_reason.items()) if n)
    return (f"{stats.datagrams} datagrams, {stats.records} records, "
            f"{stats.malformed} malformed{counts} -> {out}")


def cmd_synth(args) -> int:
    if os.path.exists(args.scenario):
        scenario = synth.load_scenario(args.scenario)
    else:
        scenario = synth.builtin_scenario(
            args.scenario, flows_per_device=args.flows, seed=args.seed
        )
    os.makedirs(args.out, exist_ok=True)
    synth.save_scenario(scenario, os.path.join(args.out, "scenario.json"))
    dataset = synth.generate_flows(scenario)
    ingest.write_flow_csv(dataset, os.path.join(args.out, "flows.csv"))
    events = synth.generate_dns(scenario)
    ingest.write_dns_jsonl(events, os.path.join(args.out, "dns.jsonl"))
    print(f"wrote {len(dataset)} flows and {len(events)} DNS events to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = _load_dataset(args.data)
    cfg = TrainConfig(
        model=DeviceModelId.parse(args.model),
        n_trees=args.trees,
        subsample=args.subsample,
        master_seed=args.seed,
        calibration_percentiles=args.percentiles,
    )
    t0 = time.perf_counter()
    artifact = train_pipeline(dataset, cfg)
    elapsed = time.perf_counter() - t0
    save_artifact(artifact, args.out)
    print(
        f"trained {args.model} on {artifact.training_flow_count} flows "
        f"in {elapsed:.2f}s -> {args.out}"
    )
    return 0


def cmd_calibrate(args) -> int:
    artifact = _load_artifact(args.artifact)
    validation = _load_dataset(args.validation)
    model_flows = filter_model(validation, artifact.model)
    if len(model_flows) == 0:
        raise DataError(f"insufficient-data: no {artifact.model} flows in validation")
    th = calibrate_threshold(artifact, model_flows, args.percentile)
    artifact.calibrated_thresholds[args.percentile] = th
    save_artifact(artifact, args.artifact)
    print(f"P{args.percentile} threshold for {artifact.model} = {th:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    artifacts = _load_artifacts(args.artifacts)
    test = _load_dataset(args.test)
    reports = []
    curves = {}
    for path, artifact in artifacts.items():
        report, points = evaluation.evaluate_artifact(
            artifact, test, artifact_size_bytes=os.path.getsize(path)
        )
        reports.append(report)
        curves[report.model] = points
    evaluation.emit_report(reports, args.out, curves)
    key = "p10" if args.threshold == "p10" else "default"
    for r in reports:
        print(f"{r.model}: TPR={_or_na(getattr(r, f'tpr_{key}'))} "
              f"FPR={_or_na(getattr(r, f'fpr_{key}'))} AUC={_or_na(r.roc_auc)}")
    print(f"report written to {args.out}")
    return 0


def cmd_detect(args) -> int:
    artifacts = list(_load_artifacts(args.artifacts).values())
    policy = ActionPolicy(
        on_positive=args.policy.split(","),
        notify_path=args.notify_out,
        block_path=args.block_out,
    )
    selector = args.threshold
    for artifact in artifacts:
        artifact.threshold(selector)  # a missing threshold fails before any input
    if args.input.startswith("udp:"):
        text = args.input.removeprefix("udp:")
        try:
            port = int(text)
        except ValueError:
            raise DataError(f"bad-port: {text!r} is not a port number") from None
        # the bind, then the audit log: a port refused leaves no file behind
        with _open_udp(args.bind, port) as sock, \
                Detector(artifacts, policy, selector, args.audit) as detector:
            print(f"listening for NetFlow v9 on udp/{sock.getsockname()[1]}; Ctrl-C to stop",
                  file=sys.stderr)
            stats = netflow9.collect_udp(sock, detector)
        print(_collector_line(stats, args.audit))
    else:
        flows = [lf.flow for lf in _load_dataset(args.input)]
        with Detector(artifacts, policy, selector, args.audit) as detector:
            decisions, positives = detector(flows)
        print(f"{decisions} detection events ({positives} positive) -> {args.audit}")
    return 0


def cmd_collect(args) -> int:
    duration = args.duration
    if duration is not None and not 0 < duration <= threading.TIMEOUT_MAX:
        raise DataError(f"bad-duration: {duration} is not a number of seconds in "
                        f"(0, {threading.TIMEOUT_MAX:.0f}]")
    collected = []
    with _open_udp(args.bind, args.port) as sock:
        until = None if duration is None else time.monotonic() + duration
        stats = netflow9.collect_udp(sock, collected.extend, until)
    dataset = FlowDataset(
        [LabeledFlow(flow=f, label=None, source_mac=f.src_ip) for f in collected]
    )
    ingest.write_flow_csv(dataset, args.out)
    print(_collector_line(stats, args.out))
    return 0


def cmd_baseline(args) -> int:
    train_events = _load_dns(args.train)
    test_events = _load_dns(args.test)
    if args.method == "ipid":
        rows = baselines.evaluate_ipid_baseline(train_events, test_events, args.tolerance)
    else:
        rows = baselines.evaluate_domain_baseline(
            train_events, test_events, args.window, args.min_distinct
        )
    columns = sorted({k for row in rows for k in row})
    evaluation.write_rows(rows, columns, args.out, "baseline_report")
    for row in rows:
        print(f"{row['model']}: TPR={_or_na(row['tpr'])} FPR={_or_na(row['fpr'])} "
              f"({row['method']})")
    print(f"baseline report written to {args.out}")
    return 0


def cmd_split(args) -> int:
    dataset = _load_dataset(args.data)
    try:
        ratios = tuple(float(x) for x in args.ratios.split(","))
        if len(ratios) != 3:
            raise ValueError
    except ValueError:
        raise DataError(f"bad-ratios: {args.ratios}") from None
    split = chronological_split(dataset, ratios)
    for name, part in (
        ("training", split.training),
        ("validation", split.validation),
        ("test", split.test),
    ):
        path = f"{args.out_prefix}.{name}.csv"
        ingest.write_flow_csv(part, path)
        print(f"{name}: {len(part)} flows -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="natwatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--scenario", required=True, help="built-in name or scenario JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--flows", type=int, default=2000, help="flows per device (built-ins)")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a per-model classifier artifact")
    p.add_argument("--data", required=True, help="labeled flow CSV")
    p.add_argument("--model", required=True, help="type.make.version")
    p.add_argument("--out", required=True, help="artifact output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--subsample", type=int, default=256)
    p.add_argument("--percentiles", type=int, nargs="*", default=[10])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="recalibrate a percentile threshold")
    p.add_argument("--artifact", required=True)
    p.add_argument("--validation", required=True, help="flow CSV")
    p.add_argument("--percentile", type=int, default=10)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="evaluate artifacts on a mixed test set")
    p.add_argument("--artifacts", required=True, help="artifact file or directory")
    p.add_argument("--test", required=True, help="flow CSV")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--threshold", choices=["default", "p10"], default="default")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("detect", help="run the local detector on a CSV or UDP stream")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--input", required=True, help="flow CSV path or udp:PORT")
    p.add_argument("--bind", default="0.0.0.0")
    p.add_argument("--policy", default="log", help="comma list: log,notify_stub,block_stub")
    p.add_argument("--threshold", default="default", help="default or p<k>")
    p.add_argument("--audit", required=True, help="JSONL audit log path")
    p.add_argument("--notify-out", default=None)
    p.add_argument("--block-out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("collect", help="collect NetFlow v9 over UDP into a CSV")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--bind", default="0.0.0.0")
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=None, help="seconds to run")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("baseline", help="run a DNS deNATing baseline")
    p.add_argument("method", choices=["ipid", "domain"])
    p.add_argument("--train", required=True, help="DNS JSONL")
    p.add_argument("--test", required=True, help="DNS JSONL")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--tolerance", type=float, default=0.2)
    p.add_argument("--window", type=int, default=600)
    p.add_argument("--min-distinct", type=int, default=3)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("split", help="chronological 70/10/20 split of a flow CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--ratios", default="0.7,0.1,0.2")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_split)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"data-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The natwatch benchmark.

    python3 bench/run.py --workload detect-csv-13 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout. Set-up (bench/inputs.py, in a child
process, repeated) generates the workload's inputs from the seed; the
measured phase then drives natwatch's public API from this single
thread, in units of work repeated until --seconds have passed, with the
set-up repeats run between units:

  detect-csv-13  one `natwatch detect` invocation (cli.main) over a CSV
                 export of the test portion with malformed rows mixed
                 in, 13 artifacts, --threshold p10, three actions and an
                 audit log.
  detect-v9-1    one pass of an exporter's NetFlow v9 datagrams, each
                 decoded with decode_netflow_v9 and its records handed to
                 run_detector with one artifact, as the UDP sink does.
  train-13       one round of train_pipeline + save_artifact for the 13
                 models.
  evaluate-13    load_artifact + evaluate_artifact for each of the 13
                 artifacts set-up trained, then one emit_report.

Every unit's output is checked. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 units run
alternately untraced and traced, and the metrics are per-layer figures
from the traced units plus the tracing overhead. Lines before it give
every named metric with its unit, the checks and the machine.
Everything written goes under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import Counter
from types import SimpleNamespace

import benchstats
import common
import pace
import spans
import v9encode

# Set-up is repeated at least SETUP_MIN_REPEATS times and until the
# repeats add up to SETUP_MIN_TOTAL_S, so that a set-up of a fraction of
# a second is still a steady median. The first set-up makes the inputs
# the run measures; the others are spread over the measured phase, so
# that its units span a longer stretch of the machine's slow and fast
# phases in the same total time.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_TOTAL_S = 3, 11, 2.0
MIN_DATAGRAM_SAMPLES = 1000  # so that p99 has at least 10 samples beyond it
TPR_FLOOR, FPR_CEILING = 0.85, 0.05  # acceptance criterion 5
NEAR_THRESHOLD = 1e-9
# Most of the benchmark's own time a traced unit may hold outside every
# span; at the seed commit it was under 0.6% on every workload.
MAX_BENCH_SHARE = 0.02

clock = time.perf_counter


def log(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------- set-up


def setup_once(workload: str, seed: int, out: str) -> float:
    """Generate the inputs under `out` in a fresh child process; returns
    the set-up time it reports."""
    env = dict(os.environ, PYTHONPATH=common.SRC, PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(common.BENCH_DIR, "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", out],
        capture_output=True, text=True, timeout=150, env=env, cwd=common.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: set-up failed with exit code {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def setup_repeats(first_s: float) -> int:
    """How many set-ups a run makes, given the first one's time."""
    return min(SETUP_MAX_REPEATS, max(SETUP_MIN_REPEATS, math.ceil(SETUP_MIN_TOTAL_S / first_s)))


# ---------------------------------------------------------------- timing


class Windows:
    """Timed windows of one unit, one per step: a CLI invocation, a
    datagram, one call per model, or the report. Every unit of a
    workload times the same steps in the same order. Inside a window the tracer (if any)
    records spans under the given request id."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def __call__(self, request: str):
        tracer = self.tracer
        if tracer is not None:
            tracer.request = request
            tracer.active = True
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            if tracer is not None:
                tracer.active = False
            self.spans.append((t0, t1))

    @property
    def total(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.spans)


def fastest_steps(steps: list[list[float]]) -> float:
    """A unit with each timed window at its fastest: the sum over windows
    of the window's shortest time across units, or the fastest whole
    unit if a failure cut a unit's windows short. Used only to compare
    traced with untraced units."""
    if len({len(s) for s in steps}) != 1:
        return min(sum(s) for s in steps)
    return sum(min(column) for column in zip(*steps))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux. Set-up ran in child processes, so
    # this is the measured phase's peak plus what the inputs occupy.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def read_audit(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def reference_g(nw, artifact, flows):
    """g from the batch scorer natwatch.evaluation uses, looked up where
    evaluation binds it."""
    ev = nw.evaluation
    return ev.normality_scores(artifact.forest, ev.transform_many(artifact.schema, flows))


# ---------------------------------------------------------------- workloads


class Workload:
    """A unit of work, repeated; `check` turns a unit's result into
    failed operations. `op` names the operation failed_share counts."""

    op = ""
    checks_after_measuring = False  # True: check once the peak RSS is read

    def __init__(self, nw, inputs: str, work: str, seed: int):
        self.nw, self.inputs, self.work, self.seed = nw, inputs, work, seed

    def self_check(self) -> list[str]:
        return []

    def prepare_checks(self) -> None:
        """Work the deferred checks share, done once after measuring."""

    def enough(self, units: list[dict]) -> bool:
        return True


class DetectCsv(Workload):
    """One unit: `natwatch detect` in-process over the test CSV. Checks
    parse each unit's audit log, so they wait until the peak RSS is read."""

    op = "flow"
    checks_after_measuring = True

    def __init__(self, *args):
        super().__init__(*args)
        with open(os.path.join(self.inputs, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.flows = len(self.expected["valid"])
        self.ops = self.expected["rows"]

    def paths(self, k: int) -> dict:
        d = os.path.join(self.work, f"unit-{k}")
        return {name: os.path.join(d, f"{name}.jsonl") for name in ("audit", "notify", "block")}

    def unit(self, k: int, windows: Windows) -> dict:
        p = self.paths(k)
        os.makedirs(os.path.dirname(p["audit"]), exist_ok=True)
        argv = ["detect", "--artifacts", os.path.join(self.inputs, "artifacts"),
                "--input", os.path.join(self.inputs, "test.csv"), "--audit", p["audit"],
                "--threshold", common.THRESHOLD, "--policy", common.POLICY,
                "--notify-out", p["notify"], "--block-out", p["block"]]
        out = io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with windows(f"cli-{k}"):
                try:
                    rc = self.nw.cli.main(argv)
                except Exception:
                    error = traceback.format_exc()
        return {"rc": rc, "error": error, "output": out.getvalue()}

    def prepare_checks(self) -> None:
        nw = self.nw
        models = self.expected["models"]
        dataset, rejected = nw.ingest.parse_flow_csv(os.path.join(self.inputs, "test.csv"))
        self.rejected_rows = len(rejected)
        flows = [lf.flow for lf in dataset]
        self.index = {common.flow_key(f.src_ip, f.dst_ip, f.dst_port, f.ip_protocol,
                                      f.flow_start_ms): i for i, f in enumerate(flows)}
        expected_keys = [k for k, _label in self.expected["valid"]]
        self.parse_mismatch = len(set(expected_keys) ^ set(self.index))
        self.labels = [label for _k, label in self.expected["valid"]]
        self.valid_index = {k: i for i, k in enumerate(expected_keys)}
        self.ref = {}
        for name in models:
            art = nw.iforest.load_artifact(os.path.join(self.inputs, "artifacts", f"{name}.json"))
            g = reference_g(nw, art, flows)
            th = art.threshold(common.THRESHOLD)
            self.ref[name] = {key: (float(g[i]), th) for key, i in self.index.items()}

    def check(self, k: int, result: dict) -> dict:
        """Failed flows of unit k, with the counts behind them."""
        models = self.expected["models"]
        info = {"rejected_rows": self.rejected_rows, "near_threshold": 0}
        if result["rc"] != 0 or result["error"]:
            info["error"] = result["error"] or f"exit code {result['rc']}: {result['output'][-300:]}"
            return {"failed": self.ops, **info}
        lines = read_audit(self.paths(k)["audit"])
        per_flow: dict[str, Counter] = {}
        unexpected = set()
        bad = set()
        positive = set()
        for rec in lines:
            f = rec["flow"]
            key = common.flow_key(f["src_ip"], f["dst_ip"], f["dst_port"], f["protocol"],
                                  f["start_ms"])
            if key not in self.valid_index:
                unexpected.add(key)
                continue
            per_flow.setdefault(key, Counter())[rec["model"]] += 1
            if rec["decision"] == "M":
                positive.add((key, rec["model"]))
            ref = self.ref.get(rec["model"], {}).get(key)
            if ref is None:
                bad.add(key)
                continue
            g, th = ref
            if abs(g - th) <= NEAR_THRESHOLD:
                info["near_threshold"] += 1
            elif (rec["decision"] == "M") != (g >= th):
                bad.add(key)
        for key in self.valid_index:
            counts = per_flow.get(key, Counter())
            if sorted(counts) != models or any(c != 1 for c in counts.values()):
                bad.add(key)
        # TPR/FPR at P10 from the logged decisions, against the labels
        tprs, fprs = [], []
        for name in models:
            pos = neg = tp = fp = 0
            for key, label in zip(self.valid_index, self.labels):
                hit = (key, name) in positive
                if label == name:
                    pos += 1
                    tp += hit
                else:
                    neg += 1
                    fp += hit
            tprs.append(tp / pos)
            fprs.append(fp / neg)
        info["tpr_p10"] = statistics.mean(tprs)
        info["fpr_p10"] = statistics.mean(fprs)
        info["audit_lines"] = len(lines)
        info["positives"] = len(positive)
        failed = len(bad) + len(unexpected)
        failed += abs(self.rejected_rows - self.expected["malformed"]) + self.parse_mismatch
        if info["tpr_p10"] < TPR_FLOOR or info["fpr_p10"] > FPR_CEILING:
            info["error"] = "criterion-5 floor missed"
            failed = self.ops
        info["audit_bytes"] = os.path.getsize(self.paths(k)["audit"])
        info["action_lines"] = count_lines(self.paths(k)["notify"]) + count_lines(
            self.paths(k)["block"])
        return {"failed": min(failed, self.ops), **info}

    def named(self, units: list[dict], unit_s: float) -> dict:
        return {"flows_per_s": (self.flows / unit_s, "1/s",
                                f"median of {len(units)} invocations, {self.flows} flows each")}


class DetectV9(Workload):
    """One unit: a pass of the exporter's datagrams through
    decode_netflow_v9 and run_detector, with a fresh template cache."""

    op = "datagram"

    def __init__(self, *args):
        super().__init__(*args)
        nw, inputs = self.nw, self.inputs
        with open(os.path.join(inputs, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        self.plan = expected["plan"]
        self.records = [tuple(r) for r in expected["records"]]
        self.datagrams = []
        with open(os.path.join(inputs, "datagrams.bin"), "rb") as fh:
            blob = fh.read()
        off = 0
        while off < len(blob):
            (n,) = struct.unpack_from("!I", blob, off)
            self.datagrams.append(blob[off + 4: off + 4 + n])
            off += 4 + n
        self.ops = len(self.datagrams)
        self.flows = len(self.records)
        self.artifacts = [nw.iforest.load_artifact(
            os.path.join(inputs, "artifacts", f"{common.V9_MODEL}.json"))]

    def self_check(self) -> list[str]:
        nw = self.nw
        sample = [dict(zip(v9encode.DECODED_ATTRIBUTE, r)) for r in self.records[:30]]
        return v9encode.round_trip_mismatches(nw.netflow9.decode_netflow_v9,
                                              nw.netflow9.TemplateCache, sample)

    def paths(self) -> dict:
        return {name: os.path.join(self.work, "pass", f"{name}.jsonl")
                for name in ("audit", "notify", "block")}

    def unit(self, k: int, windows: Windows) -> dict:
        nw = self.nw
        p = self.paths()
        shutil.rmtree(os.path.dirname(p["audit"]), ignore_errors=True)
        os.makedirs(os.path.dirname(p["audit"]))
        policy = nw.detect.ActionPolicy(on_positive=common.POLICY.split(","),
                                        notify_path=p["notify"], block_path=p["block"])
        cache = nw.netflow9.TemplateCache()
        decode = nw.netflow9.decode_netflow_v9
        run_detector = nw.detect.run_detector
        reject = nw.netflow9.NetflowDecodeError
        traced = windows.tracer is not None
        outcomes = []
        peak_templates = peak_pending = 0
        for i, datagram in enumerate(self.datagrams):
            with windows(f"datagram-{k}-{i}"):
                try:
                    records = decode(datagram, cache)
                    if records:
                        run_detector(records, self.artifacts, policy, common.THRESHOLD, p["audit"])
                    outcome = records
                except reject:
                    outcome = reject
                except Exception:
                    outcome = traceback.format_exc()
            outcomes.append(outcome)
            if traced:
                peak_templates = max(peak_templates, len(getattr(cache, "templates", ())))
                peak_pending = max(peak_pending, sum(
                    len(q) for q in getattr(cache, "pending", {}).values()))
        return {"outcomes": outcomes, "templates_cached": peak_templates,
                "buffered_flowsets": peak_pending}

    def check(self, k: int, result: dict) -> dict:
        reject = self.nw.netflow9.NetflowDecodeError
        failed = 0
        decoded = 0
        with_records = 0
        errors = []
        for plan, outcome in zip(self.plan, result.pop("outcomes")):
            if isinstance(outcome, str):
                failed += 1
                errors.append(outcome)
                continue
            if isinstance(outcome, list):
                decoded += len(outcome)
                with_records += bool(outcome)
            if plan["kind"] == "malformed":
                failed += outcome is not reject
            elif plan["kind"] == "legit":
                if outcome is reject:
                    failed += 1
                    continue
                got = Counter(v9encode.decoded_key(f) for f in outcome)
                failed += got != Counter(self.records[i] for i in plan["expect"])
        p = self.paths()
        audit_lines = count_lines(p["audit"])
        info = {"audit_lines": audit_lines, "decoded_records": decoded}
        if audit_lines != decoded:
            failed += with_records
            info["error"] = f"{audit_lines} audit lines for {decoded} decoded records"
        if errors:
            info["error"] = errors[0]
        if result["traced"]:
            info["positives"] = sum(1 for r in read_audit(p["audit"]) if r["decision"] == "M") \
                if os.path.exists(p["audit"]) else 0
            info["audit_bytes"] = os.path.getsize(p["audit"]) if os.path.exists(p["audit"]) else 0
            info["action_lines"] = count_lines(p["notify"]) + count_lines(p["block"])
        return {"failed": min(failed, self.ops), **info}

    def enough(self, units: list[dict]) -> bool:
        return sum(len(u["windows"]) for u in units if not u["traced"]) >= MIN_DATAGRAM_SAMPLES

    def named(self, units: list[dict], unit_s: float) -> dict:
        samples = [t for u in units for t in u["scaled"]]
        n = len(samples)
        top = benchstats.highest_supported_percentile(n)
        note = (f"{n} datagrams; highest percentile with >= 10 samples beyond: "
                f"p{top:g} = {1e3 * benchstats.nearest_rank(samples, top):.4f} ms"
                if top else f"{n} datagrams")
        return {
            "flows_per_s": (self.flows / unit_s, "1/s",
                            f"{self.flows} records, median of {len(units)} passes"),
            "datagram_p50_ms": (1e3 * benchstats.nearest_rank(samples, 50), "ms", note),
            "datagram_p99_ms": (1e3 * benchstats.nearest_rank(samples, 99), "ms", note),
        }


class Train(Workload):
    """One unit: train_pipeline + save_artifact for each of the 13
    models. Training is deterministic for a seed, so the g of the first
    round's trained forests is the reference for every round. The round
    trip through load_artifact is checked once the peak RSS is read."""

    op = "model"
    checks_after_measuring = True

    def __init__(self, *args):
        super().__init__(*args)
        nw, inputs = self.nw, self.inputs
        with open(os.path.join(inputs, "expected.json"), encoding="utf-8") as fh:
            self.models = json.load(fh)["models"]
        self.dataset, _rejected = nw.ingest.parse_flow_csv(os.path.join(inputs, "flows.csv"))
        self.test_flows = [lf.flow for lf in nw.flowdata.chronological_split(self.dataset).test]
        self.ops = len(self.models)
        self.g_trained: dict[str, object] = {}

    def path(self, k: int, name: str) -> str:
        return os.path.join(self.work, f"unit-{k}", f"{name}.json")

    def unit(self, k: int, windows: Windows) -> dict:
        nw = self.nw
        os.makedirs(os.path.join(self.work, f"unit-{k}"))
        saved, errors = [], []
        for name in self.models:
            try:
                with windows(f"model-{k}-{name}"):
                    cfg = nw.detect.TrainConfig(model=nw.flowdata.DeviceModelId.parse(name),
                                                master_seed=self.seed)
                    artifact = nw.detect.train_pipeline(self.dataset, cfg)
                with windows(f"model-{k}-{name}"):
                    nw.iforest.save_artifact(artifact, self.path(k, name))
                saved.append(name)
                if k == 0:
                    self.g_trained[name] = reference_g(nw, artifact, self.test_flows)
                del artifact
            except Exception:
                errors.append(traceback.format_exc())
        return {"saved": saved, "errors": errors}

    def check(self, k: int, result: dict) -> dict:
        """Each model saved in unit k must give the trained g after load_artifact."""
        errors = result.pop("errors")
        ok = 0
        for name in result.pop("saved"):
            if name not in self.g_trained:
                errors.append(f"{name}: no g from the first round to compare with")
                continue
            try:
                loaded = self.nw.iforest.load_artifact(self.path(k, name))
                if (reference_g(self.nw, loaded, self.test_flows) == self.g_trained[name]).all():
                    ok += 1
                else:
                    errors.append(f"{name}: g differs after save and load")
            except Exception:
                errors.append(traceback.format_exc())
        info = {"error": errors[0]} if errors else {}
        return {"failed": self.ops - ok, **info}

    def named(self, units: list[dict], unit_s: float) -> dict:
        return {"train_s": (unit_s, "s", f"unit_s, median of {len(units)} rounds of 13 models")}


class Evaluate(Workload):
    """One unit: load_artifact + evaluate_artifact for each of the 13
    artifacts trained in set-up, then one emit_report."""

    op = "model"

    def __init__(self, *args):
        super().__init__(*args)
        nw, inputs = self.nw, self.inputs
        with open(os.path.join(inputs, "expected.json"), encoding="utf-8") as fh:
            self.models = json.load(fh)["models"]
        dataset, _rejected = nw.ingest.parse_flow_csv(os.path.join(inputs, "flows.csv"))
        self.test = nw.flowdata.chronological_split(dataset).test
        self.ops = len(self.models)

    def unit(self, k: int, windows: Windows) -> dict:
        nw = self.nw
        report_dir = os.path.join(self.work, "report")
        shutil.rmtree(report_dir, ignore_errors=True)
        reports, curves, errors = [], {}, []
        for name in self.models:
            path = os.path.join(self.inputs, "artifacts", f"{name}.json")
            try:
                with windows(f"model-{k}-{name}"):
                    artifact = nw.iforest.load_artifact(path)
                with windows(f"model-{k}-{name}"):
                    report, points = nw.evaluation.evaluate_artifact(
                        artifact, self.test, artifact_size_bytes=os.path.getsize(path))
                reports.append(report)
                curves[report.model] = points
            except Exception:
                errors.append(traceback.format_exc())
        try:
            with windows(f"report-{k}"):
                nw.evaluation.emit_report(reports, report_dir, curves)
        except Exception:
            errors.append(traceback.format_exc())
        return {"errors": errors}

    def check(self, k: int, result: dict) -> dict:
        """report.json has a row per model and meets the criterion-5 floors."""
        errors = result.pop("errors")
        info = {"error": errors[0]} if errors else {}
        try:
            with open(os.path.join(self.work, "report", "report.json"), encoding="utf-8") as fh:
                rows = json.load(fh)
            reported = {r["model"] for r in rows}
            failed = sum(1 for name in self.models if name not in reported)
            mean = next(r for r in rows if r["model"] == "mean")
            info["tpr_p10"], info["fpr_p10"] = mean["tpr_p10"], mean["fpr_p10"]
            if len(rows) != len(self.models) + 2:
                raise ValueError(f"{len(rows)} report rows")
            if mean["tpr_p10"] < TPR_FLOOR or mean["fpr_p10"] > FPR_CEILING:
                raise ValueError("criterion-5 floor missed")
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            info["error"] = f"report: {exc!r}"
            failed = self.ops
        return {"failed": min(failed, self.ops), **info}

    def named(self, units: list[dict], unit_s: float) -> dict:
        return {"evaluate_s": (unit_s, "s", f"unit_s, median of {len(units)} rounds of 13 models")}


WORKLOADS = {"detect-csv-13": DetectCsv, "detect-v9-1": DetectV9, "train-13": Train,
             "evaluate-13": Evaluate}


# ---------------------------------------------------------------- tracing


def layer_metrics(tracer: spans.Tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics per traced unit, plus the tracing overhead."""
    n = len(traced)
    selfs = spans.self_times(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = [0.0, "s"]
        out[f"{layer}.calls"] = [0, "count"]
    for name, unit in (("iforest.save_s", "s"), ("iforest.load_s", "s"),
                       ("detect.calibrate_s", "s")):
        out[name] = [0.0, unit]
    for span, self_s in zip(tracer.spans, selfs):
        layer, fname = span.name.split(".", 1)
        out[f"{layer}.self_s"][0] += self_s
        out[f"{layer}.calls"][0] += 1
        if layer == "iforest" and fname.startswith("save"):
            out["iforest.save_s"][0] += span.end - span.start
        elif layer == "iforest" and fname.startswith("load"):
            out["iforest.load_s"][0] += span.end - span.start
        elif layer == "detect" and fname.startswith("calibrate"):
            out["detect.calibrate_s"][0] += span.end - span.start
    for name in ("iforest.score_rows", "iforest.trees_built", "iforest.nodes",
                 "iforest.artifact_bytes", "preprocess.rows", "netflow9.records",
                 "netflow9.rejected_datagrams", "ingest.rows", "ingest.rejected_rows"):
        out[name] = [tracer.counts.get(name, 0), "bytes" if name.endswith("bytes") else "count"]
    for name, key in (("detect.events", "audit_lines"), ("detect.positives", "positives"),
                      ("detect.action_lines", "action_lines"),
                      ("detect.audit_bytes", "audit_bytes"),
                      ("netflow9.buffered_flowsets", "buffered_flowsets"),
                      ("netflow9.templates_cached", "templates_cached")):
        out[name] = [sum(u.get(key, 0) for u in traced),
                     "bytes" if name.endswith("bytes") else "count"]
    metrics = {name: (value / n, unit) for name, (value, unit) in out.items()}
    windows = [w for u in traced for w in u["windows"]]
    wall = sum(t1 - t0 for t0, t1 in windows)
    outside = spans.outside_time(tracer.spans, windows)
    metrics["bench.self_s"] = (outside / n, "s")
    metrics["trace.wall_s"] = (wall / n, "s")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")
    steps = [[t1 - t0 for t0, t1 in u["windows"]] for u in traced]
    metrics["trace.overhead_share"] = (fastest_steps(steps) / fastest_steps(
        [u["work"] for u in untraced]) - 1.0, "ratio")
    accounted = sum(selfs) + outside
    metrics["trace.unaccounted_s"] = (abs(accounted - wall) / n, "s")
    return metrics


def write_spans(tracer: spans.Tracer, path: str, t_origin: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start - t_origin,
                                 "end": s.end - t_origin, "parent": s.parent,
                                 "request": s.request, "raised": s.raised}) + "\n")


# ---------------------------------------------------------------- main


def machine() -> dict:
    import numpy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "processor": platform.processor() or platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="natwatch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.import_natwatch()
    from natwatch import cli, detect, evaluation, flowdata, iforest, ingest, netflow9, preprocess

    modules = {"cli": cli, "ingest": ingest, "netflow9": netflow9, "preprocess": preprocess,
               "iforest": iforest, "detect": detect, "flowdata": flowdata,
               "evaluation": evaluation}
    nw = SimpleNamespace(**modules)

    work = os.path.join(common.ROOT, ".bench_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = os.path.join(work, "inputs")
    setup_times = [setup_once(args.workload, args.seed, inputs)]
    repeats = setup_repeats(setup_times[0])
    spare = os.path.join(work, "setup-repeat")

    workload = WORKLOADS[args.workload](nw, inputs, work, args.seed)
    problems = workload.self_check()
    if problems:
        raise SystemExit(f"error: encoder/decoder round trip failed: {problems}")

    tracer = spans.Tracer() if args.trace else None
    ticker = pace.Ticker()
    gc.collect()
    units: list[dict] = []
    t_start = clock()
    paused = 0.0  # time spent in set-up repeats, not measured

    def measured() -> float:
        return clock() - t_start - paused

    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        windows = Windows(tracer if traced else None)
        stop = spans.install(tracer, modules, [nw]) if traced else ticker.start()
        try:
            result = workload.unit(k, windows)
        finally:
            stop()
        result.update(traced=traced, windows=windows.spans, wall=windows.total)
        if not workload.checks_after_measuring:
            result.update(workload.check(k, result))
        units.append(result)
        k += 1
        if len(setup_times) < repeats and measured() >= args.seconds * len(setup_times) / repeats:
            t0 = clock()
            setup_times.append(setup_once(args.workload, args.seed, spare))
            paused += clock() - t0
        done = measured() >= args.seconds
        if args.trace:
            done = done and any(u["traced"] for u in units) and any(
                not u["traced"] for u in units)
        if done and workload.enough(units):
            break
        gc.collect()
    peak = peak_rss_mb()
    measured_s = measured()
    while len(setup_times) < repeats:
        setup_times.append(setup_once(args.workload, args.seed, spare))
    shutil.rmtree(spare, ignore_errors=True)

    if workload.checks_after_measuring:
        workload.prepare_checks()
        for i, u in enumerate(units):
            u.update(workload.check(i, u))
    attempted = workload.ops * len(units)
    failed = sum(u["failed"] for u in units)
    plain = [u for u in units if not u["traced"]]
    traced_units = [u for u in units if u["traced"]]

    for u in plain:
        paced = pace.at_reference(u["windows"], ticker.starts, ticker.ends)
        u["work"] = [work for work, _scaled in paced]
        u["scaled"] = [scaled for _work, scaled in paced]
    unit_s = statistics.median(sum(u["scaled"]) for u in plain)
    host = machine()
    log(f"machine: {json.dumps(host)}")
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
        f"{len(units)} units ({len(traced_units)} traced) in {measured_s:.1f} s")
    named = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)}: "
                    + ", ".join(f"{t:.3f}" for t in setup_times)),
        "unit_s": (unit_s, "s",
                   f"median of {len(plain)} untraced units at the reference pace, from "
                   f"{ticker.runs} kernel runs; median wall "
                   f"{statistics.median(u['wall'] for u in plain):.4f}, fastest scaled "
                   f"{min(sum(u['scaled']) for u in plain):.4f}"),
        **workload.named(plain, unit_s),
        "peak_rss_mb": (peak, "MB", "ru_maxrss after the measured phase"),
        "failed_share": (failed / attempted, "ratio", f"{failed}/{attempted} {workload.op}s"),
    }
    for name, (value, unit, note) in named.items():
        log(f"  {name} = {value:.6g} {unit}  ({note})")
    for i, u in enumerate(units):
        extra = {key: u[key] for key in ("near_threshold", "rejected_rows", "tpr_p10", "fpr_p10",
                                         "audit_lines", "error") if key in u}
        log(f"  unit {i}{' traced' if u['traced'] else ''}: wall {u['wall']:.4f} s, "
            f"failed {u['failed']}/{workload.ops} {json.dumps(extra)[:400]}")

    correct = failed == 0
    if args.trace:
        metrics = layer_metrics(tracer, traced_units, plain)
        if metrics["trace.unaccounted_s"][0] > 1e-6 * metrics["trace.wall_s"][0] + 1e-9:
            log("  error: layer self times plus benchmark time do not add up to the traced wall")
            correct = False
        # Natwatch time that no span covers (a class method, a binding
        # spans.install does not rebind) lands in bench.self_s.
        if metrics["bench.self_s"][0] > MAX_BENCH_SHARE * metrics["trace.wall_s"][0]:
            log(f"  error: bench.self_s is over {MAX_BENCH_SHARE:.0%} of the traced wall; "
                "natwatch calls escape the spans")
            correct = False
        if tracer.counts.get("iforest.unknown_layouts"):
            log("  error: a trained forest has a layout spans._count_nodes does not know, "
                "so iforest.trees_built and iforest.nodes cannot be counted")
            correct = False
        for name, (value, unit) in metrics.items():
            log(f"  {name} = {value:.6g} {unit}")
        write_spans(tracer, os.path.join(work, "spans.jsonl"), t_start)
        result_metrics = metrics
    else:
        result_metrics = {name: named[name][:2] for name in ("unit_s", "peak_rss_mb", "setup_s")}

    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": host, "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "named": {n: {"value": v, "unit": u, "note": note}
                             for n, (v, u, note) in named.items()},
                   "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result_metrics.items()},
                   "units": [{k: v for k, v in u.items() if k in (
                       "wall", "traced", "failed", "error", "tpr_p10", "fpr_p10",
                       "near_threshold", "rejected_rows")}
                       for u in units]}, fh, indent=1)
    for name in os.listdir(work):  # keep the record, drop the bulky outputs
        if name not in ("result.json", "spans.jsonl"):
            path = os.path.join(work, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in result_metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

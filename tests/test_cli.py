import contextlib
import csv
import functools
import gc
import io
import json
import operator
import os
import shutil
import socket
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natwatch import detect, netflow9
from natwatch.cli import main
from natwatch.detect import ActionPolicy, run_detector
from natwatch.iforest import load_artifact
from natwatch.ingest import parse_flow_csv
from natwatch.synth import builtin_scenario, scenario_to_dict

from netflow_encoder import RECORD, InterruptedSocket, template_then_data
from util import make_flow

MODEL = "webcam.Alphacam.AC_100"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--scenario", "separable-13", "--out", str(out),
               "--flows", "60", "--seed", "7"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def artifact_path(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / f"{MODEL}.json"
    rc = main(["train", "--data", str(synth_dir / "flows.csv"), "--model", MODEL,
               "--out", str(out), "--trees", "20", "--subsample", "64"])
    assert rc == 0
    return out


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "flows.csv").exists()
        assert (synth_dir / "dns.jsonl").exists()
        assert (synth_dir / "scenario.json").exists()

    def test_scenario_file_input(self, synth_dir, tmp_path):
        out = tmp_path / "again"
        rc = main(["synth", "--scenario", str(synth_dir / "scenario.json"),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "flows.csv").read_text() == (synth_dir / "flows.csv").read_text()

    def test_unknown_scenario_is_data_error(self, tmp_path):
        rc = main(["synth", "--scenario", "nope", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_a_nan_sigma_is_refused_naming_its_field_before_generating(self, synth_dir,
                                                                       tmp_path, capsys):
        doc = json.loads((synth_dir / "scenario.json").read_text())
        doc["specs"][0]["in_bytes_lognorm"] = [3.0, float("nan")]  # json writes NaN
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        rc = main(["synth", "--scenario", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data-error: {MODEL}.in_bytes_lognorm: needs a finite mu and a finite, "
            "positive sigma, got 3.0, nan\n")
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_artifact_written(self, artifact_path):
        doc = json.loads(artifact_path.read_text())
        assert doc["payload"]["model"] == MODEL
        assert "10" in doc["payload"]["calibrated_thresholds"]

    def test_missing_data_file(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "none.csv"), "--model", MODEL,
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_bad_model_id(self, synth_dir, tmp_path):
        rc = main(["train", "--data", str(synth_dir / "flows.csv"),
                   "--model", "not-a-model", "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_bad_percentile(self, synth_dir, tmp_path):
        rc = main(["train", "--data", str(synth_dir / "flows.csv"), "--model", MODEL,
                   "--out", str(tmp_path / "m.json"), "--percentiles", "50"])
        assert rc == 2


class TestCalibrate:
    def test_updates_threshold(self, synth_dir, artifact_path, tmp_path, capsys):
        path = tmp_path / "model.json"  # a copy: the module's artifact keeps its thresholds
        path.write_bytes(artifact_path.read_bytes())
        rc = main(["calibrate", "--artifact", str(path),
                   "--validation", str(synth_dir / "flows.csv"), "--percentile", "20"])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert "20" in doc["payload"]["calibrated_thresholds"]
        assert "P20 threshold" in capsys.readouterr().out

    def test_rewrites_only_the_thresholds(self, synth_dir, artifact_path, tmp_path):
        """calibrate saves the forest it loaded, which has no linked trees,
        byte for byte as the file held it."""
        path = tmp_path / "model.json"
        path.write_bytes(artifact_path.read_bytes())

        def forest_bytes(data: bytes) -> bytes:  # the payload's keys are sorted
            return data[data.index(b'"forest":'):data.index(b',"model":')]

        before = path.read_bytes()
        rc = main(["calibrate", "--artifact", str(path),
                   "--validation", str(synth_dir / "flows.csv"), "--percentile", "25"])
        assert rc == 0
        after = path.read_bytes()
        assert len(forest_bytes(before)) > 1000 and forest_bytes(after) == forest_bytes(before)
        old, new = json.loads(before)["payload"], json.loads(after)["payload"]
        added = new.pop("calibrated_thresholds")
        assert added.pop("25") <= 0.5 and added == old.pop("calibrated_thresholds")
        assert new == old

    def test_corrupt_artifact_is_an_artifact_error_as_in_detect_and_evaluate(
            self, synth_dir, artifact_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = artifact_path.read_bytes().replace(b'"default_threshold":0.0,',
                                                  b'"default_threshold":0.5,')
        bad.write_bytes(data)
        flows = str(synth_dir / "flows.csv")
        lines = []
        for argv in (["calibrate", "--artifact", str(bad), "--validation", flows],
                     ["evaluate", "--artifacts", str(bad), "--test", flows,
                      "--out", str(tmp_path / "r")],
                     ["detect", "--artifacts", str(bad), "--input", flows,
                      "--audit", str(tmp_path / "a.jsonl")]):
            assert main(argv) == 2
            lines.append(capsys.readouterr().err.splitlines()[-1])
        assert lines == ["data-error: artifact-error: corrupt-artifact: checksum mismatch"] * 3
        assert bad.read_bytes() == data != artifact_path.read_bytes()

    def test_directory_is_data_error(self, synth_dir, artifact_path, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        (models / artifact_path.name).write_bytes(artifact_path.read_bytes())
        before = {p.name: p.read_bytes() for p in models.iterdir()}
        rc = main(["calibrate", "--artifact", str(models),
                   "--validation", str(synth_dir / "flows.csv")])
        assert rc == 2
        assert {p.name: p.read_bytes() for p in models.iterdir()} == before


class TestEvaluate:
    def test_report_files(self, synth_dir, artifact_path, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(["evaluate", "--artifacts", str(artifact_path),
                   "--test", str(synth_dir / "flows.csv"), "--out", str(out),
                   "--threshold", "p10"])
        assert rc == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        assert (out / f"roc_{MODEL}.csv").exists()
        assert MODEL in capsys.readouterr().out
        row = json.loads((out / "report.json").read_text())[0]
        assert row["artifact_size_bytes"] == os.path.getsize(artifact_path)

    def test_corrupt_artifact(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["evaluate", "--artifacts", str(bad),
                   "--test", str(synth_dir / "flows.csv"), "--out", str(tmp_path / "r")])
        assert rc == 2


def _fake_collector(records, then=None):
    """A stand-in for netflow9.collect_udp that hands `records` to the
    sink one datagram each, then raises `then` or returns its stats."""

    def collect_udp(sock, sink, until=None):
        stats = netflow9.CollectorStats(datagrams=len(records), records=len(records))
        for record in records:
            sink([record])
            if then is not None:
                raise then
        stats.drops["invalid-record"] = 2
        stats.drops["template-evicted"] = 0  # a zero count is not named
        return stats

    return collect_udp


def _interrupt_collector(monkeypatch, datagrams):
    """The collector receives datagrams, then Ctrl-C, on its bound socket."""
    collect_udp = netflow9.collect_udp
    monkeypatch.setattr(netflow9, "collect_udp", lambda sock, sink, until=None: collect_udp(
        InterruptedSocket(datagrams), sink, until))


class TestDetect:
    def test_csv_input_writes_audit(self, synth_dir, artifact_path, tmp_path, capsys):
        audit = tmp_path / "audit.jsonl"
        rc = main(["detect", "--artifacts", str(artifact_path),
                   "--input", str(synth_dir / "flows.csv"),
                   "--audit", str(audit), "--threshold", "p10"])
        assert rc == 0
        lines = [json.loads(line) for line in audit.read_text().splitlines()]
        assert len(lines) > 0
        assert lines[0]["model"] == MODEL
        assert lines[0]["decision"] in ("M", "non-M")
        # the summary counts the audit log's lines and its positive ones
        positives = sum(line["decision"] == "M" for line in lines)
        assert 0 < positives < len(lines)
        assert capsys.readouterr().out == \
            f"{len(lines)} detection events ({positives} positive) -> {audit}\n"

    def test_notify_policy(self, synth_dir, artifact_path, tmp_path):
        notify = tmp_path / "notify.jsonl"
        rc = main(["detect", "--artifacts", str(artifact_path),
                   "--input", str(synth_dir / "flows.csv"),
                   "--audit", str(tmp_path / "a.jsonl"), "--threshold", "p10",
                   "--policy", "log,notify_stub", "--notify-out", str(notify)])
        assert rc == 0
        assert notify.exists()

    @pytest.mark.parametrize("policy", ["notify_stub,log", "log,notify_stub"])
    def test_positive_audit_lines_name_the_last_action_applied(
            self, policy, synth_dir, artifact_path, tmp_path):
        """log is applied first whatever the policy's order, so a positive's
        action is its last stub, here notify_stub, once per notify line."""
        audit, notify = tmp_path / "a.jsonl", tmp_path / "n.jsonl"
        rc = main(["detect", "--artifacts", str(artifact_path),
                   "--input", str(synth_dir / "flows.csv"), "--audit", str(audit),
                   "--threshold", "p10", "--policy", policy, "--notify-out", str(notify)])
        assert rc == 0
        lines = [json.loads(line) for line in audit.read_text().splitlines()]
        actions = {(line["decision"], line["action"]) for line in lines}
        assert actions == {("M", "notify_stub"), ("non-M", "log")}
        assert len(notify.read_text().splitlines()) == \
            sum(line["decision"] == "M" for line in lines)

    def test_missing_artifact_file_is_data_error(self, synth_dir, tmp_path):
        rc = main(["detect", "--artifacts", str(tmp_path / "none.json"),
                   "--input", str(synth_dir / "flows.csv"), "--audit", str(tmp_path / "a.jsonl")])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    def test_bad_policy_is_data_error(self, synth_dir, artifact_path, tmp_path):
        rc = main(["detect", "--artifacts", str(artifact_path),
                   "--input", str(synth_dir / "flows.csv"),
                   "--audit", str(tmp_path / "a.jsonl"), "--policy", "explode"])
        assert rc == 2

    def test_udp_input_audits_each_record_against_each_artifact(self, artifact_path, tmp_path,
                                                                 monkeypatch, capsys):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("a.json", "b.json"):
            shutil.copy(artifact_path, models / name)
        flows = [make_flow(dst_port=p) for p in (53, 443, 8080)]
        bound = []

        def collect_udp(sock, sink, until=None):
            bound.append(sock.getsockname())
            return _fake_collector(flows)(sock, sink, until)

        monkeypatch.setattr(netflow9, "collect_udp", collect_udp)
        audit = tmp_path / "audit.jsonl"
        rc = main(["detect", "--artifacts", str(models), "--input", "udp:0",
                   "--bind", "127.0.0.1", "--audit", str(audit)])
        assert rc == 0
        lines = [json.loads(line) for line in audit.read_text().splitlines()]
        assert len(lines) == len(flows) * 2
        assert all(line["model"] == MODEL for line in lines)
        [(host, port)] = bound
        assert host == "127.0.0.1" and port != 0
        assert f"listening for NetFlow v9 on udp/{port};" in capsys.readouterr().err

    def test_udp_input_ends_on_ctrl_c_with_the_collector_summary(self, artifact_path, tmp_path,
                                                                   monkeypatch, capsys):
        _interrupt_collector(monkeypatch, [
            template_then_data(records=[RECORD, {**RECORD, 11: 443}]), b"garbage",
            template_then_data(records=[{**RECORD, 152: 5000}])])  # ends before it starts
        audit = tmp_path / "audit.jsonl"
        rc = main(["detect", "--artifacts", str(artifact_path), "--input", "udp:0",
                   "--bind", "127.0.0.1", "--audit", str(audit)])
        assert rc == 0
        assert len(audit.read_text().splitlines()) == 2
        assert capsys.readouterr().out == ("3 datagrams, 2 records, 1 malformed, "
                                           f"1 truncated-header, 1 invalid-record -> {audit}\n")

    @staticmethod
    def _counting_open(monkeypatch) -> list:
        """The files natwatch.detect opens from now on."""
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(open(path, *args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(detect, "open", counting_open, raising=False)
        return opened

    def test_udp_sink_keeps_one_detector_for_the_collector_life(
            self, synth_dir, artifact_path, tmp_path, monkeypatch):
        """Over N datagrams each file is opened once and closed at the end;
        after every datagram its lines are on disk and whole, and they are
        those of N separate run_detector calls but for the time fields."""
        models = tmp_path / "models"
        models.mkdir()
        for name in ("a.json", "b.json"):
            shutil.copy(artifact_path, models / name)
        flows = [lf.flow for lf in parse_flow_csv(synth_dir / "flows.csv")[0]][::40]
        audit, notify = tmp_path / "audit.jsonl", tmp_path / "notify.jsonl"
        on_disk = []

        def collect_udp(sock, sink, until=None):
            def sink_then_read(records):
                sink(records)
                on_disk.append(audit.read_text().count("\n"))
            return _fake_collector(flows)(sock, sink_then_read, until)

        monkeypatch.setattr(netflow9, "collect_udp", collect_udp)
        opened = self._counting_open(monkeypatch)
        rc = main(["detect", "--artifacts", str(models), "--input", "udp:0", "--bind", "127.0.0.1",
                   "--audit", str(audit), "--threshold", "p10", "--policy", "notify_stub",
                   "--notify-out", str(notify)])
        assert rc == 0
        assert [os.path.basename(fh.name) for fh in opened] == ["audit.jsonl", "notify.jsonl"]
        assert all(fh.closed for fh in opened)
        assert on_disk == [2 * (i + 1) for i in range(len(flows))]

        policy = ActionPolicy(on_positive=["notify_stub"], notify_path=str(tmp_path / "n.jsonl"))
        artifacts = [load_artifact(models / name) for name in ("a.json", "b.json")]
        for flow in flows:
            run_detector([flow], artifacts, policy, "p10", str(tmp_path / "a.jsonl"))

        def untimed(path):
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            return [{k: v for k, v in line.items() if k not in ("timestamp", "wall_time_s")}
                    for line in lines]

        assert untimed(audit) == untimed(tmp_path / "a.jsonl")
        assert untimed(notify) == untimed(tmp_path / "n.jsonl") != []

    def test_udp_sink_error_once_bound_is_no_bind_error_and_closes_the_files(
            self, artifact_path, tmp_path, monkeypatch, capsys):
        socks = []

        def collect_udp(sock, sink, until=None):
            socks.append(sock)
            return _fake_collector([make_flow()] * 2, OSError("recv failed"))(sock, sink, until)

        monkeypatch.setattr(netflow9, "collect_udp", collect_udp)
        opened = self._counting_open(monkeypatch)
        rc = main(["detect", "--artifacts", str(artifact_path), "--input", "udp:0",
                   "--bind", "127.0.0.1", "--audit", str(tmp_path / "a.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == "data-error: recv failed"
        assert len((tmp_path / "a.jsonl").read_text().splitlines()) == 1
        assert len(opened) == 1 and opened[0].closed
        assert len(socks) == 1 and socks[0].fileno() == -1  # the socket is closed too

    def test_block_stub_without_block_out_is_data_error(self, synth_dir, artifact_path,
                                                        tmp_path, capsys):
        rc = main(["detect", "--artifacts", str(artifact_path),
                   "--input", str(synth_dir / "flows.csv"), "--threshold", "p10",
                   "--audit", str(tmp_path / "a.jsonl"), "--policy", "log,block_stub"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data-error: block_stub")
        assert list(tmp_path.iterdir()) == []  # no audit line claims a block


class TestFrozenArtifacts:
    """An in-process caller of main gets the cyclic collector back as it
    was: no command leaves objects frozen, however it ends."""

    @pytest.mark.parametrize("command", ["detect", "evaluate", "detect-missing-input"])
    def test_main_leaves_nothing_frozen(self, command, synth_dir, artifact_path, tmp_path):
        flows = synth_dir / ("none.csv" if command == "detect-missing-input" else "flows.csv")
        if command == "evaluate":
            argv = ["evaluate", "--artifacts", str(artifact_path), "--test", str(flows),
                    "--out", str(tmp_path / "report")]
        else:
            argv = ["detect", "--artifacts", str(artifact_path), "--input", str(flows),
                    "--audit", str(tmp_path / "a.jsonl")]
        assert gc.get_freeze_count() == 0
        assert main(argv) == (2 if command == "detect-missing-input" else 0)
        assert gc.get_freeze_count() == 0


class TestCollect:
    def test_duration_run_writes_flows_and_summary(self, tmp_path, monkeypatch, capsys):
        flows = [make_flow(dst_port=53), make_flow(dst_port=443)]
        deadlines = []

        def collect_udp(sock, sink, until=None):
            deadlines.append((time.monotonic(), until))
            return _fake_collector(flows)(sock, sink, until)

        monkeypatch.setattr(netflow9, "collect_udp", collect_udp)
        out = tmp_path / "c.csv"
        rc = main(["collect", "--port", "0", "--bind", "127.0.0.1", "--out", str(out),
                   "--duration", "5"])
        assert rc == 0
        [(now, until)] = deadlines
        assert now < until <= now + 5  # 5 s from the bind
        parsed, rejected = parse_flow_csv(str(out))
        assert rejected == [] and [lf.flow for lf in parsed] == flows
        assert capsys.readouterr().out == (
            f"2 datagrams, 2 records, 0 malformed, 2 invalid-record -> {out}\n")

    def test_summary_names_each_malformed_reason(self, tmp_path, monkeypatch, capsys):
        def collect_udp(sock, sink, until=None):
            stats = netflow9.CollectorStats(datagrams=4, malformed=3)
            stats.malformed_reasons.update({"unsupported-version": 1, "truncated-flowset": 2})
            stats.drops["pending-dropped"] = 5
            return stats

        monkeypatch.setattr(netflow9, "collect_udp", collect_udp)
        out = tmp_path / "c.csv"
        assert main(["collect", "--port", "0", "--bind", "127.0.0.1", "--out", str(out),
                     "--duration", "5"]) == 0
        assert capsys.readouterr().out == (
            "4 datagrams, 0 records, 3 malformed, 2 truncated-flowset, 1 unsupported-version, "
            f"5 pending-dropped -> {out}\n")

    def test_ctrl_c_keeps_what_was_collected(self, tmp_path, monkeypatch, capsys):
        """Ctrl-C, the only stop without --duration, ends the run as a
        deadline does: what came before it is written and summed up."""
        _interrupt_collector(monkeypatch, [template_then_data(), b"garbage"])
        out = tmp_path / "c.csv"
        rc = main(["collect", "--port", "0", "--bind", "127.0.0.1", "--out", str(out)])
        assert rc == 0
        parsed, _ = parse_flow_csv(str(out))
        assert [lf.flow.dst_port for lf in parsed] == [53]
        assert capsys.readouterr().out == (
            f"2 datagrams, 1 records, 1 malformed, 1 truncated-header -> {out}\n")

    def test_records_are_written_as_they_arrive(self, tmp_path, monkeypatch):
        """30,000 records, 30 a datagram, pass through at a flat peak: held
        until the run ends, they took about 11 MiB."""
        def collect_udp(sock, sink, until=None):
            for start in range(0, 30_000, 30):
                sink([make_flow(src_port=start + i) for i in range(30)])
            return netflow9.CollectorStats(datagrams=1_000, records=30_000)

        monkeypatch.setattr(netflow9, "collect_udp", collect_udp)
        out = tmp_path / "c.csv"
        tracemalloc.start()
        try:
            rc = main(["collect", "--port", "0", "--bind", "127.0.0.1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 2**20, peak
        parsed, rejected = parse_flow_csv(str(out))
        assert rejected == [] and [lf.flow.src_port for lf in parsed] == list(range(30_000))

    def test_a_recv_error_leaves_the_rows_collected_before_it(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.setattr(netflow9, "collect_udp",
                            _fake_collector([make_flow()] * 2, OSError("recv failed")))
        out = tmp_path / "c.csv"
        assert main(["collect", "--port", "0", "--bind", "127.0.0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "data-error: recv failed"
        parsed, rejected = parse_flow_csv(str(out))
        assert rejected == [] and [lf.flow for lf in parsed] == [make_flow()]

    def test_taken_port_is_one_bind_error_line(self, tmp_path, capsys):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
            taken.bind(("127.0.0.1", 0))
            port = taken.getsockname()[1]
            rc = main(["collect", "--port", str(port), "--bind", "127.0.0.1",
                       "--out", str(tmp_path / "c.csv"), "--duration", "30"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data-error: bind-error: ")
        assert not (tmp_path / "c.csv").exists()


class TestBaseline:
    def test_ipid(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "ipid"
        rc = main(["baseline", "ipid", "--train", str(synth_dir / "dns.jsonl"),
                   "--test", str(synth_dir / "dns.jsonl"), "--out", str(out)])
        assert rc == 0
        with open(out / "baseline_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["method"] == "dns-ipid-slope" for r in rows)

    def test_domain(self, synth_dir, tmp_path):
        out = tmp_path / "domain"
        rc = main(["baseline", "domain", "--train", str(synth_dir / "dns.jsonl"),
                   "--test", str(synth_dir / "dns.jsonl"), "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "baseline_report.json").read_text())
        assert rows and all(r["method"] == "dns-domain" for r in rows)

    def test_missing_rate_prints_as_n_a(self, synth_dir, tmp_path, capsys):
        # a test set of one device has no positives for any other model
        with open(synth_dir / "dns.jsonl") as fh:
            lines = [line for line in fh if json.loads(line)["label"] == "speaker.Boomo.B_44"]
        one = tmp_path / "one.jsonl"
        one.write_text("".join(lines[:30]))
        rc = main(["baseline", "domain", "--train", str(synth_dir / "dns.jsonl"),
                   "--test", str(one), "--out", str(tmp_path / "domain")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speaker.Boomo.B_44: TPR=1.0 FPR=n/a (dns-domain)" in out.splitlines()
        assert "TPR=n/a FPR=0.0" in out
        assert "None" not in out


class TestSplit:
    def test_three_files_partition(self, synth_dir, tmp_path):
        prefix = tmp_path / "part"
        rc = main(["split", "--data", str(synth_dir / "flows.csv"),
                   "--out-prefix", str(prefix)])
        assert rc == 0
        sizes = {}
        for name in ("training", "validation", "test"):
            with open(f"{prefix}.{name}.csv") as fh:
                sizes[name] = sum(1 for _ in fh) - 1
        with open(synth_dir / "flows.csv") as fh:
            total = sum(1 for _ in fh) - 1
        assert sum(sizes.values()) == total
        assert sizes["training"] > sizes["test"] > sizes["validation"]

    def test_bad_ratios(self, synth_dir, tmp_path):
        rc = main(["split", "--data", str(synth_dir / "flows.csv"),
                   "--ratios", "0.5,0.5", "--out-prefix", str(tmp_path / "p")])
        assert rc == 2

    def test_missing_column_is_one_csv_error_line(self, synth_dir, tmp_path, capsys):
        with open(synth_dir / "flows.csv", newline="") as fh:
            rows = [row[:6] + row[7:] for row in csv.reader(fh)]  # IN_BYTES goes
        path = tmp_path / "no_in_bytes.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        rc = main(["split", "--data", str(path), "--out-prefix", str(tmp_path / "p")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "data-error: csv-error: missing mandatory column: IN_BYTES"]


# The error that each case naming a UDP port, or a directory that holds no
# artifact, ends in
_ERRORS = {"port-70000": "bad-port", "port-minus-1": "bad-port",
           "detect-udp-70000": "bad-port", "detect-udp-abc": "bad-port",
           "detect-udp-empty": "bad-port", "detect-udp-port-taken": "bind-error",
           "detect-no-artifacts": "no-artifacts"}
_NO_WEIGHTS = {"name": "x", "specs": [{"label": MODEL, "macs": ["02:00:00:00:00:01"]}]}
# Scenario files {tmp}/<name>.json: the overlap-pair preset with one field
# set to a value the scenario refuses, though each is of the field's type
_SCENARIO_EDITS = {"fraction-2": (("overlap_pairs", 0, 2), 2.0),
                   "pair-unknown": (("overlap_pairs", 0, 1), "a.b.c"),
                   "seed-minus-1": (("seed",), -1),
                   "flows-minus-3": (("flows_per_device",), -3),
                   "flows-10e13": (("flows_per_device",), 10**13),
                   "dns-events-minus-2": (("dns_events_per_device",), -2),
                   "noise-minus-2": (("dns", 0, "noise"), -2),
                   "qname-empty": (("dns", 0, "qnames"), [""]),
                   "port-key-spaces": (("specs", 0, "port_weights"), {" 20000 ": 1.0}),
                   "port-key-minus-5": (("specs", 0, "port_weights"), {"-5": 1.0}),
                   "protocol-key-300": (("specs", 0, "protocol_weights"), {"300": 1.0}),
                   "src-tos-300": (("specs", 0, "src_tos"), 300),
                   "flows-10e400": (("flows_per_device",), 10**400)}
# The field that the error line of each of these cases names: each is
# refused as the scenario is read, not when one of its flows is made
_SCENARIO_FIELDS = {"scenario-port-key-spaces": "'port_weights'",
                    "scenario-port-key-minus-5": "AC_100.port_weights key",
                    "scenario-protocol-key-300": "AC_100.protocol_weights key",
                    "scenario-src-tos-300": "AC_100.src_tos",
                    "scenario-flows-10e400": "scenario.flows_per_device"}


@pytest.mark.parametrize("argv", [
    ["collect", "--port", "70000", "--out", "{tmp}/c.csv"],
    ["collect", "--port", "-1", "--out", "{tmp}/c.csv"],
    ["detect", "--artifacts", "{artifact}", "--input", "udp:70000", "--audit", "{tmp}/a.jsonl"],
    ["detect", "--artifacts", "{artifact}", "--input", "udp:abc", "--audit", "{tmp}/a.jsonl"],
    ["detect", "--artifacts", "{artifact}", "--input", "udp:", "--audit", "{tmp}/a.jsonl"],
    ["detect", "--artifacts", "{artifact}", "--input", "udp:{taken}", "--bind", "127.0.0.1",
     "--audit", "{tmp}/a.jsonl"],
    ["detect", "--artifacts", "{tmp}/models", "--input", "{synth}/flows.csv", "--audit",
     "{tmp}/a.jsonl"],
    ["detect", "--artifacts", "{artifact}", "--input", "{synth}/flows.csv", "--audit",
     "{tmp}/a.jsonl", "--policy", "notify_stub,notify_stub", "--notify-out", "{tmp}/n.jsonl"],
    ["train", "--data", "{synth}/flows.csv", "--model", MODEL, "--out", "{tmp}/m.json",
     "--subsample", "0"],
    ["baseline", "domain", "--train", "{synth}/dns.jsonl", "--test", "{synth}/dns.jsonl",
     "--out", "{tmp}/b", "--window", "0"],
    ["baseline", "ipid", "--train", "{synth}/dns.jsonl", "--test", "{synth}/dns.jsonl",
     "--out", "{tmp}/b", "--tolerance", "nan"],
    ["baseline", "ipid", "--train", "{synth}/dns.jsonl", "--test", "{synth}/dns.jsonl",
     "--out", "{tmp}/b", "--tolerance", "-0.1"],
    ["baseline", "domain", "--train", "{synth}/dns.jsonl", "--test", "{synth}/dns.jsonl",
     "--out", "{tmp}/b", "--min-distinct", "0"],
    ["split", "--data", "{synth}/flows.csv", "--ratios=inf,-inf,1", "--out-prefix", "{tmp}/p"],
    ["split", "--data", "{synth}/flows.csv", "--ratios=1.5,-0.5,0", "--out-prefix", "{tmp}/p"],
    ["synth", "--scenario", "{tmp}/empty.json", "--out", "{tmp}/s"],
    ["synth", "--scenario", "{tmp}/list.json", "--out", "{tmp}/s"],
    ["synth", "--scenario", "{tmp}/no_weights.json", "--out", "{tmp}/s"],
    ["synth", "--scenario", "{tmp}/deep.json", "--out", "{tmp}/s"],
    *(["synth", "--scenario", f"{{tmp}}/{name}.json", "--out", "{tmp}/s"]
      for name in _SCENARIO_EDITS),
    ["synth", "--scenario", "separable-13", "--flows", str(10**13), "--out", "{tmp}/s"],
    ["evaluate", "--artifacts", "{tmp}/deep.json", "--test", "{synth}/flows.csv",
     "--out", "{tmp}/e"],
    ["detect", "--artifacts", "{artifact}", "--input", "udp:{port}", "--audit", "{tmp}/a.jsonl",
     "--threshold", "p29"],
    ["detect", "--artifacts", "{artifact}", "--input", "udp:{port}", "--bind", "127.0.0.1",
     "--audit", "{tmp}/missing/a.jsonl", "--threshold", "p10"],
    ["collect", "--port", "{port}", "--out", "{tmp}/c.csv", "--duration", "inf"],
    ["collect", "--port", "{port}", "--out", "{tmp}/c.csv", "--duration", "1e300"],
    ["collect", "--port", "{port}", "--out", "{tmp}/c.csv", "--duration", "nan"],
    ["collect", "--port", "{port}", "--out", "{tmp}/c.csv", "--duration", "-4"],
], ids=["port-70000", "port-minus-1", "detect-udp-70000", "detect-udp-abc", "detect-udp-empty",
        "detect-udp-port-taken", "detect-no-artifacts", "detect-policy-repeated",
        "train-subsample-0", "window-0", "tolerance-nan",
        "tolerance-negative", "min-distinct-0", "ratios-inf",
        "ratios-out-of-range", "scenario-empty", "scenario-list", "scenario-no-weights",
        "scenario-deep", *(f"scenario-{name}" for name in _SCENARIO_EDITS), "synth-flows-10e13",
        "artifact-deep", "detect-udp-threshold-missing",
        "detect-udp-audit-unwritable",
        "collect-duration-inf", "collect-duration-1e300", "collect-duration-nan",
        "collect-duration-negative"])
def test_invalid_input_is_one_data_error_line(argv, synth_dir, artifact_path, tmp_path, capsys,
                                              monkeypatch, request):
    if any("{port}" in a for a in argv):  # a valid port: a stand-in collector never blocks
        monkeypatch.setattr(netflow9, "collect_udp", _fake_collector([make_flow()]))
    (tmp_path / "models").mkdir()  # a directory of no *.json
    (tmp_path / "models" / "model.txt").write_text("{}")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "no_weights.json").write_text(json.dumps(_NO_WEIGHTS))
    overlap = scenario_to_dict(builtin_scenario("overlap-pair", flows_per_device=10))
    for name, (path, value) in _SCENARIO_EDITS.items():
        doc = json.loads(json.dumps(overlap))
        *parents, key = path
        functools.reduce(operator.getitem, parents, doc)[key] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
        taken.bind(("127.0.0.1", 0))
        paths = {"tmp": tmp_path, "synth": synth_dir, "artifact": artifact_path, "port": 0,
                 "taken": taken.getsockname()[1]}
        rc = main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert [line for line in err.splitlines() if line.startswith("data-error:")] == [
        err.splitlines()[-1]
    ]
    assert "Traceback" not in err
    assert len(err.splitlines()[-1]) <= 200  # an echoed value is cut short
    expected = _ERRORS.get(request.node.callspec.id)
    if expected is not None:
        assert err.splitlines()[-1].startswith(f"data-error: {expected}: ")
    assert _SCENARIO_FIELDS.get(request.node.callspec.id, "") in err.splitlines()[-1]
    assert ("bind-error" in err) == (expected == "bind-error")  # only a taken port fails its bind
    assert "listening" not in err  # no detector ran
    assert not (tmp_path / "a.jsonl").exists()  # no audit log was left behind
    assert not (tmp_path / "b").exists()  # no baseline report was written
    assert not (tmp_path / "c.csv").exists()  # nothing was collected
    assert not (tmp_path / "s").exists()  # no synthetic data was written


# What a fuzzed CSV cell or DNS value may become: numbers out of range or
# not numbers, non-finite spellings, addresses, labels, quotes and
# separators, control characters and a long cell.
_FUZZ_CELLS = ["", "-1", "0", "-0", "1.5", "1e400", "nan", "inf", "-inf", "0x1F", " 7 ",
               "99999999999999999999999", "18446744073709551616", "abc", "\u00e9", "\x00",
               '"', "a,b", "\n", "true", "null", "[]", "{}", MODEL, "web..cam", "1.2.3.4",
               "300.1.1.1", "::1", "02:00:00:00:01:08", "9" * 300]
_FUZZ_VALUES = [-1, 0, 7, 2**64, 2**70, 1.5, -0.0, 1e308, "x", "", None, True, False, [], {}, [1],
                MODEL, "1.2.3.4", "8.8.8.8"]


def _fuzz_csv(data, rows: list) -> str:
    """rows (the header first) after one to three edits of a cell, a header
    key (renamed, dropped with its column, or repeated) or a row's length,
    written as CSV; and at times a raw edit of the text: a stray quote, a
    cut line."""
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(["cell", "cell", "key", "drop-column", "length"]))
        at = data.draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if not row:
            continue
        col = data.draw(st.integers(0, len(row) - 1))
        if edit == "cell":
            row[col] = data.draw(st.sampled_from(_FUZZ_CELLS) | st.text(max_size=4))
        elif edit == "key":
            rows[0][col % len(rows[0])] = data.draw(
                st.sampled_from(rows[0] + ["", "label", "TOS "]) | st.text(max_size=4))
        elif edit == "drop-column":
            for other in rows:
                del other[col:col + 1]
        elif data.draw(st.booleans()):  # length: the row cut short, or longer
            del row[col:]
        else:
            row += data.draw(st.lists(st.sampled_from(_FUZZ_CELLS), min_size=1, max_size=2))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    text = out.getvalue()
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(['"', "\n", ",", "\r", ""])) + text[at:]
    return text


def _fuzz_dns(data, events: list) -> str:
    """DNS JSONL events after one to three edits of a value, a key (renamed
    or dropped) or a whole line (cut, or not an object)."""
    lines = [json.dumps(event) for event in events]
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(events) - 1))
        event = dict(events[at])
        key = data.draw(st.sampled_from(sorted(event)))
        edit = data.draw(st.sampled_from(["value", "value", "rename", "drop", "line"]))
        if edit == "value":
            event[key] = data.draw(st.sampled_from(_FUZZ_VALUES))
        elif edit == "rename":
            event[data.draw(st.sampled_from(["", "ts", "Src_ip", key + " "]))] = event.pop(key)
        elif edit == "drop":
            del event[key]
        lines[at] = json.dumps(event)
        if edit == "line":
            lines[at] = data.draw(st.sampled_from(
                [lines[at][:data.draw(st.integers(0, len(lines[at])))], "[]", "1", "NaN", "{"]))
    return "\n".join(lines) + "\n"


def _exit_code_and_errors(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=60)
@given(data=st.data())
def test_fuzzed_flow_csv_and_dns_end_in_exit_0_or_one_data_error_line(data, synth_dir,
                                                                      artifact_path):
    """Cell and key edits of a valid flow CSV and DNS file, run through
    train, calibrate (of a copy of the artifact), evaluate, detect, split
    and both baselines: each command exits 0 and names no data error, or
    exits 2 with one data-error line last."""
    with open(synth_dir / "flows.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(synth_dir / "dns.jsonl") as fh:
        events = [json.loads(line) for line in fh][:300]
    with tempfile.TemporaryDirectory() as tmp:
        flows, dns = os.path.join(tmp, "flows.csv"), os.path.join(tmp, "dns.jsonl")
        with open(flows, "w", newline="") as fh:
            fh.write(_fuzz_csv(data, rows[:1] + rows[1::3]))
        with open(dns, "w") as fh:
            fh.write(_fuzz_dns(data, events))
        out = lambda name: os.path.join(tmp, name)
        shutil.copy(artifact_path, out("c.json"))
        for argv in (
            ["train", "--data", flows, "--model", MODEL, "--out", out("m.json"),
             "--trees", "5", "--subsample", "16"],
            ["calibrate", "--artifact", out("c.json"), "--validation", flows,
             "--percentile", "20"],
            ["evaluate", "--artifacts", str(artifact_path), "--test", flows, "--out", out("e")],
            ["detect", "--artifacts", str(artifact_path), "--input", flows,
             "--audit", out("a.jsonl"), "--threshold", "p10"],
            ["split", "--data", flows, "--out-prefix", out("p")],
            ["baseline", "ipid", "--train", dns, "--test", dns, "--out", out("i")],
            ["baseline", "domain", "--train", dns, "--test", dns, "--out", out("d")],
        ):
            rc, err = _exit_code_and_errors(argv)
            errors = [line for line in err.splitlines() if line.startswith("data-error:")]
            assert (rc, errors) in ((0, []), (2, err.splitlines()[-1:])), (argv[0], rc, err)


class TestUsageErrors:
    def test_no_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus"])
        assert exc.value.code == 1

    def test_missing_required_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", MODEL])
        assert exc.value.code == 1

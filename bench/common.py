"""Constants and helpers shared by the benchmark's set-up and run."""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("detect-csv-13", "detect-v9-1", "train-13", "evaluate-13")

SCENARIO = "separable-13"
# The size acceptance criterion 5 uses: 2000 flows per device, so each
# model trains on 1400 flows and calibrates P10 on 200. With 400 per
# device, P10 came from 40 validation flows and one seed's mean
# FPR@P10 rose past the criterion-5 ceiling.
FLOWS_PER_DEVICE = 2000
# The detect workloads score a seeded sample of test-portion flows:
# CSV_FLOWS through the CLI, so that an invocation takes about 3 s and a
# run holds several, and V9_FLOWS through the datagram stream.
CSV_FLOWS = 600
V9_FLOWS = 1200
V9_MODEL = "webcam.Alphacam.AC_100"
MALFORMED_ROW_SHARE = 0.01
HOSTILE_DATAGRAM_SHARE = 0.04
THRESHOLD = "p10"
POLICY = "log,notify_stub,block_stub"


def import_natwatch():
    """Import natwatch from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "natwatch", "__init__.py")):
        raise SystemExit(f"error: no natwatch package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import natwatch

    if not os.path.abspath(natwatch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: natwatch imported from {natwatch.__file__}, not {SRC}")
    return natwatch


def flow_key(src_ip, dst_ip, dst_port, protocol, start_ms) -> str:
    """Identifies a flow in the audit log, which records these fields."""
    return f"{src_ip}|{dst_ip}|{int(dst_port)}|{int(protocol)}|{int(start_ms)}"

"""Detection of IoT device models connected behind a domestic NAT.

Per-model one-class classifiers are trained centrally on labeled NetFlow
records and deployed as lightweight local detectors that score single
flows. DNS-based deNATing baselines (IP-ID slope matching and domain
profiles) are included for benchmarking.
"""

__version__ = "0.1.0"

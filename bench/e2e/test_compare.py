#!/usr/bin/env python3
"""Checks of compare.py's verdict rule; run.sh --selftest runs them."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import verdict  # noqa: E402

LATENCY = {"name": "latency_p50_ms", "better": "lower", "bound": 0.10}
THROUGHPUT = {"name": "throughput_per_s", "better": "higher", "bound": 0.10}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.10}

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
NOISY = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0, 100.0]


def label(metric, parent, change):
    return verdict(metric, parent, change, list(zip(parent, change)))[0]


def scaled(values, factor):
    return [v * factor for v in values]


CASES = [
    ("steady parent, same change", label(LATENCY, STEADY, STEADY), "unchanged"),
    ("steady parent, 5% slower change", label(LATENCY, STEADY, scaled(STEADY, 1.05)), "unchanged"),
    ("steady parent, 20% slower change", label(LATENCY, STEADY, scaled(STEADY, 1.2)), "regression"),
    ("steady parent, 20% faster change", label(LATENCY, STEADY, scaled(STEADY, 0.8)), "improved"),
    ("noisy parent, same change", label(LATENCY, NOISY, NOISY), "unresolved"),
    ("noisy parent, 2x slower change", label(LATENCY, NOISY, scaled(NOISY, 2.0)), "regression"),
    ("noisy parent, every change run faster", label(LATENCY, NOISY, [40.0] * 10), "improved"),
    ("higher is better, 20% lower change", label(THROUGHPUT, STEADY, scaled(STEADY, 0.8)), "regression"),
    ("higher is better, 5% lower change", label(THROUGHPUT, STEADY, scaled(STEADY, 0.95)), "unchanged"),
    ("higher is better, 20% higher change", label(THROUGHPUT, STEADY, scaled(STEADY, 1.2)), "improved"),
    ("setup 30 ms -> 60 ms stays under the 50 ms floor",
     label(SETUP, scaled(STEADY, 3e-4), scaled(STEADY, 6e-4)), "unchanged"),
    ("setup 30 ms -> 90 ms exceeds the 50 ms floor",
     label(SETUP, scaled(STEADY, 3e-4), scaled(STEADY, 9e-4)), "regression"),
    ("setup 1 s -> 1.2 s exceeds the 10% bound",
     label(SETUP, scaled(STEADY, 1e-2), scaled(STEADY, 1.2e-2)), "regression"),
]


def main():
    failures = [(name, got, want) for name, got, want in CASES if got != want]
    for name, got, want in failures:
        print("selftest FAILED: compare.py verdict for %s: %s, expected %s" % (name, got, want),
              file=sys.stderr)
    if not failures:
        print("selftest: compare.py verdicts hold in %d cases" % len(CASES))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

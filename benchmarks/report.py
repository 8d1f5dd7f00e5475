#!/usr/bin/env python3
"""Regenerate the paper's Tables 1-3 in their original layout.

Runs every configuration of the evaluation (section 5) and prints rows in
the same shape the paper reports, including the per-component ("ohead") and
cumulative ("cum ohead") overhead columns of Table 1 and the per-priority
columns of Table 3.  Medians over many measured pairs are reported; the
paper used means over 10000 pairs on otherwise idle machines — medians are
the robust equivalent on a shared host.

The script pins itself to one CPU (the lowest it may run on) where the
platform allows it.  Each configuration is one run, and on a shared host
unpinned runs spread too widely to order Table 2's replicated rows: those
rows read 1.4-9.8 ms a pair from run to run unpinned, and at most about
1.5x apart pinned to one CPU.

Run:  python benchmarks/report.py [--pairs N]

The output of a run is recorded in EXPERIMENTS.md next to the paper's
numbers.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import (  # noqa: E402
    TABLE1_RUNGS,
    TABLE2_CONFIGS,
    TABLE2_SERVERS,
    TABLE3_CONFIGS,
    TABLE3_SERVERS,
    Table3Load,
    build_table1,
    build_table2,
    build_table3,
)

TABLE1_LABELS = {
    "original": "Original {platform}",
    "cqos_stub": "+ CQoS stub",
    "cqos_skeleton": "+ CQoS skeleton",
    "cactus_server": "+ Cactus server",
    "cactus_client": "+ Cactus client",
}

TABLE2_LABELS = {
    "privacy": "Privacy(DES)",
    "passive": "Passive Rep",
    "active": "Active Rep",
    "active_vote": "+ Vote",
    "active_vote_total": "+ Total",
    "active_total": "Active+Total",
    "active_total_privacy": "+ Privacy",
}

TABLE3_LABELS = {
    "timed": "TimedSched",
    "timed_active": "+ Active Rep",
    "timed_active_vote": "+ Vote",
    "timed_active_vote_total": "+ Total",
    "timed_active_total": "Active+Total",
}


def measure_pairs(pair_fn, pairs: int, warmup: int = 100, stat: str = "median") -> float:
    """Time of one set+get pair in ms: median (Tables 1/2) or mean (Table 3).

    Table 3 uses the mean, like the paper's "average response times" — the
    gating delays land on a minority of requests, which a median would hide.
    """
    for _ in range(warmup):
        pair_fn()
    samples = []
    batch = 10
    for _ in range(max(1, pairs // batch)):
        start = time.perf_counter()
        for _ in range(batch):
            pair_fn()
        samples.append((time.perf_counter() - start) / batch)
    reduce = statistics.mean if stat == "mean" else statistics.median
    return reduce(samples) * 1000


def run_table1(pairs: int) -> None:
    print("\nTable 1: Average response times (in ms)\n")
    header = f"{'Configuration':<22}{'set + get':>10}{'one call':>10}{'ohead':>8}{'cum':>8}"
    for platform in ("corba", "rmi"):
        print(header)
        baseline = None
        previous = None
        for rung in TABLE1_RUNGS:
            deployment, pair = build_table1(platform, rung)
            try:
                pair_ms = measure_pairs(pair, pairs)
            finally:
                deployment.close()
            if baseline is None:
                baseline = pair_ms
                previous = pair_ms
            label = TABLE1_LABELS[rung].format(platform=platform.upper())
            ohead = pair_ms - previous
            cum = pair_ms - baseline
            print(
                f"{label:<22}{pair_ms:>10.3f}{pair_ms / 2:>10.3f}"
                f"{ohead:>8.3f}{cum:>8.3f}"
            )
            previous = pair_ms
        print()


def run_table2(pairs: int) -> None:
    print("\nTable 2: Response times for different configurations (in ms)\n")
    print(f"{'Configuration':<16}{'servers':>8}{'CORBA pair':>12}{'CORBA call':>12}"
          f"{'RMI pair':>10}{'RMI call':>10}")
    for config in TABLE2_CONFIGS:
        row = {}
        for platform in ("corba", "rmi"):
            deployment, pair = build_table2(platform, config)
            try:
                row[platform] = measure_pairs(pair, pairs)
            finally:
                deployment.close()
        print(
            f"{TABLE2_LABELS[config]:<16}{TABLE2_SERVERS[config]:>8}"
            f"{row['corba']:>12.3f}{row['corba'] / 2:>12.3f}"
            f"{row['rmi']:>10.3f}{row['rmi'] / 2:>10.3f}"
        )


def run_table3(pairs: int) -> None:
    print("\nTable 3: Average response times with TimedSched (in ms, one call)\n")
    print(f"{'Configuration':<16}{'servers':>8}{'CORBA high':>12}{'CORBA low':>12}"
          f"{'RMI high':>10}{'RMI low':>10}")
    for config in TABLE3_CONFIGS:
        cells = {}
        for platform in ("corba", "rmi"):
            for priority_class in ("high", "low"):
                deployment, load, pair = build_table3(platform, config, priority_class)
                try:
                    cells[(platform, priority_class)] = (
                        measure_pairs(pair, max(pairs // 4, 40), warmup=20, stat="mean")
                        / 2
                    )
                finally:
                    load.stop()
                    deployment.close()
        print(
            f"{TABLE3_LABELS[config]:<16}{TABLE3_SERVERS[config]:>8}"
            f"{cells[('corba', 'high')]:>12.3f}{cells[('corba', 'low')]:>12.3f}"
            f"{cells[('rmi', 'high')]:>10.3f}{cells[('rmi', 'low')]:>10.3f}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=400,
                        help="measured pairs per configuration (default 400)")
    parser.add_argument("--tables", default="1,2,3",
                        help="comma-separated table numbers to run")
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gc.disable()
    tables = set(args.tables.split(","))
    if "1" in tables:
        run_table1(args.pairs)
    if "2" in tables:
        run_table2(args.pairs)
    if "3" in tables:
        run_table3(args.pairs)


if __name__ == "__main__":
    main()

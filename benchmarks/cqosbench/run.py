#!/usr/bin/env python3
"""cqosbench: one command for every number the repository is judged by.

Contract form (what the driver runs; one JSON object on the last line)::

    python3 benchmarks/cqosbench/run.py --workload rtt_tcp_base --seed 1 --seconds 24 --trace 0

Full form (every workload, timed and traced, every metric by name and unit,
every reply and final servant state checked)::

    python3 benchmarks/cqosbench/run.py [--seed N] [--seconds S] [--out result.json]

Spread check (the driver's own acceptance rule, ten runs per workload)::

    python3 benchmarks/cqosbench/run.py --sets 2 [--busy]

This process never imports the system under test: each measurement runs in
a fresh child (`child.py`).  See README.md for the method.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from estimators import spread, worse_by  # noqa: E402

ROUNDS = 6
SET_SEEDS = range(11, 21)
CHILD_TIMEOUT_S = 150
#: The traced run's per-layer call counts and the timed run's total come from
#: two processes: equal on the base stacks, this far apart under TimedSched's tick.
LAYER_SUM_TOLERANCE = 0.002


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def refuse_switches() -> None:
    switches = sorted(name for name in os.environ if name.startswith("CQOS_"))
    if switches:
        raise SystemExit(f"cqosbench: unset {', '.join(switches)} first; defaults only")


def require_source() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"cqosbench: no src/repro under {ROOT}; nothing to measure")


def run_child(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """Run one child to its end, whatever happens here; return its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "child.py"), mode,
            "--workload", workload, "--seed", str(seed), *extra]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    lines = output.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"cqosbench: {mode} child for {workload} exited {child.returncode}")
    return json.loads(lines[-1])


def best_round(metric: dict, values: list[float]) -> float:
    """The quiet floor across rounds; memory is the exception (its peak)."""
    if metric["name"] == "peak_rss_mb":
        return max(values)
    return min(values) if metric["better"] == "lower" else max(values)


def setup_floor(rounds: list[dict]) -> float:
    """Set-up time with every step taken from its quietest round.

    A set-up lasts a third of a second to a second, longer than this host
    stays quiet, but its steps (each import, object, stub and first reply)
    are a millisecond long and the same in every round.
    """
    steps = [r["setup_steps"] for r in rounds]
    if len({len(s) for s in steps}) != 1:
        return min(map(sum, steps))  # not the same steps: the quietest whole set-up
    return sum(map(min, zip(*steps)))


def contract_run(
    spec: dict, workload: str, seed: int, seconds: float, trace: int,
    faulty: bool = False, spans_out: str | None = None,
) -> dict:
    """One run as the driver defines it; the result line plus the rounds."""
    extra = ["--inject-fault"] if faulty else []
    if trace:
        if spans_out:
            extra += ["--spans-out", spans_out]
        rounds = []
        children = [run_child("traced", workload, seed, *extra)]
        wanted = spec["per_layer"]
        values = dict(children[0]["metrics"])
    else:
        rounds = [
            run_child("timed", workload, seed, "--seconds", repr(seconds / ROUNDS), *extra)
            for _ in range(ROUNDS)
        ]
        count = run_child("count", workload, seed, *extra)
        children = [*rounds, count]
        wanted = spec["end_to_end"]
        values = dict(count["metrics"])
        for metric in wanted:
            seen = [r["metrics"][metric["name"]] for r in rounds if metric["name"] in r["metrics"]]
            if seen:
                values[metric["name"]] = best_round(metric, seen)
        values["setup_s"] = setup_floor(rounds)
    problems = [p for c in children for p in c["problems"]]
    if set(values) != {m["name"] for m in wanted}:
        problems.append("metrics measured are not the metrics BENCHMARK.json names")
    failed = sum(c["failed"] for c in children)
    return {
        "correct": failed == 0 and not problems,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
        "problems": problems,
        "rounds": [r["metrics"] for r in rounds],
    }


def result_line(run: dict) -> str:
    return json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")})


def complain(workload: str, run: dict) -> None:
    for problem in run["problems"]:
        print(f"cqosbench: {workload}: {problem}", file=sys.stderr)
    if run["failed"]:
        print(f"cqosbench: {workload}: {run['failed']} of {run['attempted']} "
              "invocations failed or answered wrongly", file=sys.stderr)


# -- full form ------------------------------------------------------------------


def full(spec: dict, args) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    report = {"benchmark": "cqosbench", "seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        spans = f"{args.out}.{name}.spans.jsonl" if args.out else None
        timed = contract_run(spec, name, args.seed, seconds, 0, args.inject_fault)
        traced = contract_run(spec, name, args.seed, seconds, 1, args.inject_fault, spans)
        layered = sum(entry["value"] for metric, entry in traced["metrics"].items()
                      if metric.endswith(".pycalls_per_invoke"))
        total = timed["metrics"]["pycalls_per_invoke"]["value"]
        if abs(layered - total) > LAYER_SUM_TOLERANCE * total:
            traced["problems"].append(f"layers account for {layered} calls per invocation, "
                                      f"pycalls_per_invoke is {total}")
            traced["correct"] = False
        print(f"== {name}: {timed['attempted'] + traced['attempted']} invocations, "
              f"{timed['failed'] + traced['failed']} failed")
        for run in (timed, traced):
            complain(name, run)
            ok = ok and run["correct"]
            for metric, entry in run["metrics"].items():
                print(f"{metric:36s} {entry['value']:14.4f} {entry['unit']}")
        report["workloads"][name] = {
            "correct": timed["correct"] and traced["correct"],
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"],
            "end_to_end": timed["metrics"],
            "rounds": timed["rounds"],
            "per_layer": traced["metrics"],
        }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    print("cqosbench: all correct" if ok else "cqosbench: INCORRECT")
    return 0 if ok else 1


# -- spread check -------------------------------------------------------------------


def spread_check(spec: dict, sets: int, seconds: float, busy: bool) -> int:
    """Ten contract runs per workload per set, judged by the driver's rule."""
    beside = None
    if busy:
        # Deliberately unpinned: the scheduler may put it on the measured CPU.
        beside = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        medians: list[dict] = []
        over = False
        for index in range(sets):
            medians.append({})
            print(f"set {index + 1} of {sets}{' (busy loop beside it)' if busy else ''}")
            print(f"{'workload':18s} {'metric':22s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
            for workload in (w["name"] for w in spec["workloads"]):
                runs = [contract_run(spec, workload, seed, seconds, 0) for seed in SET_SEEDS]
                for run in runs:
                    complain(workload, run)
                    over = over or not run["correct"]
                for metric in spec["end_to_end"]:
                    name = metric["name"]
                    values = [run["metrics"][name]["value"] for run in runs]
                    medians[-1][workload, name] = statistics.median(values)
                    share = spread(values)
                    limit = metric["bound"] if busy else metric["bound"] / 2
                    flag = ""
                    if name != "setup_s" and share > limit:
                        over, flag = True, "  <-- over"
                    print(f"{workload:18s} {name:22s} {medians[-1][workload, name]:12.3f} "
                          f"{share:10.4f} {metric['bound']:6.2f}{flag}", flush=True)
        by_name = {metric["name"]: metric for metric in spec["end_to_end"]}
        for later in medians[1:]:
            for (workload, name), first in medians[0].items():
                drift = worse_by(first, later[workload, name], by_name[name]["better"])
                if drift > by_name[name]["bound"]:
                    over = True
                    print(f"{workload} {name}: median drifted {drift:.4f} between sets")
        return 1 if over else 0
    finally:
        if beside is not None:
            beside.kill()
            beside.wait()


# -- command line ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="full form: write the result here (compare.py reads it)")
    parser.add_argument("--sets", type=int, help="spread check: this many sets of ten runs")
    parser.add_argument("--busy", action="store_true",
                        help="spread check: run an unpinned busy loop beside the sets")
    parser.add_argument("--inject-fault", action="store_true",
                        help="the servant lies on every 50th read; the run must fail")
    args = parser.parse_args(argv)
    refuse_switches()
    require_source()
    spec = load_spec()
    if args.workload and args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    # Leave through SystemExit on a signal, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.sets:
        return spread_check(spec, args.sets, args.seconds or spec["run_seconds"], args.busy)
    if args.workload and args.trace is not None:
        run = contract_run(spec, args.workload, args.seed,
                           args.seconds or spec["run_seconds"], args.trace, args.inject_fault)
        complain(args.workload, run)
        print(result_line(run), flush=True)
        return 0 if run["correct"] else 1
    return full(spec, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

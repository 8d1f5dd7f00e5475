"""Closed-loop multiplexing throughput harness (PR 2).

Measures request/reply throughput and latency for N closed-loop clients
sharing ONE transport connection, across:

- network: in-memory and loopback TCP,
- connection mode: ``serialized`` (the pre-multiplexing one-in-flight
  baseline) vs ``mux`` (v2 correlation-id frames, concurrent in-flight),
- clients: 1 and 8 threads,
- servant variant: ``echo`` (no work — pure transport cost) and ``work``
  (~0.5 ms of servant CPU per call — the regime where multiplexing lets the
  server overlap requests instead of serializing them behind the wire).

Request payloads are drawn from the seeded zipfian generator in
:mod:`benchmarks.workloads` (PR 8) — the same skewed key mix the routing
benchmark replays — at a fixed 64-byte wire size.

Also runs a marshalling micro-benchmark: the compiled per-signature plan
(:mod:`repro.serialization.compiled`) against the recursive ``write_typed``
tree walk kept in ``tests/oracles/typed_tree_walk.py`` for one
``set_balance``/``get_balance``-style signature.

PR 3 adds the **conversion-overhead benchmark** (paper Table 1 analogue):
per platform (CORBA-DII vs RMI vs HTTP), the per-call cost of the Table 1
rungs — original platform stub, "+CQoS stub" (client interception +
abstract→platform request conversion), and "+CQoS skeleton" (both
interceptors, no Cactus) — on a zero-latency in-memory network, so the
deltas isolate the interception/conversion cost the paper measures.
Results go to ``BENCH_PR3.json``.

Throughput/marshalling results go to ``BENCH_PR2.json``.  Exit status is
non-zero if 8-client TCP multiplexing fails to beat the 8-client
serialized baseline — the CI smoke gate.

PR 7 adds the **execution-engine comparison** (``--engine async``): the
threaded mux path against the asyncio engine (event-loop framing + adaptive
outbound batching, ``TcpNetwork(engine="async")``) on the same closed-loop
scenarios plus a 16-client echo cell, and the async engine's batching
counters (frames per flush — the syscall-amortization evidence).  Results
go to ``BENCH_PR7.json``; the CI gate requires async ≥ threaded on the
echo workload at 16 concurrent clients, the regime where the demux
strategy dominates (8 clients sits at the crossover and is recorded,
not gated).

Usage::

    PYTHONPATH=src python benchmarks/throughput.py [--smoke] [--out PATH]
        [--conversion-out PATH] [--conversion-only]
        [--engine async] [--engine-out PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import zipf_sequence  # noqa: E402

from repro.net.memory import InMemoryNetwork  # noqa: E402
from repro.net.tcp import TcpNetwork  # noqa: E402

WORK_SECONDS = 0.0005  # ~0.5 ms of blocking servant work per "work" call

#: Distinct payload keys the zipfian request mix draws from (PR 8: the
#: closed-loop scenarios share the seeded generator with the routing bench
#: so both harnesses replay the same skewed key distribution).
PAYLOAD_KEYS = 256
PAYLOAD_BYTES = 64


def _zipf_payloads(slot: int, count: int) -> list[bytes]:
    """Per-client deterministic zipfian payload sequence (fixed wire size)."""
    return [
        b"%06d" % key + b"x" * (PAYLOAD_BYTES - 6)
        for key in zipf_sequence(PAYLOAD_KEYS, count, seed=slot)
    ]


def echo_handler(frame: bytes) -> bytes:
    return frame


def work_handler(frame: bytes) -> bytes:
    # Blocking (GIL-releasing) servant work — a downstream call, disk read,
    # or lock wait.  This is the regime multiplexing exists for: a serialized
    # connection stalls every queued caller behind it, a multiplexed one
    # overlaps the waits across server workers.
    time.sleep(WORK_SECONDS)
    return frame


def run_scenario(
    network, *, clients: int, calls_per_client: int, variant: str
) -> dict:
    """Closed loop: ``clients`` threads share one connection, each issuing
    ``calls_per_client`` sequential calls; returns throughput/latency stats."""
    handler = work_handler if variant == "work" else echo_handler
    server = network.host("server")
    listener = server.listen("bench", handler)
    client_host = network.host("client")
    connection = client_host.connect("server/bench")
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    start_barrier = threading.Barrier(clients + 1)

    def client_loop(slot: int) -> None:
        times = latencies[slot]
        try:
            payloads = _zipf_payloads(slot, calls_per_client)
            start_barrier.wait()
            for payload in payloads:
                t0 = time.perf_counter()
                reply = connection.call(payload, timeout=30.0)
                times.append(time.perf_counter() - t0)
                assert reply == payload
        except BaseException as exc:  # noqa: BLE001 - reported in results
            errors.append(exc)

    threads = [
        threading.Thread(target=client_loop, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    connection.close()
    listener.close()
    if errors:
        raise errors[0]
    flat = sorted(t for times in latencies for t in times)
    total_calls = len(flat)
    return {
        "clients": clients,
        "variant": variant,
        "calls": total_calls,
        "wall_s": round(wall, 6),
        "rps": round(total_calls / wall, 1) if wall > 0 else 0.0,
        "mean_ms": round(statistics.fmean(flat) * 1e3, 4),
        "p50_ms": round(flat[total_calls // 2] * 1e3, 4),
        "p99_ms": round(flat[min(total_calls - 1, int(total_calls * 0.99))] * 1e3, 4),
    }


def network_factories():
    return {
        ("memory", "serialized"): lambda: InMemoryNetwork(serialize_connections=True),
        ("memory", "mux"): lambda: InMemoryNetwork(),
        ("tcp", "serialized"): lambda: TcpNetwork(multiplex=False),
        ("tcp", "mux"): lambda: TcpNetwork(multiplex=True),
    }


MARSHAL_IDL = """
module bench {
  interface Probe {
    void record(in long a, in unsigned long b, in double c,
                in boolean d, in string note);
  };
};
"""


def run_marshal_bench(iterations: int) -> dict:
    """Compiled signature plan vs the recursive tree walk, same wire bytes.

    The signature has a four-primitive fixed prefix (fused into one
    ``struct.pack`` by the plan) and a string tail — the common shape of the
    paper's operations."""
    from repro.idl.compiler import compile_idl
    from repro.orb.typed_marshal import marshal_arguments, unmarshal_arguments
    from repro.serialization.cdr import CdrInputStream, CdrOutputStream

    # The tree walk lives with the tests, as the plans' differential oracle.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from tests.oracles.typed_tree_walk import read_typed, write_typed

    compiled = compile_idl(MARSHAL_IDL)
    interface = compiled.interface("bench::Probe")
    operation = interface.operation("record")
    args = _sample_arguments(operation, compiled)

    def tree_walk() -> bytes:
        out = CdrOutputStream()
        for param, value in zip(operation.params, args):
            write_typed(out, param.type, value, compiled)
        return out.getvalue()

    body = tree_walk()
    assert marshal_arguments(operation, args, compiled) == body

    def tree_read() -> list:
        stream = CdrInputStream(body)
        return [read_typed(stream, p.type, compiled) for p in operation.params]

    assert unmarshal_arguments(operation, body, compiled) == tree_read()

    # Interleaved best-of-5 so CPU frequency drift after the throughput
    # phase cannot bias one side of the comparison.
    tree_s = plan_s = rtree_s = rplan_s = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(iterations):
            tree_walk()
        tree_s = min(tree_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(iterations):
            marshal_arguments(operation, args, compiled)
        plan_s = min(plan_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(iterations):
            tree_read()
        rtree_s = min(rtree_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(iterations):
            unmarshal_arguments(operation, body, compiled)
        rplan_s = min(rplan_s, time.perf_counter() - t0)
    return {
        "operation": operation.name,
        "iterations": iterations,
        "tree_walk_us": round(tree_s / iterations * 1e6, 3),
        "compiled_plan_us": round(plan_s / iterations * 1e6, 3),
        "speedup": round(tree_s / plan_s, 2) if plan_s > 0 else None,
        "unmarshal_tree_us": round(rtree_s / iterations * 1e6, 3),
        "unmarshal_plan_us": round(rplan_s / iterations * 1e6, 3),
        "unmarshal_speedup": round(rtree_s / rplan_s, 2) if rplan_s > 0 else None,
    }


def _sample_arguments(operation, compiled) -> list:
    from repro.idl.ast import BasicType, NamedType, SequenceType

    samples = []
    for param in operation.params:
        t = param.type
        if isinstance(t, BasicType):
            samples.append(
                {
                    "boolean": True,
                    "string": "bench",
                    "float": 1.5,
                    "double": 1.5,
                    "any": "bench",
                }.get(t.kind, 7)
            )
        elif isinstance(t, SequenceType):
            samples.append([])
        elif isinstance(t, NamedType):
            cls = compiled.structs.get(t.name) or compiled.exceptions.get(t.name)
            samples.append(cls(**{m: 0 for m in cls.__members__}))
    return samples


# -- execution-engine comparison (PR 7) --------------------------------------

ENGINES = ("threaded", "async")


def run_engine_bench(calls_per_client: int, repeats: int) -> dict:
    """Threaded vs asyncio engine on the mux wire format, same scenarios.

    Each cell is best-of-``repeats`` (fresh network per run, so engine
    runtimes never share state).  Repeats are interleaved across engines —
    threaded run 1, async run 1, threaded run 2, ... — so machine-load
    drift during the bench hits both engines equally instead of biasing
    whichever ran last.  Async rows carry the network's cumulative batching
    counters — frames per flush > 1 is the syscall reduction adaptive
    batching buys on that scenario.
    """
    cells = [(1, "echo"), (1, "work"), (8, "echo"), (8, "work"), (16, "echo")]
    best_by_cell: dict[tuple, dict] = {}
    batching_by_cell: dict[tuple, dict | None] = {}
    for _ in range(repeats):
        for clients, variant in cells:
            for engine in ENGINES:
                cell = (engine, clients, variant)
                network = TcpNetwork(multiplex=True, engine=engine)
                try:
                    # Warmup: thread/loop spin-up, connection setup, and
                    # inline-promotion streaks all settle before timing.
                    run_scenario(
                        network,
                        clients=clients,
                        calls_per_client=max(20, calls_per_client // 10),
                        variant=variant,
                    )
                    row = run_scenario(
                        network,
                        clients=clients,
                        calls_per_client=calls_per_client,
                        variant=variant,
                    )
                    stats = network.batch_stats()
                finally:
                    network.close()
                held = best_by_cell.get(cell)
                if held is None or row["rps"] > held["rps"]:
                    best_by_cell[cell] = row
                    batching_by_cell[cell] = stats
    rows = []
    for engine in ENGINES:
        for clients, variant in cells:
            cell = (engine, clients, variant)
            best = best_by_cell[cell]
            batching = batching_by_cell[cell]
            best["network"] = "tcp"
            best["mode"] = "mux"
            best["engine"] = engine
            if batching is not None:
                best["batching"] = batching
            rows.append(best)
            extra = ""
            if batching is not None and batching.get("frames_per_flush"):
                extra = f"  {batching['frames_per_flush']} frames/flush"
            print(
                f"engine {engine:>8} {clients:>2}c {variant:>4}: "
                f"{best['rps']:>9} rps  p50 {best['p50_ms']} ms  "
                f"p99 {best['p99_ms']} ms{extra}"
            )

    def rps_of(engine: str, clients: int, variant: str) -> float:
        return next(
            r["rps"]
            for r in rows
            if r["engine"] == engine
            and r["clients"] == clients
            and r["variant"] == variant
        )

    async_echo_16c = rps_of("async", 16, "echo")
    threaded_echo_16c = rps_of("threaded", 16, "echo")
    async_batching_16c_echo = next(
        r.get("batching")
        for r in rows
        if (r["engine"], r["clients"], r["variant"]) == ("async", 16, "echo")
    )
    summary = {
        # The gated scenario: echo at 16 concurrent clients, the regime
        # where the demultiplexing strategy dominates — the threaded
        # leader/follower handoff degrades as waiters grow while the
        # event-loop engine keeps scaling.  8 clients sits at the
        # crossover (parity within runner noise) and is recorded but not
        # gated.
        "threaded_echo_16c_rps": threaded_echo_16c,
        "async_echo_16c_rps": async_echo_16c,
        "async_vs_threaded_echo_16c": (
            round(async_echo_16c / threaded_echo_16c, 2) if threaded_echo_16c else None
        ),
        "async_vs_threaded_echo_8c": round(
            rps_of("async", 8, "echo") / rps_of("threaded", 8, "echo"), 2
        ),
        "async_vs_threaded_work_8c": round(
            rps_of("async", 8, "work") / rps_of("threaded", 8, "work"), 2
        ),
        "async_vs_threaded_echo_1c": round(
            rps_of("async", 1, "echo") / rps_of("threaded", 1, "echo"), 2
        ),
        # Syscall-amortization evidence: frames coalesced per transport
        # write on the gated scenario (1.0 would mean no batching).
        "async_frames_per_flush_16c_echo": (
            async_batching_16c_echo.get("frames_per_flush")
            if async_batching_16c_echo
            else None
        ),
    }
    return {"results": rows, "summary": summary}


# -- conversion overhead (PR 3: paper Table 1 analogue) ----------------------

CONVERSION_PLATFORMS = ("corba", "rmi", "http")
CONVERSION_RUNGS = ("original", "cqos_stub", "cqos_stub_skeleton")


def _timed_calls(callable_, calls: int) -> dict:
    """Per-call latency stats (µs) for ``calls`` sequential invocations."""
    for _ in range(min(20, calls)):  # warm caches, lazy binds, connections
        callable_()
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return {
        "calls": calls,
        "mean_us": round(statistics.fmean(samples) * 1e6, 2),
        "p50_us": round(samples[len(samples) // 2] * 1e6, 2),
        "p99_us": round(samples[min(len(samples) - 1, int(len(samples) * 0.99))] * 1e6, 2),
    }


def run_conversion_rung(platform: str, rung: str, calls: int) -> dict:
    """One Table 1 cell: platform × interception rung, in-memory network.

    - ``original``: the platform-generated stub against an un-intercepted
      servant — the baseline;
    - ``cqos_stub``: the CQoS stub in pass-through mode (interception +
      abstract→platform request conversion — DII on CORBA) against the
      same un-intercepted servant;
    - ``cqos_stub_skeleton``: both interceptors (the skeleton rebuilds the
      abstract request server-side and dispatches natively), no Cactus.
    """
    from repro.apps.bank import BankAccount, bank_compiled, bank_interface
    from repro.core.service import CqosDeployment

    network = InMemoryNetwork()
    deployment = CqosDeployment(
        network, platform=platform, compiled=bank_compiled(), request_timeout=30.0
    )
    interface = bank_interface()
    try:
        if rung == "cqos_stub_skeleton":
            deployment.add_replicas(
                "acct", BankAccount, interface, replicas=1, server_micro_protocols=None
            )
        else:
            deployment.deploy_plain_replica("acct", BankAccount(), interface)
        if rung == "original":
            stub = deployment.plain_stub("acct", interface)
        else:
            stub = deployment.client_stub("acct", interface, with_cactus_client=False)
        row = _timed_calls(stub.get_balance, calls)
    finally:
        deployment.close()
    row["platform"] = platform
    row["rung"] = rung
    return row


def run_conversion_bench(calls: int) -> dict:
    """The full Table 1 analogue grid, with per-platform overhead deltas."""
    rows = [
        run_conversion_rung(platform, rung, calls)
        for platform in CONVERSION_PLATFORMS
        for rung in CONVERSION_RUNGS
    ]

    def mean_of(platform: str, rung: str) -> float:
        return next(
            r["mean_us"] for r in rows if r["platform"] == platform and r["rung"] == rung
        )

    overheads = {}
    for platform in CONVERSION_PLATFORMS:
        base = mean_of(platform, "original")
        overheads[platform] = {
            "original_us": base,
            "stub_overhead_us": round(mean_of(platform, "cqos_stub") - base, 2),
            "stub_skeleton_overhead_us": round(
                mean_of(platform, "cqos_stub_skeleton") - base, 2
            ),
        }
    return {"results": rows, "overhead_us": overheads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny iteration counts (CI)"
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR2.json"),
        help="throughput/marshalling output JSON path",
    )
    parser.add_argument(
        "--conversion-out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR3.json"),
        help="conversion-overhead output JSON path",
    )
    parser.add_argument(
        "--conversion-only",
        action="store_true",
        help="run only the per-platform conversion-overhead benchmark",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        help="run the execution-engine comparison (threaded vs async) only",
    )
    parser.add_argument(
        "--engine-out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR7.json"),
        help="engine-comparison output JSON path",
    )
    options = parser.parse_args(argv)

    calls_per_client = 40 if options.smoke else 400
    marshal_iterations = 500 if options.smoke else 20000
    conversion_calls = 60 if options.smoke else 2000

    if options.engine is not None:
        # Longer runs than the generic smoke settings: the engine gate
        # compares two implementations on a shared runner, so each cell
        # must outlast scheduler noise (sub-0.1s runs flip the verdict).
        engine_calls = 300 if options.smoke else 1000
        engine_repeats = 3 if options.smoke else 4
        engine = run_engine_bench(engine_calls, engine_repeats)
        report = {
            "bench": "engine-pr7",
            "smoke": options.smoke,
            "calls_per_client": engine_calls,
            "repeats": engine_repeats,
            **engine,
        }
        Path(options.engine_out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {options.engine_out}")
        summary = engine["summary"]
        print(
            f"async/threaded echo@16c: {summary['async_vs_threaded_echo_16c']}x  "
            f"echo@8c: {summary['async_vs_threaded_echo_8c']}x  "
            f"({summary['async_frames_per_flush_16c_echo']} frames/flush)"
        )
        if summary["async_echo_16c_rps"] < summary["threaded_echo_16c_rps"]:
            print("FAIL: async engine below the threaded baseline on echo@16clients")
            return 1
        return 0

    conversion = run_conversion_bench(conversion_calls)
    for row in conversion["results"]:
        print(
            f"conversion {row['platform']:>5} {row['rung']:<18}: "
            f"mean {row['mean_us']:>8} us  p50 {row['p50_us']} us"
        )
    for platform, deltas in conversion["overhead_us"].items():
        print(
            f"overhead {platform:>5}: +stub {deltas['stub_overhead_us']} us  "
            f"+stub+skeleton {deltas['stub_skeleton_overhead_us']} us"
        )
    conversion_report = {
        "bench": "conversion-pr3",
        "smoke": options.smoke,
        "calls": conversion_calls,
        **conversion,
    }
    Path(options.conversion_out).write_text(
        json.dumps(conversion_report, indent=2) + "\n"
    )
    print(f"wrote {options.conversion_out}")
    if options.conversion_only:
        return 0

    results = []
    for (net_name, mode), factory in network_factories().items():
        for clients in (1, 8):
            for variant in ("echo", "work"):
                network = factory()
                try:
                    row = run_scenario(
                        network,
                        clients=clients,
                        calls_per_client=calls_per_client,
                        variant=variant,
                    )
                finally:
                    network.close()
                row["network"] = net_name
                row["mode"] = mode
                results.append(row)
                print(
                    f"{net_name:>6} {mode:>10} {clients}c {variant:>4}: "
                    f"{row['rps']:>9} rps  p50 {row['p50_ms']} ms  "
                    f"p99 {row['p99_ms']} ms"
                )

    marshal = run_marshal_bench(marshal_iterations)
    print(
        f"marshal {marshal['operation']}: tree {marshal['tree_walk_us']} us  "
        f"plan {marshal['compiled_plan_us']} us  x{marshal['speedup']}"
    )
    print(
        f"unmarshal {marshal['operation']}: tree {marshal['unmarshal_tree_us']} us  "
        f"plan {marshal['unmarshal_plan_us']} us  x{marshal['unmarshal_speedup']}"
    )

    def rps_of(network: str, mode: str, clients: int, variant: str) -> float:
        for row in results:
            if (
                row["network"] == network
                and row["mode"] == mode
                and row["clients"] == clients
                and row["variant"] == variant
            ):
                return row["rps"]
        raise KeyError((network, mode, clients, variant))

    serial_8c = rps_of("tcp", "serialized", 8, "work")
    mux_8c = rps_of("tcp", "mux", 8, "work")
    summary = {
        "tcp_serialized_8c_work_rps": serial_8c,
        "tcp_mux_8c_work_rps": mux_8c,
        "tcp_mux_speedup_8c_work": round(mux_8c / serial_8c, 2) if serial_8c else None,
        "tcp_mux_speedup_8c_echo": round(
            rps_of("tcp", "mux", 8, "echo") / rps_of("tcp", "serialized", 8, "echo"), 2
        ),
        "tcp_single_client_work_p50_ms": {
            "serialized": next(
                r["p50_ms"]
                for r in results
                if (r["network"], r["mode"], r["clients"], r["variant"])
                == ("tcp", "serialized", 1, "work")
            ),
            "mux": next(
                r["p50_ms"]
                for r in results
                if (r["network"], r["mode"], r["clients"], r["variant"])
                == ("tcp", "mux", 1, "work")
            ),
        },
        "memory_mux_speedup_8c_work": round(
            rps_of("memory", "mux", 8, "work")
            / rps_of("memory", "serialized", 8, "work"),
            2,
        ),
    }
    report = {
        "bench": "throughput-pr2",
        "smoke": options.smoke,
        "calls_per_client": calls_per_client,
        "results": results,
        "marshal": marshal,
        "summary": summary,
    }
    Path(options.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {options.out}")
    print(f"mux@8c work speedup: {summary['tcp_mux_speedup_8c_work']}x")

    if mux_8c <= serial_8c:
        print("FAIL: tcp mux@8clients did not beat the serialized baseline")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

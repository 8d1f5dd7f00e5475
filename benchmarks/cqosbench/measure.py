"""What one child process measures: a `timed` round, the `count` pass or the `traced` run.

A timed round builds the workload over the plain network, warms it up,
drives it closed-loop for the given time and reduces the per-call samples
with the floor estimators.  The count pass gives calls and wire bytes per
invocation from a fixed number of calls.  The traced run uses fixed call
counts throughout: the count pass again with CPU shares and the codec
floors, the workload with and without the span observer, then Table 1's
ladder, the sharding probe and the replication probe side by side.
End-to-end metrics never come from the traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import threading
import time
from array import array

import repro
from repro.crypto.des import DesCipher
from repro.serialization.cdr import cdr_dumps, cdr_loads
from repro.serialization.jser import jser_dumps, jser_loads

from deploy import (
    DES_KEY_HEX,
    LADDER,
    Deployed,
    deploy_fanout,
    deploy_one_shard,
    deploy_rung,
    deploy_workload,
    make_network,
)
from estimators import (
    best_slice_median,
    best_slice_rate,
    best_window_p90,
    pooled_quantile,
    slices,
    stage_means,
)
from instruments import (
    LAYERS,
    OTHER,
    STAGES,
    CallCounter,
    CountingNetwork,
    StageObserver,
    leaks_after_close,
    open_descriptors,
    spans_of,
)
from workloads import WORKLOADS, Model, Op, Workload, object_ids

OWN_ROOT = os.path.dirname(os.path.abspath(__file__))
REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

WARMUP = 200
COUNT_WARMUP = 40
COUNT_CALLS = 240
TRACED_CALLS = 384
#: Calls one deployment makes before the next one beside it takes its turn.
TURN = 32
#: Slices whose calls give the stage means: the quietest ones of the traced pass.
STAGE_SLICES = 8
#: Of the counted calls, how many also have their CPU time charged to layers.
CPU_CALLS = 24
PROBE_WARMUP = 32
#: Turns each ladder rung and probe gets.
PROBE_TURNS = 8
FANOUT_COUNT_CALLS = 48
ECHO_CALLS = 512
#: The seven stages may fall short of the traced stub latency by this much.
STAGE_TOLERANCE = 0.02
#: How long a replica outvoted on the last call may take to catch up.
REPLICA_GRACE_S = 1.0
ONE_OBJECT = ["acct"]


class Samples:
    """Start and end (ns) of every call of one closed-loop pass."""

    def __init__(self) -> None:
        self.starts = array("q")
        self.ends = array("q")
        self.cpu_ns = 0

    def latencies(self) -> list[int]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def extend(self, other: "Samples") -> None:
        self.starts.extend(other.starts)
        self.ends.extend(other.ends)
        self.cpu_ns += other.cpu_ns


class Session:
    """A deployment being driven: its calls, its model, its tally."""

    def __init__(self, deployed: Deployed, cycle: list[Op], oids: list[str]):
        self.deployed = deployed
        self.cycle = cycle
        self.oids = oids
        self.calls = [(getattr(deployed.stubs[op.target], op.name), op.args) for op in cycle]
        self.model = Model(len(oids))
        self.position = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def drive(self, count: int | None = None, seconds: float | None = None) -> Samples:
        """Closed loop, one caller, one call in flight; every reply checked."""
        samples = Samples()
        starts, ends = samples.starts, samples.ends
        calls, cycle, model = self.calls, self.cycle, self.model
        clock = time.perf_counter_ns
        size = len(cycle)
        position = self.position
        done = failed = 0
        deadline = clock() + int((seconds or 0.0) * 1e9)
        cpu_before = time.process_time_ns()
        while True:
            method, args = calls[position % size]
            begun = clock()
            try:
                reply = method(*args)
            except Exception as exc:  # noqa: BLE001 - a failed call is a result
                reply = exc
            ended = clock()
            starts.append(begun)
            ends.append(ended)
            if reply != model.apply(cycle[position % size]):
                failed += 1
                if len(self.problems) < 3:
                    op = cycle[position % size]
                    self.problems.append(f"call {position} ({op.name}) answered {reply!r:.80}")
            position += 1
            done += 1
            if (done == count) if count is not None else (ended >= deadline):
                break
        samples.cpu_ns = time.process_time_ns() - cpu_before
        self.position = position
        self.attempted += done
        self.failed += failed
        return samples

    def finish(self, descriptors_before: int | None = None) -> None:
        """Final servant states against the model, then close and look for leaks."""
        deployed, accounts = self.deployed, self.model.accounts
        try:
            for i, servant in enumerate(deployed.servants):
                # Replicas of one object all hold that object's state, the
                # slowest of them a moment after the vote that answered.
                expected = accounts[i if len(deployed.servants) == len(accounts) else 0]
                patience = time.monotonic() + REPLICA_GRACE_S
                while servant.state() != expected.state():
                    if time.monotonic() > patience:
                        self.problems.append(
                            f"servant {i} ended in a state the model does not have"
                        )
                        break
                    time.sleep(0.005)
            if deployed.space is not None and len(accounts) > 1 and len(self.groups_reached()) < 2:
                self.problems.append("traffic reached fewer than two shard groups")
        finally:
            deployed.close()
        if descriptors_before is not None:
            self.problems += leaks_after_close(descriptors_before)

    def groups_reached(self) -> set[str]:
        """The shard groups that served at least one of the calls so far."""
        view = self.deployed.space.view()
        group_of = {member: group.name for group in view.groups for member in group.members}
        return {
            group_of[member]
            for target in self.model.touched
            for _, member in view.assignments(self.oids[target])
        }


class Tally:
    """Every session of one child process, summed for the result line."""

    def __init__(self) -> None:
        self.sessions: list[Session] = []
        self.problems: list[str] = []

    def session(self, deployed: Deployed, cycle: list[Op], oids: list[str]) -> Session:
        self.sessions.append(Session(deployed, cycle, oids))
        return self.sessions[-1]

    @contextlib.contextmanager
    def crowd(self, members: dict, warmup: int):
        """Build and warm several deployments side by side; close them all after.

        ``members`` maps a name to ``(build, cycle, oids)``.
        """
        with contextlib.ExitStack() as stack:
            sessions = {}
            for name, (build, cycle, oids) in members.items():
                sessions[name] = self.session(build(), cycle, oids)
                stack.callback(sessions[name].finish)
                sessions[name].drive(count=warmup)
            yield sessions

    def count_pass(
        self, kind: str, build, cycle, oids, warmup: int, calls: int, cpu_calls: int = 0
    ):
        """Calls and wire bytes of ``calls`` invocations on a fresh deployment.

        ``build(network)`` deploys over the counting network.  The profile
        hook only reaches threads started after it is installed, which is
        why this is a deployment of its own and never the timed one.  The
        first ``cpu_calls`` of the counted calls also have their CPU charged.
        """
        counter = CallCounter(REPRO_ROOT, OWN_ROOT)
        counter.install()
        try:
            network = CountingNetwork(make_network(kind))
            session = self.session(build(network), cycle, oids)
            session.drive(count=warmup)
            network.enabled = counter.enabled = True
            if cpu_calls:
                counter.timing = True
                session.drive(count=cpu_calls)
                counter.timing = False
            session.drive(count=calls - cpu_calls)
            network.enabled = counter.enabled = False
            session.finish()
        finally:
            counter.uninstall()
        return counter, network.frames

    def result(self, metrics: dict[str, float]) -> dict:
        return {
            "metrics": metrics,
            "attempted": sum(s.attempted for s in self.sessions),
            "failed": sum(s.failed for s in self.sessions),
            "problems": self.problems + [p for s in self.sessions for p in s.problems],
        }


# -- timed ----------------------------------------------------------------------


def timed(
    workload: Workload, seed: int, seconds: float, faulty: bool, stamps: list[float]
) -> dict:
    """One round.  ``stamps`` are the set-up's so far, the first at process entry."""
    tally = Tally()
    cycle, oids = workload.ops(seed), object_ids(workload)
    descriptors = open_descriptors()
    deployed = deploy_workload(
        workload, make_network(workload.network), faulty,
        mark=lambda: stamps.append(time.perf_counter()),
    )
    setup_steps = [after - before for before, after in zip(stamps, stamps[1:])]
    session = tally.session(deployed, cycle, oids)
    session.drive(count=WARMUP)
    samples = session.drive(seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    session.finish(descriptors)

    latencies = samples.latencies()
    return {"setup_steps": setup_steps} | tally.result({
        "invoke_p50_us": best_slice_median(latencies) / 1e3,
        "throughput_rps": best_slice_rate(samples.starts, samples.ends),
        "peak_rss_mb": peak_rss_mb,
    })


def counted(workload: Workload, seed: int, faulty: bool) -> dict:
    """The count metrics of a timed run, from a process that did nothing else.

    Request ids come from a process-wide counter and travel on the wire, so
    a count pass made after a timed loop would see frames a byte longer or
    shorter according to how many calls that loop happened to complete.
    """
    tally = Tally()
    counter, frames = tally.count_pass(
        workload.network, lambda net: deploy_workload(workload, net, faulty),
        workload.ops(seed), object_ids(workload), COUNT_WARMUP, COUNT_CALLS,
    )
    return tally.result({
        "pycalls_per_invoke": sum(counter.calls.values()) / COUNT_CALLS,
        "wire_bytes_per_invoke": sum(a + b for a, b in frames) / COUNT_CALLS,
    })


# -- traced -------------------------------------------------------------------------


class TracedRun:
    """The per-layer numbers of one workload, from fixed call counts."""

    def __init__(self, workload: Workload, seed: int, faulty: bool):
        self.workload = workload
        self.faulty = faulty
        self.tally = Tally()
        self.metrics: dict[str, float] = {"diag.machine_spin_us": machine_spin_us()}
        self.cycle, self.oids = workload.ops(seed), object_ids(workload)
        self.one = [op._replace(target=0) for op in self.cycle]  # same calls, one object

    def deploy(self, network=None, **options) -> Deployed:
        network = network or make_network(self.workload.network)
        return deploy_workload(self.workload, network, self.faulty, **options)

    def member(self, build) -> tuple:
        """A crowd member on one object of this workload's platform and network."""
        kind, platform = self.workload.network, self.workload.platform
        return (lambda: build(platform, make_network(kind))), self.one, ONE_OBJECT

    def spans(self, spans_out: str | None) -> None:
        """The workload with and without the observer, turn about: stages and diag."""
        metrics, tally = self.metrics, self.tally
        observer = StageObserver()
        pair = {
            "plain": (self.deploy, self.cycle, self.oids),
            "traced": (
                lambda: self.deploy(observers=[observer], probe=True), self.cycle, self.oids
            ),
        }
        descriptors = open_descriptors()
        plain, spanned = Samples(), Samples()
        with tally.crowd(pair, warmup=WARMUP) as sessions:
            # Threads of one deployment: the pair is built alike, bar the observer.
            metrics["diag.threads_peak"] = (threading.active_count() - 1) // len(pair) + 1
            observer.invocations.clear()
            composites = sessions["traced"].deployed.composites()
            raised_before = [composite.event_stats() for composite in composites]
            for _ in range(TRACED_CALLS // TURN):
                plain.extend(sessions["plain"].drive(count=TURN))
                spanned.extend(sessions["traced"].drive(count=TURN))
            events = handlers = 0
            for composite, before in zip(composites, raised_before):
                for name, raised in composite.event_stats().items():
                    delta = raised - before.get(name, 0)
                    events += delta
                    handlers += delta * composite.event(name).handler_count()
        tally.problems += leaks_after_close(descriptors)
        metrics["cactus.events_per_invoke"] = events / TRACED_CALLS
        metrics["cactus.handlers_per_invoke"] = handlers / TRACED_CALLS

        latencies = plain.latencies()
        floor = best_slice_median(latencies)
        by_write: dict[bool, list[int]] = {True: [], False: []}
        for offset, latency in enumerate(latencies):
            by_write[self.cycle[(WARMUP + offset) % len(self.cycle)].write].append(latency)
        metrics["diag.invoke_p90_us"] = best_window_p90(latencies) / 1e3
        metrics["diag.invoke_p99_us"] = pooled_quantile(latencies, 0.99) / 1e3
        metrics["diag.read_p50_us"] = statistics.median(by_write[False]) / 1e3
        metrics["diag.write_p50_us"] = statistics.median(by_write[True]) / 1e3
        metrics["diag.cpu_us_per_invoke"] = plain.cpu_ns / TRACED_CALLS / 1e3
        metrics["diag.slice_spread"] = statistics.median(latencies) / floor
        outer = spanned.latencies()
        metrics["diag.trace_overhead_x"] = best_slice_median(outer) / floor

        # The six inner hooks cut the stub call, from the moment the caller
        # makes it to the moment it returns, into seven stages.  One branch,
        # one firing of each hook: anything else and they stop adding up.
        if len(observer.invocations) != TRACED_CALLS:
            tally.problems.append(
                f"{len(observer.invocations)} invocations observed, {TRACED_CALLS} issued"
            )
            return
        stamps = [
            (begun, *inner, ended)
            for begun, inner, ended in zip(spanned.starts, observer.invocations, spanned.ends)
        ]
        # Over the quietest slices, like every other time here.
        quietest = sorted(slices(TRACED_CALLS), key=lambda span: sum(outer[span[0]:span[1]]))
        means, ratio = stage_means(
            [stamp for lo, hi in quietest[:STAGE_SLICES] for stamp in stamps[lo:hi]]
        )
        for stage, mean in zip(STAGES, means):
            metrics[f"stage.{stage}_us"] = mean / 1e3
        metrics["stage.sum_over_e2e"] = ratio
        if abs(ratio - 1.0) > STAGE_TOLERANCE:
            tally.problems.append(f"stages sum to {ratio:.4f} of the traced stub latency")
        if spans_out:
            with open(spans_out, "w") as out:
                for invocation, stamp in enumerate(stamps):
                    for span in spans_of(invocation, stamp):
                        out.write(json.dumps(span) + "\n")

    def layers(self) -> None:
        """Count pass: calls and CPU by layer, frames on the wire, and the floors."""
        metrics, kind = self.metrics, self.workload.network
        counter, frames = self.tally.count_pass(
            kind, lambda net: self.deploy(net), self.cycle, self.oids,
            COUNT_WARMUP, COUNT_CALLS, cpu_calls=CPU_CALLS,
        )
        cpu_total = sum(counter.cpu_ns.values())
        for layer in (*LAYERS, OTHER):
            metrics[f"{layer}.pycalls_per_invoke"] = counter.calls[layer] / COUNT_CALLS
            metrics[f"{layer}.self_share"] = counter.cpu_ns[layer] / cpu_total
        metrics["net.msgs_per_invoke"] = 2 * len(frames) / COUNT_CALLS
        metrics["net.request_bytes_per_invoke"] = sum(a for a, _ in frames) / COUNT_CALLS
        metrics["net.reply_bytes_per_invoke"] = sum(b for _, b in frames) / COUNT_CALLS
        metrics["net.echo_rtt_us"] = echo_rtt_us(kind, frames) * len(frames) / COUNT_CALLS
        metrics.update(codec_floors(self.workload.platform, self.cycle, len(self.oids)))

    def ladder(self) -> None:
        """Table 1's ladder, the workload again, sharding and replication probes.

        All on this platform and network with this workload's calls, taking
        their calls turn and turn about: a slow phase of the machine falls
        on all alike, and differences are only ever taken within the crowd.
        """
        metrics, workload = self.metrics, self.workload
        members = {
            rung: self.member(lambda platform, net, rung=rung: deploy_rung(platform, net, rung))
            for rung in LADDER
        }
        members["workload"] = (self.deploy, self.cycle, self.oids)
        members["fanout"] = self.member(lambda platform, net: deploy_fanout(platform, net, False))
        members["ordered"] = self.member(lambda platform, net: deploy_fanout(platform, net, True))
        # Sharding: the workload's own space if it has one, else one object in one group.
        sharded = "workload"
        if not workload.groups:
            sharded = "one_shard"
            members[sharded] = self.member(deploy_one_shard)
        with self.tally.crowd(members, warmup=PROBE_WARMUP) as sessions:
            samples = {name: Samples() for name in sessions}
            for _ in range(PROBE_TURNS):
                for name, session in sessions.items():
                    samples[name].extend(session.drive(count=TURN))
            metrics["core.route_us"] = route_us(sessions[sharded])
        p50 = {name: best_slice_median(taken.latencies()) / 1e3 for name, taken in samples.items()}
        base = p50["cactus_client"]
        metrics["platform.plain_rtt_us"] = p50["original"]
        metrics["core.ladder_stub_us"] = p50["cqos_stub"] - p50["original"]
        metrics["core.ladder_skeleton_us"] = p50["cqos_skeleton"] - p50["cqos_stub"]
        metrics["cactus.ladder_server_us"] = p50["cactus_server"] - p50["cqos_skeleton"]
        metrics["cactus.ladder_client_us"] = base - p50["cactus_server"]
        metrics["qos.over_base_us"] = p50["workload"] - base
        metrics["core.shard_overhead_us"] = p50[sharded] - base
        # Replication: measured, never gated (README, "Planned, not yet timed").
        metrics["qos.fanout3_p50_us"] = p50["fanout"]
        metrics["qos.fanout3_over_single_x"] = p50["fanout"] / base
        metrics["qos.total_order_extra_us"] = p50["ordered"] - p50["fanout"]
        counter, frames = self.tally.count_pass(
            workload.network, lambda net: deploy_fanout(workload.platform, net, False),
            self.one, ONE_OBJECT, PROBE_WARMUP, FANOUT_COUNT_CALLS,
        )
        metrics["qos.fanout3_pycalls_per_invoke"] = (
            sum(counter.calls.values()) / FANOUT_COUNT_CALLS
        )
        metrics["qos.fanout3_wire_bytes_per_invoke"] = (
            sum(a + b for a, b in frames) / FANOUT_COUNT_CALLS
        )


def traced(workload: Workload, seed: int, faulty: bool, spans_out: str | None) -> dict:
    run = TracedRun(workload, seed, faulty)
    run.layers()  # first, so its ids are as long as in the `count` child
    run.spans(spans_out)
    run.ladder()
    return run.tally.result(run.metrics)


def machine_spin_us() -> float:
    """Best time of a fixed pure-Python loop: shows a host phase shift."""

    def spin() -> None:
        acc = 0
        for i in range(20000):
            acc += i * i

    return best_of(7, spin) / 1e3


def best_of(repeats: int, run) -> int:
    """Shortest wall time (ns) of ``repeats`` calls of ``run``."""
    best = None
    for _ in range(repeats):
        begun = time.perf_counter_ns()
        run()
        elapsed = time.perf_counter_ns() - begun
        best = elapsed if best is None else min(best, elapsed)
    return best


def echo_rtt_us(kind: str, frames: list[tuple[int, int]]) -> float:
    """Raw `Connection.call` round trip at the captured frame sizes."""
    sizes = frames[:64]
    requests = [bytes(a) for a, _ in sizes]
    replies = [bytes(b) for _, b in sizes]
    served = [0]

    def handler(frame: bytes) -> bytes:
        served[0] += 1
        return replies[(served[0] - 1) % len(replies)]

    network = make_network(kind)
    try:
        listener = network.host("echo-server").listen("echo", handler)
        connection = network.host("echo-client").connect(listener.address)
        clock = time.perf_counter_ns
        latencies = []
        for i in range(PROBE_WARMUP + ECHO_CALLS):
            begun = clock()
            connection.call(requests[i % len(requests)])
            latencies.append(clock() - begun)
        connection.close()
    finally:
        network.close()
    return best_slice_median(latencies[PROBE_WARMUP:]) / 1e3


def codec_floors(platform: str, cycle: list[Op], objects: int) -> dict[str, float]:
    """Marshal, unmarshal and DES cost of one invocation's own values."""
    dumps, loads = (cdr_dumps, cdr_loads) if platform == "corba" else (jser_dumps, jser_loads)
    model = Model(objects)
    values = [value for op in cycle[:64] for value in (list(op.args), model.apply(op))]
    encoded = [dumps(value) for value in values]
    invocations = len(values) / 2
    cipher = DesCipher(bytes.fromhex(DES_KEY_HEX))
    clear = [jser_dumps(value) for value in values[:16]]

    def des() -> None:
        for blob in clear:
            cipher.decrypt(cipher.encrypt(blob))

    return {
        "serialization.marshal_us":
            best_of(5, lambda: [dumps(v) for v in values]) / invocations / 1e3,
        "serialization.unmarshal_us":
            best_of(5, lambda: [loads(b) for b in encoded]) / invocations / 1e3,
        "crypto.des_us_per_invoke": best_of(2, des) / (len(clear) / 2) / 1e3,
    }


def route_us(session: Session) -> float:
    """One `ShardRouter.route` on a client's router, over the ids called."""
    router = session.deployed.space.client_router()
    called = [session.oids[op.target] for op in session.cycle[:256]]

    def route_all() -> None:
        for oid in called:
            router.route(oid)

    return best_of(5, route_all) / len(called) / 1e3


def main(argv: list[str], stamps: list[float]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("timed", "count", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "timed":
        result = timed(workload, args.seed, args.seconds, args.inject_fault, stamps)
    elif args.mode == "count":
        result = counted(workload, args.seed, args.inject_fault)
    else:
        result = traced(workload, args.seed, args.inject_fault, args.spans_out)
    print(json.dumps(result))
    return 0

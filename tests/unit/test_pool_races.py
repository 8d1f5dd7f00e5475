"""ConnectionPool crash-eviction races under concurrent checkout.

Two layers of coverage:

- a deterministic unit test for the ABA eviction race: a caller whose call
  failed on an *old* connection must not evict the fresh replacement
  another caller pooled in the meantime (``drop(address, connection=...)``);
- phase-structured stress over a seeded ChaosNetwork-wrapped TCP
  transport: while the host is crashed, no checkout may complete a call
  successfully — a crashed host never serves — and after recovery the
  drop-and-retry discipline heals every worker.
"""

import threading

from repro.net.chaos import ChaosNetwork, FaultPlan
from repro.net.pool import ConnectionPool
from repro.net.tcp import TcpNetwork
from repro.net.transport import Connection, Host
from repro.util.errors import ReproError


class _StubConnection(Connection):
    def __init__(self):
        self.closed = False

    def call(self, data, timeout=None):
        return data

    def close(self):
        self.closed = True


class _StubHost(Host):
    def __init__(self):
        super().__init__("stub")
        self.opened: list[_StubConnection] = []

    def listen(self, service, handler):  # pragma: no cover - unused
        raise NotImplementedError

    def connect(self, address):
        connection = _StubConnection()
        self.opened.append(connection)
        return connection


class TestAbaEviction:
    def test_drop_with_instance_spares_the_replacement(self):
        host = _StubHost()
        pool = ConnectionPool(host)
        old = pool.get("srv/svc")
        # Another caller already invalidated and re-opened.
        pool.drop("srv/svc")
        fresh = pool.get("srv/svc")
        assert fresh is not old
        # The slow caller reports its failure on the *old* instance: the
        # fresh pooled connection must survive.
        pool.drop("srv/svc", old)
        assert pool.get("srv/svc") is fresh
        assert old.closed and not fresh.closed

    def test_drop_with_instance_closes_unpooled_connection(self):
        host = _StubHost()
        pool = ConnectionPool(host)
        stale = pool.get("srv/svc")
        pool.drop("srv/svc")  # already evicted (and closed)
        replacement = pool.get("srv/svc")
        pool.drop("srv/svc", stale)  # late report on the stale instance
        assert stale.closed
        assert pool.get("srv/svc") is replacement

    def test_plain_drop_still_evicts(self):
        host = _StubHost()
        pool = ConnectionPool(host)
        first = pool.get("srv/svc")
        pool.drop("srv/svc")
        assert first.closed
        assert pool.get("srv/svc") is not first


class TestCrashEvictionStress:
    WORKERS = 8
    CALLS_PER_PHASE = 15

    def test_crashed_host_never_serves_a_checkout(self):
        plan = FaultPlan(seed=42)
        network = ChaosNetwork(TcpNetwork(), plan)
        try:
            self._run(network)
        finally:
            network.close()

    def _run(self, network: ChaosNetwork) -> None:
        network.host("srv").listen("svc", lambda d: d)
        pool = ConnectionPool(network.host("cli"))
        address = "srv/svc"
        phase_barrier = threading.Barrier(self.WORKERS + 1)
        # successes[phase] counts calls that returned a (correct) reply.
        successes = [0, 0, 0]
        success_lock = threading.Lock()
        errors: list[BaseException] = []

        def one_call(phase: int) -> None:
            connection = pool.get(address)
            try:
                reply = connection.call(b"ping-%d" % phase, timeout=2.0)
            except ReproError:
                # Crash-aware discipline: evict only the instance that
                # failed, then retry from the pool on the next iteration.
                pool.drop(address, connection)
                return
            assert reply == b"ping-%d" % phase
            with success_lock:
                successes[phase] += 1

        def worker() -> None:
            try:
                for phase in range(3):
                    phase_barrier.wait()
                    for _ in range(self.CALLS_PER_PHASE):
                        one_call(phase)
                    phase_barrier.wait()
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
                # Unblock remaining barrier waits.
                phase_barrier.abort()

        threads = [threading.Thread(target=worker) for _ in range(self.WORKERS)]
        for thread in threads:
            thread.start()
        try:
            # Phase 0: healthy.
            phase_barrier.wait()
            phase_barrier.wait()
            # Phase 1: crashed for the whole phase.
            network.crash("srv")
            phase_barrier.wait()
            phase_barrier.wait()
            # Phase 2: recovered before the phase begins.
            network.recover("srv")
            phase_barrier.wait()
            phase_barrier.wait()
        finally:
            for thread in threads:
                thread.join(timeout=30)
        assert errors == []
        total_per_phase = self.WORKERS * self.CALLS_PER_PHASE
        assert successes[0] == total_per_phase
        # The invariant under test: while crashed, the pool never handed out
        # a connection that completed a call against the dead host.
        assert successes[1] == 0
        # After recovery, drop-and-retry healed the pool: the phase makes
        # progress again (first call per worker may burn on a stale socket).
        assert successes[2] >= total_per_phase - self.WORKERS

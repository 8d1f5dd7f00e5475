"""Deployments, built only through the public façade with its defaults.

``CqosDeployment(InMemoryNetwork() | TcpNetwork(), platform=...)``,
``add_replicas``, ``client_stub``, ``shard_space``, ``plain_stub`` /
``deploy_plain_replica`` and the exported micro-protocol classes: no
``engine=``, ``multiplex=``, ``serialize_connections=`` or
``compiled_dispatch=`` is ever passed, so a change that retires a baseline
or flips a default is measured here instead of breaking the benchmark.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.cactus import MicroProtocol
from repro.core.service import CqosDeployment
from repro.net import InMemoryNetwork, TcpNetwork
from repro.qos import (
    AccessControl,
    ActiveRep,
    DesPrivacy,
    DesPrivacyServer,
    MajorityVote,
    SignedIntegrity,
    SignedIntegrityServer,
    TimedSched,
    TotalOrder,
)
from repro.qos.timeliness import HIGH_PRIORITY

from workloads import Workload, object_ids, opening_movements

DES_KEY_HEX = "0123456789abcdef"
MAC_KEY_HEX = "fedcba9876543210"
TELLER = "teller-1"
#: Every `LIE_EVERY`-th read of a faulty servant returns a wrong value.
LIE_EVERY = 50

LADDER = ("original", "cqos_stub", "cqos_skeleton", "cactus_server", "cactus_client")


class BoundedAccount(BankAccount):
    """The bank servant, keeping only the last 64 movements.

    `BankAccount` remembers every write for ever, so its memory and the
    size of nothing else would depend on how many calls a run completed.
    This one answers `history(64)` exactly and holds a fixed amount of
    state.  ``faulty=True`` is the fault injection the tests use.
    """

    def __init__(self, faulty: bool = False):
        super().__init__()
        self._lock = threading.Lock()
        self._amount = 0.0
        self._movements = opening_movements()
        self._faulty = faulty
        self._reads = 0

    def _lie(self) -> bool:
        self._reads += 1
        return self._faulty and self._reads % LIE_EVERY == 0

    def get_balance(self) -> float:
        with self._lock:
            return self._amount + 1.0 if self._lie() else self._amount

    def set_balance(self, amount: float) -> None:
        with self._lock:
            self._amount = float(amount)
            self._note("set", amount)

    def deposit(self, amount: float) -> float:
        with self._lock:
            self._amount += amount
            self._note("deposit", amount)
            return self._amount

    def history(self, count: int) -> list:
        with self._lock:
            moves = [dict(m) for m in list(self._movements)[-count:]]
            if self._lie():
                moves[-1]["amount"] += 1.0
            return moves

    def _note(self, kind: str, amount: float) -> None:
        self._movements.append(
            {"kind": kind, "amount": amount, "balance_after": self._amount}
        )

    def state(self) -> tuple[float, list]:
        with self._lock:
            return self._amount, list(self._movements)


class CompositeProbe(MicroProtocol):
    """Binds nothing; only lets the traced run reach its composite's stats."""

    name = "CqosbenchProbe"


def make_network(kind: str):
    return TcpNetwork() if kind == "tcp" else InMemoryNetwork()


def _secure_server():
    return [
        DesPrivacyServer(key_hex=DES_KEY_HEX),
        SignedIntegrityServer(key_hex=MAC_KEY_HEX),
        AccessControl(
            acl={"set_balance": [TELLER], "get_balance": [TELLER]}, default_allow=False
        ),
        TimedSched(),
    ]


def _secure_client():
    return [SignedIntegrity(key_hex=MAC_KEY_HEX), DesPrivacy(key_hex=DES_KEY_HEX)]


class Deployed:
    """One built deployment: its stubs, its servants and how to close it."""

    def __init__(self, dep: CqosDeployment):
        self.dep = dep
        self.stubs: list = []
        self.servants: list[BoundedAccount] = []
        self.space = None
        self.probes: list[CompositeProbe] = []

    def composites(self) -> list:
        """Every Cactus composite a traced deployment can reach."""
        found = [probe.composite for probe in self.probes]
        found += [s.cactus_client for s in self.stubs if getattr(s, "cactus_client", None)]
        return found

    def close(self) -> None:
        self.dep.close()


def _deploy(
    platform: str, network, build: Callable[[Deployed], None], mark: Callable[[], None] = int
) -> Deployed:
    """A deployment filled in by ``build``; returns once every stub has had one reply."""
    out = Deployed(CqosDeployment(network, platform=platform, compiled=bank_compiled()))
    try:
        build(out)
        for stub in out.stubs:
            stub.get_balance()
            mark()
    except BaseException:
        out.close()
        raise
    return out


def deploy_workload(
    workload: Workload,
    network,
    faulty: bool = False,
    observers: Sequence[Any] | None = None,
    probe: bool = False,
    mark: Callable[[], None] = int,
) -> Deployed:
    """Build ``workload``: its objects, one stub each.

    ``mark`` is called after every step of the set-up: each object, each
    stub, each first reply.
    """
    iface = bank_interface()

    def build(out: Deployed) -> None:
        def servant() -> BoundedAccount:
            out.servants.append(BoundedAccount(faulty))
            return out.servants[-1]

        server: Any = _secure_server if workload.secure else "with_base"
        if probe:
            server = _probed(server, out.probes)
        stub_args: dict = {"observers": observers}
        if workload.secure:
            stub_args.update(
                client_micro_protocols=_secure_client, client_id=TELLER, priority=HIGH_PRIORITY
            )
        ids = object_ids(workload)
        if workload.groups:
            out.space = out.dep.shard_space(dict(workload.groups))
            for oid in ids:
                out.space.add_object(
                    oid, servant, iface, server_micro_protocols=server, observers=observers
                )
                mark()
            make_stub = out.space.client_stub
        else:
            for oid in ids:
                out.dep.add_replicas(
                    oid, servant, iface, server_micro_protocols=server, observers=observers
                )
                mark()
            make_stub = out.dep.client_stub
        for oid in ids:
            out.stubs.append(make_stub(oid, iface, **stub_args))
            mark()

    return _deploy(workload.platform, network, build, mark)


def _probed(config: Any, sink: list) -> Callable[[], list]:
    def factory() -> list:
        sink.append(CompositeProbe())
        extra = [] if config == "with_base" else config()
        return [*extra, sink[-1]]

    return factory


def deploy_rung(platform: str, network, rung: str) -> Deployed:
    """One rung of Table 1's ladder: one object, base protocols at most."""
    iface = bank_interface()

    def build(out: Deployed) -> None:
        out.servants.append(BoundedAccount())
        if rung in ("original", "cqos_stub"):
            out.dep.deploy_plain_replica("acct", out.servants[0], iface)
        else:
            out.dep.add_replicas(
                "acct",
                lambda: out.servants[0],
                iface,
                server_micro_protocols=None if rung == "cqos_skeleton" else "with_base",
            )
        if rung == "original":
            out.stubs = [out.dep.plain_stub("acct", iface)]
        else:
            out.stubs = [
                out.dep.client_stub("acct", iface, with_cactus_client=(rung == "cactus_client"))
            ]

    return _deploy(platform, network, build)


def deploy_one_shard(platform: str, network) -> Deployed:
    """The full base rung again, with the object placed in a shard space."""
    iface = bank_interface()

    def build(out: Deployed) -> None:
        out.servants.append(BoundedAccount())
        out.space = out.dep.shard_space({"a": 1})
        out.space.add_object("acct", lambda: out.servants[0], iface)
        out.stubs = [out.space.client_stub("acct", iface)]

    return _deploy(platform, network, build)


def deploy_fanout(platform: str, network, total_order: bool) -> Deployed:
    """Three replicas behind ActiveRep + MajorityVote (the untimed probe)."""
    iface = bank_interface()

    def build(out: Deployed) -> None:
        def servant() -> BoundedAccount:
            out.servants.append(BoundedAccount())
            return out.servants[-1]

        out.dep.add_replicas(
            "acct", servant, iface, replicas=3,
            server_micro_protocols=(lambda: [TotalOrder()]) if total_order else "with_base",
        )
        out.stubs = [
            out.dep.client_stub(
                "acct", iface, client_micro_protocols=lambda: [ActiveRep(), MajorityVote()]
            )
        ]

    return _deploy(platform, network, build)

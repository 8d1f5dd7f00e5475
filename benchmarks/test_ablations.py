"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's tables; they isolate *why* the tables look the way
they do:

- ``dii_vs_direct`` — the CORBA CQoS stub (abstract request, then the DII
  conversion with its NVList and TypeCodes) vs ``ObjectRef.invoke_op`` on
  the reference that stub is bound to: the client-side conversion the paper
  blames for the larger CORBA-side overhead.
- ``transport`` — identical CQoS deployment over the in-memory network vs
  real loopback TCP: how much of a call is transport substrate.
- ``latency_sensitivity`` — the message-count-dominated configuration
  (Active+Total) with zero vs LAN-like injected latency: confirms Table 2's
  replication rows are message-bound, not CPU-bound.
"""

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.core.service import CqosDeployment
from repro.net.memory import InMemoryNetwork
from repro.net.tcp import TcpNetwork
from repro.qos import ActiveRep, TotalOrder

from conftest import BENCH_OPTIONS, LAN_LATENCY


@pytest.mark.parametrize("mode", ["dii", "direct"])
def test_ablation_dii_vs_direct(benchmark, mode):
    network = InMemoryNetwork(latency=LAN_LATENCY, spin=True)
    deployment = CqosDeployment(network, "corba", bank_compiled(), request_timeout=30.0)
    try:
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        stub.get_balance()  # binds replica 1
        reference = stub._platform.directory.endpoint(1)

        def stub_pair():
            stub.set_balance(1.0)
            stub.get_balance()

        def direct_pair():
            reference.invoke_op("set_balance", [1.0])
            reference.invoke_op("get_balance", [])

        pair = stub_pair if mode == "dii" else direct_pair
        pair()
        benchmark.pedantic(pair, **BENCH_OPTIONS)
        benchmark.extra_info["ablation"] = f"dii_vs_direct:{mode}"
    finally:
        deployment.close()


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_ablation_transport(benchmark, bench_platform, transport):
    network = InMemoryNetwork() if transport == "memory" else TcpNetwork()
    deployment = CqosDeployment(
        network, bench_platform, bank_compiled(), request_timeout=30.0
    )
    try:
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())

        def pair():
            stub.set_balance(1.0)
            stub.get_balance()

        pair()
        benchmark.pedantic(pair, **BENCH_OPTIONS)
        benchmark.extra_info["ablation"] = f"transport:{transport}"
    finally:
        deployment.close()


@pytest.mark.parametrize("latency_us", [0, 50, 200])
def test_ablation_latency_sensitivity(benchmark, latency_us):
    """Active+Total on CORBA: response time should scale with latency much
    faster than the non-replicated base config would (more messages)."""
    network = InMemoryNetwork(latency=latency_us * 1e-6, spin=True)
    deployment = CqosDeployment(network, "corba", bank_compiled(), request_timeout=30.0)
    try:
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            replicas=3,
            server_micro_protocols=lambda: [TotalOrder()],
        )
        stub = deployment.client_stub(
            "acct", bank_interface(), client_micro_protocols=lambda: [ActiveRep()]
        )

        def pair():
            stub.set_balance(1.0)
            stub.get_balance()

        pair()
        benchmark.pedantic(pair, rounds=20, iterations=5, warmup_rounds=2)
        benchmark.extra_info["ablation"] = f"latency:{latency_us}us"
    finally:
        deployment.close()

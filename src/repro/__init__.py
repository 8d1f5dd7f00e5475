"""repro — CQoS: Configurable Quality of Service for distributed objects.

A from-scratch Python reproduction of *"Providing QoS Customization in
Distributed Object Systems"* (He, Rajagopalan, Hiltunen, Schlichting —
Middleware 2001): the CQoS architecture, the Cactus micro-protocol
framework it is built on, and the two middleware substrates (a CORBA-like
ORB and a Java-RMI-like platform) it is evaluated against.

Quickstart::

    from repro import CqosDeployment, InMemoryNetwork
    from repro.apps.bank import BankAccount, bank_compiled, bank_interface

    net = InMemoryNetwork()
    dep = CqosDeployment(net, platform="corba", compiled=bank_compiled())
    dep.add_replicas("acct", BankAccount, bank_interface(), replicas=3,
                     server_micro_protocols=["TotalOrder"])
    stub = dep.client_stub("acct", bank_interface(),
                           client_micro_protocols=["ActiveRep", "MajorityVote"])
    stub.set_balance(100.0)
    assert stub.get_balance() == 100.0

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.util import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "CqosDeployment": "repro.core.service",
    "InMemoryNetwork": "repro.net.memory",
})

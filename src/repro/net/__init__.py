"""Message transport substrate: the stand-in for the paper's Linux cluster.

The paper evaluated CQoS on a cluster of Pentium III machines on a 1 Gbit
LAN.  Here, "hosts" are logical nodes inside one process and the wire is one
of two interchangeable transports:

- :class:`~repro.net.memory.InMemoryNetwork` — delivers each call on the
  caller's thread, crashes and recovers hosts on request, carries a clock
  and counts messages exactly.  Used by tests and, under a chaos plan's
  latency, by the benchmarks.
- :class:`~repro.net.tcp.TcpNetwork` — real TCP sockets on the loopback
  interface with correlation-id-multiplexed frames (many concurrent
  in-flight calls per connection), for integration tests that want an
  actual kernel network path.  It has one engine: a leader/follower
  client demultiplexer and a thread per accepted connection.

Every fault comes from :class:`~repro.net.chaos.ChaosNetwork`, which
decorates either transport with a seedable
:class:`~repro.net.chaos.FaultPlan` (loss, latency/jitter, duplication,
reorder, corruption, resets, partitions, scheduled crash/recover), giving
both wires one deterministic fault model.

Both expose the same shape: ``network.host(name)`` returns a
:class:`~repro.net.transport.Host`; hosts ``listen(service, handler)`` and
``connect("host/service")``; connections make blocking ``call(bytes)->bytes``
request/reply exchanges, the only primitive the middleware layers need.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "InMemoryNetwork": "repro.net.memory",
    "TcpNetwork": "repro.net.tcp",
})

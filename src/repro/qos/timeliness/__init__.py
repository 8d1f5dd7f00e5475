"""Timeliness / service-differentiation micro-protocols (paper section 3.4).

"Providing rigorous timeliness guarantees is difficult … However, service
differentiation properties that provide more timely service to high
priority requests can be implemented as relatively simple micro-protocols."

- :class:`~repro.qos.timeliness.priority.PrioritySched` — maps the request
  priority onto the executing thread's priority, as early as possible;
- :class:`~repro.qos.timeliness.queued.QueuedSched` — queues low-priority
  requests while high-priority requests are executing;
- :class:`~repro.qos.timeliness.timed.TimedSched` — rate-aware variant:
  releases queued low-priority requests one at a time only when the
  previous time window saw fewer high-priority arrivals than a threshold.

The request's priority comes from the server-side priority policy (client
identity, per the paper) or the piggybacked value.  The two queuing
schedulers share one base, :class:`~repro.qos.timeliness.common.QueuingSched`,
which also carries the paper's resolution of the ordering/differentiation
conflict: under TotalOrder only the sequencer's scheduler differentiates,
and every other replica's admits in the announced order.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "HIGH_PRIORITY": "repro.qos.timeliness.common",
    "LOW_PRIORITY": "repro.qos.timeliness.common",
})

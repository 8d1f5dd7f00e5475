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
identity, per the paper) or the piggybacked value; the
:data:`HIGH_PRIORITY_THRESHOLD` boundary classifies it.  The scheduling
handlers bind to ``readyToInvoke`` *before* TotalOrder's sequencing, which
is the paper's resolution of the ordering/differentiation conflict when the
differentiation protocols run at the ordering coordinator.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "HIGH_PRIORITY": "repro.qos.timeliness.common",
    "LOW_PRIORITY": "repro.qos.timeliness.common",
})

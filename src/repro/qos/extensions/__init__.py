"""Micro-protocols beyond the paper's prototype set.

Each is something the paper explicitly names as implementable in the same
way (sections 2.2, 3, and 3.5):

- :class:`~repro.qos.extensions.load_balance.LoadBalance` — "the
  server_status() operation … could be extended to provide information such
  as the load conditions on the server for load balancing purposes";
- :class:`~repro.qos.extensions.caching.ClientCache` /
  :class:`~repro.qos.extensions.caching.CacheInvalidator` — "other
  properties and functions such as caching, prefetching, and load balancing
  could be implemented in similar ways";
- :class:`~repro.qos.extensions.admission.AdmissionControl` — "additional
  timeliness micro-protocols could include admission control and traffic
  enforcement".

Together they form the overload-protection stack (DESIGN.md §12): SLO-aware
admission sheds doomed and over-budget work first, the caching pair keeps
read traffic off the wire with event-driven invalidation, and the
latency-EWMA balancer steers around hot replicas.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "AdmissionControl": "repro.qos.extensions.admission",
    "AdmissionRejectedError": "repro.util.errors",
    "CacheInvalidator": "repro.qos.extensions.caching",
    "ClientCache": "repro.qos.extensions.caching",
    "LoadBalance": "repro.qos.extensions.load_balance",
    "LoadReporter": "repro.qos.extensions.load_balance",
})

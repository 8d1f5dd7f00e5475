"""CQoS: the paper's primary contribution.

The architecture has two halves (paper Figure 1/2):

- **Interceptors** (:mod:`~repro.core.stub`, :mod:`~repro.core.skeleton`,
  :mod:`~repro.core.adapters`; everything a platform is lives in its one
  adapter module) — platform-specific: the *CQoS stub* replaces
  the middleware-generated client stub; the *CQoS skeleton* registers as a
  proxy servant in place of the real server object.  Both convert platform
  requests to/from the platform-independent abstract
  :class:`~repro.core.request.Request` and implement the **Cactus QoS
  interface** (:mod:`~repro.core.interfaces`).
- **Service components** (:mod:`~repro.core.client`,
  :mod:`~repro.core.server`) — generic: the *Cactus client* and *Cactus
  server* composite protocols, whose micro-protocols
  (:mod:`repro.qos`) implement the fault-tolerance / security / timeliness
  attributes against the abstract interfaces only.

:mod:`~repro.core.service` is the deployment façade gluing everything
together for applications, tests, and the benchmark harness.
"""

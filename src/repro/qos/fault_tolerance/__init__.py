"""Fault-tolerance micro-protocols (paper section 3.2).

Replication:

- :class:`~repro.qos.fault_tolerance.active.ActiveRep` — active
  replication: the request goes to all replicas, all non-crashed replicas
  reply;
- :class:`~repro.qos.fault_tolerance.passive.PassiveRep` (client) and
  :class:`~repro.qos.fault_tolerance.passive.PassiveRepServer` (server) —
  passive replication: the designated primary replies and forwards state
  updates to the backups; the client fails over on primary failure.

Acceptance semantics (when is a request "completed"?):

- default (in ClientBase): first reply, success or failure;
- :class:`~repro.qos.fault_tolerance.acceptance.FirstSuccess` — first
  successful execution;
- :class:`~repro.qos.fault_tolerance.acceptance.MajorityVote` — majority
  value of the non-failed replicas.

Ordering: :class:`~repro.qos.fault_tolerance.total_order.TotalOrder` — a
sequencer-based total order across replicas (with the coordinator-failover
extension the paper leaves as future work).

Extensions beyond the prototype: :class:`~repro.qos.fault_tolerance.retransmit.Retransmit`
(transient network failures), request logging + recovery
(:mod:`~repro.qos.fault_tolerance.logging_recovery`), and a client-side
failure detector (:mod:`~repro.qos.fault_tolerance.membership`).

Resilience suite (extensions; see ``docs/RESILIENCE.md``):

- :class:`~repro.qos.fault_tolerance.resilience.RetryBackoff` — exponential
  backoff + decorrelated jitter + retry budget;
- :class:`~repro.qos.fault_tolerance.resilience.CircuitBreaker` — per-server
  closed/open/half-open breaker with fail-fast and probing;
- :class:`~repro.qos.fault_tolerance.deadline.DeadlineBudget` /
  :class:`~repro.qos.fault_tolerance.deadline.DeadlineShed` — deadline
  propagation client-side, expired-work shedding server-side;
- :class:`~repro.qos.fault_tolerance.degrade.Degrade` — serve last-known-good
  (stale-marked) values when every other layer has given up.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "FailureDetector": "repro.qos.fault_tolerance.membership",
    "RequestLog": "repro.qos.fault_tolerance.logging_recovery",
    "replay_log": "repro.qos.fault_tolerance.logging_recovery",
})

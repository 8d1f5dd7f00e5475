"""QoS micro-protocols (paper section 3).

- :mod:`repro.qos.base` — ClientBase and ServerBase, the default
  request-processing pipeline every configuration builds on;
- :mod:`repro.qos.fault_tolerance` — ActiveRep, PassiveRep, acceptance
  semantics (first response / first success / majority vote), sequencer
  TotalOrder, plus the extensions the paper lists as easy to add
  (retransmission, coordinator failover, request logging & recovery);
- :mod:`repro.qos.security` — DesPrivacy, SignedIntegrity, AccessControl;
- :mod:`repro.qos.timeliness` — PrioritySched, QueuedSched, TimedSched;
- :mod:`repro.qos.combinations` — the composability matrix behind the
  paper's ">100 combinations" claim, with validation of client/server
  configuration pairs.

None of the individual techniques is novel (the paper says as much); what
is reproduced is their packaging as composable micro-protocols.
"""

from repro.cactus.config import declare_micro_protocols
from repro.util import lazy_exports

#: Every micro-protocol under this package: registered name → the module
#: whose import registers it.  A configuration that names one imports that
#: module then (:func:`~repro.cactus.config.resolve_micro_protocol`), and
#: each is importable from here by the same name.
MICRO_PROTOCOLS = {
    "ClientBase": "repro.qos.base",
    "ServerBase": "repro.qos.base",
    "FirstSuccess": "repro.qos.fault_tolerance.acceptance",
    "MajorityVote": "repro.qos.fault_tolerance.acceptance",
    "ActiveRep": "repro.qos.fault_tolerance.active",
    "DeadlineBudget": "repro.qos.fault_tolerance.deadline",
    "DeadlineShed": "repro.qos.fault_tolerance.deadline",
    "Degrade": "repro.qos.fault_tolerance.degrade",
    "RequestLog": "repro.qos.fault_tolerance.logging_recovery",
    "FailureDetector": "repro.qos.fault_tolerance.membership",
    "PassiveRep": "repro.qos.fault_tolerance.passive",
    "PassiveRepServer": "repro.qos.fault_tolerance.passive",
    "CircuitBreaker": "repro.qos.fault_tolerance.resilience",
    "RetryBackoff": "repro.qos.fault_tolerance.resilience",
    "Retransmit": "repro.qos.fault_tolerance.retransmit",
    "TotalOrder": "repro.qos.fault_tolerance.total_order",
    "AccessControl": "repro.qos.security.access",
    "SignedIntegrity": "repro.qos.security.integrity",
    "SignedIntegrityServer": "repro.qos.security.integrity",
    "DesPrivacy": "repro.qos.security.privacy",
    "DesPrivacyServer": "repro.qos.security.privacy",
    "PrioritySched": "repro.qos.timeliness.priority",
    "QueuedSched": "repro.qos.timeliness.queued",
    "TimedSched": "repro.qos.timeliness.timed",
    "AdmissionControl": "repro.qos.extensions.admission",
    "CacheInvalidator": "repro.qos.extensions.caching",
    "ClientCache": "repro.qos.extensions.caching",
    "LoadBalance": "repro.qos.extensions.load_balance",
    "LoadReporter": "repro.qos.extensions.load_balance",
}
declare_micro_protocols(MICRO_PROTOCOLS)

__getattr__, __dir__, __all__ = lazy_exports(globals(), MICRO_PROTOCOLS | {
    "Stale": "repro.qos.fault_tolerance.degrade",
    "validate_configuration": "repro.qos.combinations",
})

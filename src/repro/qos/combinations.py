"""The composability matrix (paper section 3.5).

"The fault-tolerance micro-protocols can be used in five different
combinations: passive replication (1) or active replication with any
combinations of total order and acceptance (4).  Overall, a service can be
configured with no fault tolerance or any of these five fault-tolerance
combinations with any combination of the three security micro-protocols
and any of the three timeliness micro-protocols.  As a result, even this
small set of micro-protocols can be configured in over 100 different
combinations."

Arithmetic check: (1 + 5) fault-tolerance choices × 2³ security subsets ×
(1 + 3) timeliness choices = 192 > 100.  :func:`count_combinations` computes
it; :func:`all_combinations` enumerates them; :func:`validate_configuration`
checks a concrete client/server pair for the constraints the matrix
encodes (and the cross-side consistency that static customization requires
— "the configurations in statically customized client and server protocols
must match for the system to operate correctly").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Mapping

from repro.cactus.config import MicroProtocolSpec
from repro.util.errors import ConfigurationError

# Feature names (configuration vocabulary, not class names).
FT_NONE = "none"
FT_PASSIVE = "passive"
FT_ACTIVE = "active"
FT_ACTIVE_VOTE = "active+vote"
FT_ACTIVE_TOTAL = "active+total"
FT_ACTIVE_VOTE_TOTAL = "active+vote+total"

#: The paper's five fault-tolerance combinations (plus "none").
FT_COMBINATIONS = (
    FT_PASSIVE,
    FT_ACTIVE,
    FT_ACTIVE_VOTE,
    FT_ACTIVE_TOTAL,
    FT_ACTIVE_VOTE_TOTAL,
)

SECURITY_FEATURES = ("privacy", "integrity", "access")
TIMELINESS_FEATURES = ("priority", "queued", "timed")

#: Resilience extensions (not part of the paper's 192-point matrix — they
#: compose orthogonally with every combination, so they are vocabulary for
#: :func:`validate_configuration`, not extra axes of :func:`all_combinations`).
RESILIENCE_FEATURES = ("retry", "breaker", "degrade", "deadline")

#: Overload-protection extensions (same status as the resilience features:
#: vocabulary for validation, not matrix axes).
OVERLOAD_FEATURES = ("admission", "caching", "balance")

#: Which side(s) each feature's micro-protocols live on.
CLIENT_SIDE = {
    FT_PASSIVE: ("PassiveRep",),
    FT_ACTIVE: ("ActiveRep",),
    FT_ACTIVE_VOTE: ("ActiveRep", "MajorityVote"),
    FT_ACTIVE_TOTAL: ("ActiveRep",),
    FT_ACTIVE_VOTE_TOTAL: ("ActiveRep", "MajorityVote"),
    "privacy": ("DesPrivacy",),
    "integrity": ("SignedIntegrity",),
    "retry": ("RetryBackoff",),
    "breaker": ("CircuitBreaker",),
    "degrade": ("Degrade",),
    "deadline": ("DeadlineBudget",),
    "caching": ("ClientCache",),
    "balance": ("LoadBalance",),
}

SERVER_SIDE = {
    FT_PASSIVE: ("PassiveRepServer",),
    FT_ACTIVE_TOTAL: ("TotalOrder",),
    FT_ACTIVE_VOTE_TOTAL: ("TotalOrder",),
    "privacy": ("DesPrivacyServer",),
    "integrity": ("SignedIntegrityServer",),
    "access": ("AccessControl",),
    "priority": ("PrioritySched",),
    "queued": ("QueuedSched",),
    "timed": ("TimedSched",),
    "deadline": ("DeadlineShed",),
    "admission": ("AdmissionControl",),
    "caching": ("CacheInvalidator",),
    "balance": ("LoadReporter",),
}


@dataclass(frozen=True)
class Combination:
    """One point of the configuration space."""

    fault_tolerance: str = FT_NONE
    security: tuple[str, ...] = ()
    timeliness: str | None = None

    def client_protocols(self) -> tuple[str, ...]:
        names = list(CLIENT_SIDE.get(self.fault_tolerance, ()))
        for feature in self.security:
            names.extend(CLIENT_SIDE.get(feature, ()))
        return tuple(names)

    def server_protocols(self) -> tuple[str, ...]:
        names = list(SERVER_SIDE.get(self.fault_tolerance, ()))
        for feature in self.security:
            names.extend(SERVER_SIDE.get(feature, ()))
        if self.timeliness is not None:
            names.extend(SERVER_SIDE.get(self.timeliness, ()))
        return tuple(names)

    def label(self) -> str:
        parts = [self.fault_tolerance]
        parts.extend(self.security)
        if self.timeliness:
            parts.append(self.timeliness)
        return "/".join(parts)


def protocol_specs(names: Iterable[str], params: Mapping[str, dict]) -> list[MicroProtocolSpec]:
    """``names`` (one side of a :class:`Combination`) as a configuration,
    each micro-protocol given the keyword parameters ``params`` holds under
    its name (none when it holds nothing)."""
    return [MicroProtocolSpec(name, dict(params.get(name, {}))) for name in names]


def _powerset(items: tuple[str, ...]):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def all_combinations() -> list[Combination]:
    """Enumerate the full configuration space of section 3.5."""
    result = []
    for ft in (FT_NONE, *FT_COMBINATIONS):
        for security in _powerset(SECURITY_FEATURES):
            for timeliness in (None, *TIMELINESS_FEATURES):
                result.append(
                    Combination(
                        fault_tolerance=ft,
                        security=tuple(security),
                        timeliness=timeliness,
                    )
                )
    return result


def count_combinations() -> int:
    """(1+5) FT x 2^3 security x (1+3) timeliness = 192 (> 100)."""
    return len(all_combinations())


# -- validation of concrete micro-protocol sets -----------------------------

_CLIENT_FT = {"ActiveRep", "PassiveRep"}
_ACCEPTANCE = {"FirstSuccess", "MajorityVote"}
_TIMELINESS = {"PrioritySched", "QueuedSched", "TimedSched"}
_PAIRED = {
    "DesPrivacy": "DesPrivacyServer",
    "SignedIntegrity": "SignedIntegrityServer",
    "PassiveRep": "PassiveRepServer",
}


def validate_configuration(
    client_names: list[str] | tuple[str, ...],
    server_names: list[str] | tuple[str, ...],
) -> None:
    """Reject invalid or mismatched client/server configurations.

    Raises :class:`~repro.util.errors.ConfigurationError` describing the
    first violated constraint.  The constraints are the ones implicit in
    the paper's matrix:

    - ActiveRep and PassiveRep are mutually exclusive;
    - at most one acceptance micro-protocol, and only with ActiveRep;
    - TotalOrder (server) requires ActiveRep (client) — with a single
      primary there is nothing to order consistently;
    - at most one of the queue-based/timed schedulers (both schedule the
      same queue events); PrioritySched composes with either;
    - paired protocols (privacy, integrity, passive replication) must be
      configured on both sides;
    - Retransmit and RetryBackoff are mutually exclusive — both rebind the
      same failure, so configuring both multiplies retry traffic;
    - overload-protection coherence: ClientCache must not silently bypass
      privacy-without-integrity, acceptance voting, or replication
      assigners; LoadBalance and the replication assigners replace the
      same base handler; CacheInvalidator is pointless without its client
      half.
    """
    client = set(client_names)
    server = set(server_names)

    if {"Retransmit", "RetryBackoff"} <= client:
        raise ConfigurationError(
            "Retransmit and RetryBackoff are mutually exclusive (double retry)"
        )

    ft = client & _CLIENT_FT
    if len(ft) > 1:
        raise ConfigurationError("ActiveRep and PassiveRep are mutually exclusive")
    acceptance = client & _ACCEPTANCE
    if len(acceptance) > 1:
        raise ConfigurationError(
            "configure at most one acceptance micro-protocol "
            f"(got {sorted(acceptance)})"
        )
    if acceptance and "ActiveRep" not in client:
        raise ConfigurationError(
            f"{sorted(acceptance)[0]} needs multiple replies and therefore ActiveRep"
        )
    if "TotalOrder" in server and "ActiveRep" not in client:
        raise ConfigurationError("TotalOrder (server) requires ActiveRep (client)")
    queue_scheds = server & {"QueuedSched", "TimedSched"}
    if len(queue_scheds) > 1:
        raise ConfigurationError(
            "QueuedSched and TimedSched are mutually exclusive (one queue policy)"
        )
    for client_name, server_name in _PAIRED.items():
        if client_name in client and server_name not in server:
            raise ConfigurationError(
                f"{client_name} (client) requires {server_name} (server)"
            )
        if server_name in server and client_name not in client:
            raise ConfigurationError(
                f"{server_name} (server) requires {client_name} (client)"
            )

    # -- overload-protection coherence ------------------------------------

    if "ClientCache" in client and "DesPrivacy" in client and "SignedIntegrity" not in client:
        raise ConfigurationError(
            "ClientCache with DesPrivacy requires SignedIntegrity: cached "
            "replies are stored and re-served as plaintext, so without a "
            "signature a tampered cache-fill reply is replayed forever — "
            "add SignedIntegrity or drop the cache"
        )
    cache_bypassed = client & (_ACCEPTANCE | _CLIENT_FT)
    if "ClientCache" in client and cache_bypassed:
        raise ConfigurationError(
            f"ClientCache cannot compose with {sorted(cache_bypassed)}: a "
            "cache hit completes the request locally without consulting any "
            "replica, silently bypassing the replication/acceptance "
            "guarantee — drop the cache or the replication protocols"
        )
    lb_conflict = client & _CLIENT_FT
    if "LoadBalance" in client and lb_conflict:
        raise ConfigurationError(
            f"LoadBalance and {sorted(lb_conflict)[0]} both replace the base "
            "assigner: the replication protocol pins requests (primary / "
            "all replicas) while LoadBalance spreads them, so state "
            "diverges — pick one assignment policy"
        )
    if "CacheInvalidator" in server and "ClientCache" not in client:
        raise ConfigurationError(
            "CacheInvalidator (server) requires ClientCache (client): there "
            "is no cache to invalidate — remove it or configure the client "
            "half of the caching pair"
        )

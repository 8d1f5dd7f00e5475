"""A CactusBuilder-style configuration builder (paper §2.3.3).

"While this customization must currently be done using a programming
interface, a graphical tool similar to the CactusBuilder could be developed
to facilitate the process."  This is that tool, minus the pixels: a fluent
builder that turns *attribute-level* choices (the vocabulary of the
composability matrix) into validated, matched client/server micro-protocol
configurations — as instances, as :class:`MicroProtocolSpec` lists for the
dynamic path, or as the text config-file format.

    spec = (QosBuilder()
            .fault_tolerance("active", acceptance="vote", total_order=True)
            .privacy(key_hex="0123456789abcdef")
            .integrity(key_hex="99aabbccddeeff00")
            .timeliness("timed", period=0.05, high_rate_threshold=2)
            .build())
    deployment.add_replicas(..., server_micro_protocols=spec.server_factory())
    deployment.client_stub(..., client_micro_protocols=spec.client_factory())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cactus.config import MicroProtocolSpec, build_micro_protocols
from repro.qos.combinations import validate_configuration
from repro.util.errors import ConfigurationError

_FT_CHOICES = ("none", "active", "passive")
_ACCEPTANCE_CHOICES = (None, "first", "success", "vote")
_TIMELINESS_CHOICES = (None, "priority", "queued", "timed")
_SHED_POLICIES = (None, "low-priority-first", "deadline", "fair")


@dataclass
class QosSpec:
    """A validated pair of client/server configurations."""

    client_specs: list[MicroProtocolSpec] = field(default_factory=list)
    server_specs: list[MicroProtocolSpec] = field(default_factory=list)
    #: Replica placement (a :class:`~repro.core.routing.view.Placement`), or
    #: None for the deployment default.  A QoS attribute like any other —
    #: *where* an object's replicas live is part of its service contract
    #: (RAFDA-style: policy is declared, never coded into the servant).
    placement: Any = None

    def client_factory(self):
        """Zero-arg factory for ``CqosDeployment.client_stub``."""
        return lambda: build_micro_protocols(self.client_specs)

    def server_factory(self):
        """Zero-arg factory for ``CqosDeployment.add_replicas``."""
        return lambda: build_micro_protocols(self.server_specs)

    def client_config_text(self) -> str:
        """The client half in the config-file format."""
        return _to_text(self.client_specs)

    def server_config_text(self) -> str:
        """The server half in the config-file format."""
        return _to_text(self.server_specs)


def _to_text(specs: list[MicroProtocolSpec]) -> str:
    lines = []
    for spec in specs:
        params = " ".join(f"{k}={v}" for k, v in spec.params.items())
        lines.append(f"{spec.name} {params}".strip())
    return "\n".join(lines) + ("\n" if lines else "")


class QosBuilder:
    """Fluent assembly of a QoS configuration; ``build()`` validates."""

    def __init__(self) -> None:
        self._ft = "none"
        self._acceptance: str | None = None
        self._total_order = False
        self._total_order_params: dict[str, Any] = {}
        self._privacy: dict[str, Any] | None = None
        self._integrity: dict[str, Any] | None = None
        self._access: dict[str, Any] | None = None
        self._timeliness: str | None = None
        self._timeliness_params: dict[str, Any] = {}
        self._slo: dict[str, Any] | None = None
        self._caching: dict[str, Any] | None = None
        self._balance: dict[str, Any] | None = None
        self._placement: Any = None
        self._extras_client: list[MicroProtocolSpec] = []
        self._extras_server: list[MicroProtocolSpec] = []

    # -- fault tolerance ---------------------------------------------------

    def fault_tolerance(
        self,
        style: str,
        acceptance: str | None = None,
        total_order: bool = False,
        order_timeout: float | None = None,
    ) -> "QosBuilder":
        """``style``: none | active | passive.

        ``acceptance`` (active only): first | success | vote.
        ``total_order`` (active only): sequencer-based consistent ordering.
        """
        if style not in _FT_CHOICES:
            raise ConfigurationError(f"fault_tolerance style must be one of {_FT_CHOICES}")
        if acceptance not in _ACCEPTANCE_CHOICES:
            raise ConfigurationError(f"acceptance must be one of {_ACCEPTANCE_CHOICES}")
        if style != "active" and (acceptance not in (None, "first") or total_order):
            raise ConfigurationError(
                "acceptance semantics and total order require active replication"
            )
        self._ft = style
        self._acceptance = acceptance
        self._total_order = total_order
        if order_timeout is not None:
            self._total_order_params["order_timeout"] = order_timeout
        return self

    # -- security ---------------------------------------------------------------

    def privacy(self, key_hex: str) -> "QosBuilder":
        self._privacy = {"key_hex": key_hex}
        return self

    def integrity(self, key_hex: str) -> "QosBuilder":
        self._integrity = {"key_hex": key_hex}
        return self

    def access_control(self, acl: dict, default_allow: bool = True) -> "QosBuilder":
        self._access = {"acl": acl, "default_allow": default_allow}
        return self

    # -- timeliness ----------------------------------------------------------------

    def timeliness(self, style: str | None, **params: Any) -> "QosBuilder":
        """``style``: priority | queued | timed (or None)."""
        if style not in _TIMELINESS_CHOICES:
            raise ConfigurationError(f"timeliness must be one of {_TIMELINESS_CHOICES}")
        self._timeliness = style
        self._timeliness_params = params
        return self

    # -- overload protection (SLO-declared, RAFDA-style: policy lives here,
    # -- never in servant code) ------------------------------------------------------

    def slo(
        self,
        slo_p99: float | None = None,
        max_inflight: int | None = None,
        shed_policy: str | None = None,
        max_rate: float | None = None,
        burst: float | None = None,
        max_queue_depth: int | None = None,
        class_rates: dict | None = None,
    ) -> "QosBuilder":
        """Declare the object's service-level objective.

        ``slo_p99`` (seconds) becomes a client-side DeadlineBudget plus
        server-side DeadlineShed and deadline-aware admission; ``max_inflight``
        caps server concurrency; ``shed_policy`` picks who sheds first:
        ``"low-priority-first"`` (high classes exempt), ``"deadline"``
        (predictive shedding of doomed requests only — requires ``slo_p99``),
        or ``"fair"`` (everyone equal).
        """
        if shed_policy not in _SHED_POLICIES:
            raise ConfigurationError(f"shed_policy must be one of {_SHED_POLICIES}")
        if shed_policy == "deadline" and slo_p99 is None:
            raise ConfigurationError(
                "shed_policy='deadline' requires slo_p99: without a deadline "
                "budget there is no remaining time to predict against — "
                "declare slo(slo_p99=...) or pick another shed policy"
            )
        self._slo = {
            "slo_p99": slo_p99,
            "max_inflight": max_inflight,
            "shed_policy": shed_policy,
            "max_rate": max_rate,
            "burst": burst,
            "max_queue_depth": max_queue_depth,
            "class_rates": class_rates,
        }
        return self

    def caching(
        self,
        read_operations: list | tuple,
        ttl: float = 0.0,
        invalidation: bool = True,
        stale_while_shedding: bool = False,
    ) -> "QosBuilder":
        """Client-side result cache, paired (by default) with the
        server-side CacheInvalidator for event-driven per-key coherence."""
        if stale_while_shedding and self._slo is None:
            raise ConfigurationError(
                "caching(stale_while_shedding=True) requires a declared "
                "slo(...): without admission control nothing ever sheds, so "
                "the stale path is dead configuration — declare the SLO "
                "first (builder order: slo() before caching())"
            )
        self._caching = {
            "read_operations": tuple(read_operations),
            "ttl": ttl,
            "invalidation": invalidation,
            "stale_while_shedding": stale_while_shedding,
        }
        return self

    def load_balance(
        self, poll_interval: float = 0.25, seed: int | None = None
    ) -> "QosBuilder":
        """Latency-EWMA replica balancing (client) + load reporting (server)."""
        self._balance = {"poll_interval": poll_interval, "seed": seed}
        return self

    # -- placement (sharded deployments) ---------------------------------------

    def placement(
        self,
        replication_factor: int = 1,
        policy: str = "ring",
        groups: tuple | list = (),
        logical_ids: tuple | list = (),
    ) -> "QosBuilder":
        """Declare where the object's replicas live (sharded deployments).

        ``policy``: ``"ring"`` (pack into the owner group), ``"spread"``
        (one replica per distinct group) or ``"pinned"`` (explicit
        ``groups``).  Cross-validated against the fault-tolerance choice at
        build time: replication styles need enough replicas to matter.
        Ignored by unsharded deployments.
        """
        from repro.core.routing import Placement

        self._placement = Placement(
            replication_factor=replication_factor,
            policy=policy,
            groups=tuple(groups),
            logical_ids=tuple(int(i) for i in logical_ids),
        )
        return self

    # -- escape hatch ----------------------------------------------------------------

    def extra(self, side: str, name: str, **params: Any) -> "QosBuilder":
        """Append an arbitrary registered micro-protocol to one side."""
        spec = MicroProtocolSpec(name, params)
        if side == "client":
            self._extras_client.append(spec)
        elif side == "server":
            self._extras_server.append(spec)
        else:
            raise ConfigurationError("side must be 'client' or 'server'")
        return self

    # -- assembly ---------------------------------------------------------------------

    def build(self) -> QosSpec:
        """Assemble and validate the configuration pair."""
        client: list[MicroProtocolSpec] = []
        server: list[MicroProtocolSpec] = []

        if self._ft == "active":
            client.append(MicroProtocolSpec("ActiveRep"))
            if self._acceptance == "success":
                client.append(MicroProtocolSpec("FirstSuccess"))
            elif self._acceptance == "vote":
                client.append(MicroProtocolSpec("MajorityVote"))
            if self._total_order:
                server.append(MicroProtocolSpec("TotalOrder", dict(self._total_order_params)))
        elif self._ft == "passive":
            client.append(MicroProtocolSpec("PassiveRep"))
            server.append(MicroProtocolSpec("PassiveRepServer"))

        if self._privacy is not None:
            client.append(MicroProtocolSpec("DesPrivacy", dict(self._privacy)))
            server.append(MicroProtocolSpec("DesPrivacyServer", dict(self._privacy)))
        if self._integrity is not None:
            client.append(MicroProtocolSpec("SignedIntegrity", dict(self._integrity)))
            server.append(MicroProtocolSpec("SignedIntegrityServer", dict(self._integrity)))
        if self._access is not None:
            server.append(MicroProtocolSpec("AccessControl", dict(self._access)))

        if self._timeliness == "priority":
            server.append(MicroProtocolSpec("PrioritySched"))
        elif self._timeliness == "queued":
            server.append(MicroProtocolSpec("QueuedSched", dict(self._timeliness_params)))
        elif self._timeliness == "timed":
            server.append(MicroProtocolSpec("TimedSched", dict(self._timeliness_params)))

        # Overload-protection stack.  Composition order (see DESIGN.md §12):
        # client budget -> cache -> balancer; server admission -> shed.
        if self._slo is not None:
            slo = self._slo
            if slo["slo_p99"] is not None:
                client.append(MicroProtocolSpec("DeadlineBudget", {"budget": slo["slo_p99"]}))
                server.append(MicroProtocolSpec("DeadlineShed"))
            admission: dict[str, Any] = {
                "deadline_aware": slo["slo_p99"] is not None,
                "exempt_high_priority": slo["shed_policy"] == "low-priority-first",
            }
            for param in ("max_rate", "burst", "max_queue_depth", "class_rates"):
                if slo[param] is not None:
                    admission[param] = slo[param]
            if slo["max_inflight"] is not None:
                admission["max_concurrent"] = slo["max_inflight"]
            server.append(MicroProtocolSpec("AdmissionControl", admission))
        if self._caching is not None:
            caching = self._caching
            client.append(
                MicroProtocolSpec(
                    "ClientCache",
                    {
                        "read_operations": caching["read_operations"],
                        "ttl": caching["ttl"],
                        "stale_while_shedding": caching["stale_while_shedding"],
                    },
                )
            )
            if caching["invalidation"]:
                server.append(
                    MicroProtocolSpec(
                        "CacheInvalidator",
                        {"read_operations": caching["read_operations"]},
                    )
                )
        if self._balance is not None:
            client.append(MicroProtocolSpec("LoadBalance", dict(self._balance)))
            server.append(MicroProtocolSpec("LoadReporter"))

        client.extend(self._extras_client)
        server.extend(self._extras_server)

        if self._placement is not None:
            rf = self._placement.replication_factor
            if self._ft != "none" and rf < 2:
                raise ConfigurationError(
                    f"fault_tolerance('{self._ft}') with replication_factor="
                    f"{rf} is dead configuration — replication needs at "
                    "least 2 replicas to survive a failure"
                )
            if self._acceptance == "vote" and rf < 3:
                raise ConfigurationError(
                    "acceptance='vote' needs replication_factor >= 3: a "
                    "majority of 2 is both replicas, so voting adds nothing "
                    "over acceptance='success'"
                )

        validate_configuration(
            [spec.name for spec in client], [spec.name for spec in server]
        )
        return QosSpec(
            client_specs=client, server_specs=server, placement=self._placement
        )

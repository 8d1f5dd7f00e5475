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

from repro.core.request import Reply, Request
from repro.core.events import (
    EV_INVOKE_FAILURE,
    EV_INVOKE_RETURN,
    EV_INVOKE_SUCCESS,
    EV_NEW_REQUEST,
    EV_NEW_SERVER_REQUEST,
    EV_READY_TO_INVOKE,
    EV_READY_TO_SEND,
    EV_REQUEST_RETURNED,
    FIGURE3_EDGES,
)
from repro.core.interfaces import ClientPlatform, ControlMessage, ServerPlatform
from repro.core.platform import (
    BaseClientPlatform,
    BaseServerPlatform,
    BaseSkeletonServant,
    InvocationObserver,
)
from repro.core.client import CactusClient
from repro.core.server import CactusServer
from repro.core.stub import CqosStub, make_cqos_stub_class
from repro.core.skeleton import CqosSkeleton
from repro.core.service import CqosDeployment

__all__ = [
    "Request",
    "Reply",
    "EV_NEW_REQUEST",
    "EV_READY_TO_SEND",
    "EV_INVOKE_SUCCESS",
    "EV_INVOKE_FAILURE",
    "EV_NEW_SERVER_REQUEST",
    "EV_READY_TO_INVOKE",
    "EV_INVOKE_RETURN",
    "EV_REQUEST_RETURNED",
    "FIGURE3_EDGES",
    "ClientPlatform",
    "ServerPlatform",
    "ControlMessage",
    "BaseClientPlatform",
    "BaseServerPlatform",
    "BaseSkeletonServant",
    "InvocationObserver",
    "CactusClient",
    "CactusServer",
    "CqosStub",
    "make_cqos_stub_class",
    "CqosSkeleton",
    "CqosDeployment",
]

"""Request logging and server recovery (extension).

The paper lists "request logging, server recovery" among the additional
fault-tolerance micro-protocols its architecture accommodates (§3.5).

:class:`RequestLog` appends every state-changing request (its wire form) to
a durable-ish store after the servant executed it; :func:`replay_log`
rebuilds a recovering replica's state by pushing the logged requests back
through a fresh Cactus server pipeline — which also re-populates the
duplicate-suppression cache, so post-recovery forwarded retries are
answered consistently.

The log store is pluggable: anything with ``append(entry)`` and iteration
(a list will do).
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import ORDER_LAST, Occurrence
from repro.core.events import EV_INVOKE_RETURN, EV_NEW_SERVER_REQUEST
from repro.core.request import PB_FORWARDED, Request
from repro.core.server import CactusServer
from repro.qos.base import ATTR_SERVANT_EXCEPTION


class LogStore(Protocol):
    def append(self, entry: dict) -> None: ...

    def __iter__(self): ...


@register_micro_protocol("RequestLog")
class RequestLog(MicroProtocol):
    """Log every executed request for post-crash replay."""

    name = "RequestLog"

    def __init__(self, store: LogStore | None = None, log_reads: bool = False):
        super().__init__()
        self.store: LogStore = store if store is not None else []
        self._log_reads = log_reads

    def start(self) -> None:
        self.bind(EV_INVOKE_RETURN, self.log_request, order=ORDER_LAST)

    def log_request(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        if request.attributes.get(ATTR_SERVANT_EXCEPTION) is not None:
            return  # nothing was applied
        if not self._log_reads and not request.get_params():
            # Heuristic: parameterless operations are reads; applications
            # needing finer control pass log_reads=True and filter replay.
            return
        self.store.append(request.to_wire())


def replay_log(store: Iterable[dict], cactus_server: CactusServer) -> int:
    """Re-execute logged requests on a recovering replica; returns count.

    Entries are marked forwarded so replication protocols do not re-forward
    them, and travel the ordinary ``newServerRequest`` pipeline so duplicate
    suppression and ordering state rebuild alongside the servant state.
    """
    count = 0
    for wire in store:
        request = Request.from_wire(wire)
        request.piggyback[PB_FORWARDED] = True
        cactus_server.raise_event(EV_NEW_SERVER_REQUEST, request)
        request.wait(timeout=30.0)
        count += 1
    return count

"""The abstract request: CQoS's platform-independent unit of work.

"The request is represented as a Java class, where the request parameters
are represented as a vector of Java objects.  This interface provides a set
of accessor methods to get and set parameters and return values.  …  The
request object also provides a field for piggybacking additional parameters
onto the request."  (paper, section 2.2)

One :class:`Request` instance exists per invocation on each side:

- the CQoS stub builds one from the client's method call; micro-protocols
  manipulate its parameter vector and piggyback dict; completion (result or
  failure) releases the client thread blocked in ``cactus_request()``;
- the CQoS skeleton rebuilds one from the incoming platform request;
  completion releases the middleware dispatch thread blocked in
  ``cactus_invoke()`` so the reply can be returned.

Replication support: per-replica outcomes accumulate as :class:`Reply`
records for the acceptance micro-protocols; ``attributes`` is a free-form
slot for micro-protocol request-local state (ordering marks, release flags).

Lock discipline: the per-request lock guards only completing exactly once,
``set_result``'s completed check and ``on_complete`` registration.  Reads
take none: the outcome is written before ``_completed`` is set and never
changes after, and the reply table sees only single dict operations, which
the GIL makes atomic.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any

from repro.serialization.tags import declare_names
from repro.util.concurrency import DEFAULT_PRIORITY
from repro.util.errors import ReproError, TimeoutError_

# Well-known piggyback keys.
PB_REQUEST_ID = "cqos_request_id"
PB_CLIENT_ID = "cqos_client"
PB_PRIORITY = "cqos_priority"
PB_ENCRYPTED = "cqos_encrypted"
PB_SIGNATURE = "cqos_signature"
PB_FORWARDED = "cqos_forwarded"
#: Absolute deadline (seconds on the shared monotonic clock) after which
#: processing the request is wasted work.  Attached client-side by
#: DeadlineBudget; honoured server-side by DeadlineShed.  Within one process
#: every composite's RealClock shares the monotonic epoch; a multi-machine
#: deployment would carry a *relative* budget instead.
PB_DEADLINE = "cqos_deadline"
#: Send-attempt number (1 = first try), stamped by the retry micro-protocols
#: so servers and traces can distinguish retries from first sends.
PB_ATTEMPT = "cqos_attempt"
#: The last cache-invalidation epoch a ClientCache has observed, stamped on
#: requests so the server-side CacheInvalidator can piggyback only the
#: per-operation invalidations the client has not seen yet (reply direction).
PB_CACHE_EPOCH = "cqos_cache_epoch"
#: Reply-direction invalidation delta: ``[epoch, [operation, ...]]`` staged
#: by CacheInvalidator into ``Request.reply_piggyback``; ``[epoch, None]``
#: means "too far behind, flush everything".
PB_CACHE_INVALIDATE = "cqos_cache_invalidate"
#: The directory-view version the client routed this request with.  Only
#: stamped when the client's ShardRouter holds a sharded view, so unsharded
#: deployments keep byte-identical wire traffic.
PB_VIEW_VERSION = "cqos_view_version"
#: Reply-direction view delta staged by the skeleton when the client's
#: stamped view version is behind the server's: the piggyback pull path of
#: membership-driven view changes (bootstrap re-enumeration is the fallback).
PB_VIEW_DELTA = "cqos_view_delta"

declare_names(
    PB_REQUEST_ID, PB_CLIENT_ID, PB_PRIORITY, PB_ENCRYPTED, PB_SIGNATURE, PB_FORWARDED,
    PB_DEADLINE, PB_ATTEMPT, PB_CACHE_EPOCH, PB_CACHE_INVALIDATE, PB_VIEW_VERSION, PB_VIEW_DELTA,
)

#: Request-id numbers: ``next()`` on a count is one C call, atomic under the GIL.
_request_numbers = itertools.count(1)


@dataclass
class Reply:
    """The outcome of one invocation attempt on one server replica."""

    server: int
    value: Any = None
    exception: BaseException | None = None
    failed: bool = False  # True => communication-level failure

    @property
    def succeeded(self) -> bool:
        """True when the invocation reached the servant (even if it raised)."""
        return not self.failed


class Request:
    """One abstract invocation travelling through CQoS."""

    def __init__(
        self,
        object_id: str,
        operation: str,
        params: list,
        piggyback: dict | None = None,
        request_id: str | None = None,
    ):
        self.request_id = request_id or f"req:{next(_request_numbers)}"
        self.object_id = object_id
        self.operation = operation
        # The one place the parameter vector and the piggyback are copied.
        self._params = list(params)
        self.piggyback: dict = dict(piggyback) if piggyback else {}
        #: Reply-direction piggyback: server micro-protocols stage entries
        #: here; the server composite envelopes them onto the return value
        #: and the client platform merges them back into its request copy.
        self.reply_piggyback: dict = {}
        #: Free-form micro-protocol request-local state.
        self.attributes: dict = {}
        #: Replica assigned by the assigner handler (1-based), if any.
        self.server: int | None = None

        self._lock = threading.Lock()
        # Both made on first use, under ``_lock``: a request completed on
        # the thread that then waits for it (every synchronous invocation)
        # never blocks, and only some micro-protocols take the mutex.
        self._mutex: Any = None
        self._waiter: threading.Event | None = None
        self._result: Any = None
        self._exception: BaseException | None = None
        self._completed = False
        self._replies: dict[int, Reply] = {}
        self._completion_callbacks: list = []

    @property
    def mutex(self):
        """Re-entrant lock for micro-protocol critical sections on this
        request (e.g. encrypt-exactly-once under ActiveRep's concurrent
        sends); the same object for every caller."""
        mutex = self._mutex
        if mutex is None:
            with self._lock:
                mutex = self._mutex
                if mutex is None:
                    mutex = self._mutex = threading.RLock()
        return mutex

    # -- parameter vector accessors (the Cactus QoS interface surface) ------

    def get_params(self) -> list:
        """The parameter vector (live list; in-place mutation is allowed)."""
        return self._params

    def set_params(self, params: list) -> None:
        self._params = list(params)

    @property
    def priority(self) -> int:
        """The request's scheduling priority (piggybacked; default 5)."""
        return int(self.piggyback.get(PB_PRIORITY, DEFAULT_PRIORITY))

    @priority.setter
    def priority(self, value: int) -> None:
        self.piggyback[PB_PRIORITY] = int(value)

    @property
    def client_id(self) -> str:
        return str(self.piggyback.get(PB_CLIENT_ID, ""))

    # -- deadline / attempt metadata (resilience micro-protocols) ------------

    @property
    def deadline(self) -> float | None:
        """Absolute monotonic deadline, or None when no budget is attached."""
        value = self.piggyback.get(PB_DEADLINE)
        return float(value) if value is not None else None

    @deadline.setter
    def deadline(self, value: float | None) -> None:
        if value is None:
            self.piggyback.pop(PB_DEADLINE, None)
        else:
            self.piggyback[PB_DEADLINE] = float(value)

    def remaining_budget(self, now: float) -> float | None:
        """Seconds left before the deadline at time ``now`` (None = no deadline)."""
        deadline = self.deadline
        return None if deadline is None else deadline - now

    def deadline_expired(self, now: float) -> bool:
        """True when a deadline is attached and already passed at ``now``."""
        deadline = self.deadline
        return deadline is not None and now >= deadline

    @property
    def attempt(self) -> int:
        """The send-attempt number (1-based; 1 when never retried)."""
        return int(self.piggyback.get(PB_ATTEMPT, 1))

    @attempt.setter
    def attempt(self, value: int) -> None:
        self.piggyback[PB_ATTEMPT] = int(value)

    # -- completion ----------------------------------------------------------

    def complete(self, value: Any) -> bool:
        """Complete with a result; returns False if already completed."""
        with self._lock:
            if self._completed:
                return False
            self._result = value
            self._completed = True
            waiter = self._waiter
            callbacks, self._completion_callbacks = self._completion_callbacks, []
        if waiter is not None:
            waiter.set()
        if callbacks:
            self._run_callbacks(callbacks)
        return True

    def fail(self, exception: BaseException) -> bool:
        """Complete with an exception; returns False if already completed."""
        with self._lock:
            if self._completed:
                return False
            self._exception = exception
            self._completed = True
            waiter = self._waiter
            callbacks, self._completion_callbacks = self._completion_callbacks, []
        if waiter is not None:
            waiter.set()
        if callbacks:
            self._run_callbacks(callbacks)
        return True

    def on_complete(self, callback) -> None:
        """Register ``callback(request)`` to fire exactly once on completion.

        Fires whichever way the request finishes — result, application
        exception, or fault — which makes it the airtight hook for
        resource-release bookkeeping (admission slots, in-flight counters):
        unlike an ``invokeReturn`` binding, it also covers requests that die
        mid-pipeline from a handler exception or a dispatch timeout.  If the
        request is already completed the callback runs immediately.
        Callback exceptions are swallowed (completion must never fail).
        """
        with self._lock:
            if not self._completed:
                self._completion_callbacks.append(callback)
                return
        self._run_callbacks([callback])

    def _run_callbacks(self, callbacks) -> None:
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - release hooks must not unwind
                pass

    def complete_from_reply(self, reply: Reply) -> bool:
        """Complete with a replica outcome (value, app error, or failure)."""
        if reply.failed:
            return self.fail(
                reply.exception
                or ReproError(f"invocation on server {reply.server} failed")
            )
        if reply.exception is not None:
            return self.fail(reply.exception)
        return self.complete(reply.value)

    @property
    def completed(self) -> bool:
        return self._completed  # one attribute read: no lock

    def set_result(self, value: Any) -> None:
        """Overwrite the stored result (server-side reply manipulation).

        Legal only before completion — the reply-encryption handler runs on
        ``invokeReturn``, i.e. before the skeleton sends the reply.
        """
        with self._lock:
            if self._completed:
                raise ReproError("cannot set_result on a completed request")
            self._result = value

    @property
    def stored_result(self) -> Any:
        """The result staged so far (server side, pre-completion)."""
        return self._result  # one attribute read: no lock

    def wait(self, timeout: float | None = None, held: "HeldRequests | None" = None) -> Any:
        """Block until completion; return the result or raise the failure.

        A wait that blocks is in ``held`` while it does, so the composite
        that owns it can fail the request when it shuts down.
        """
        # The outcome is written before ``_completed`` is set, so a request
        # seen completed needs no lock; only a wait that may block takes it.
        if not self._completed:
            with self._lock:
                waiter = None
                if not self._completed:
                    waiter = self._waiter
                    if waiter is None:
                        waiter = self._waiter = threading.Event()
            if waiter is not None:
                if held is None:
                    done = waiter.wait(timeout)
                else:
                    held.add(self)
                    try:
                        if held.error is not None:
                            self.fail(held.error)
                        done = waiter.wait(timeout)
                    finally:
                        held.discard(self)
                if not done:
                    raise TimeoutError_(
                        f"request {self.request_id} ({self.operation}) did not complete"
                    )
        # Completed: neither field changes again.
        if self._exception is not None:
            raise self._exception
        return self._result

    # -- per-replica outcomes -------------------------------------------------

    # Each accessor is one dict operation, atomic under the GIL: no lock.
    def add_reply(self, reply: Reply) -> None:
        self._replies[reply.server] = reply

    def replies(self) -> dict[int, Reply]:
        return self._replies.copy()

    def reply_count(self) -> int:
        return len(self._replies)

    # -- wire form (replica forwarding) -----------------------------------------

    def to_wire(self) -> dict:
        return {
            "request_id": self.request_id,
            "object_id": self.object_id,
            "operation": self.operation,
            "params": list(self._params),
            "piggyback": dict(self.piggyback),
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "Request":
        return cls(
            object_id=wire["object_id"],
            operation=wire["operation"],
            params=wire["params"],
            piggyback=wire["piggyback"],
            request_id=wire["request_id"],
        )

    def __repr__(self) -> str:
        return (
            f"Request({self.request_id}, {self.object_id}.{self.operation}, "
            f"server={self.server}, completed={self.completed})"
        )


class HeldRequests(set):
    """The requests whose waits block in one composite.

    A wait that blocks is in the set while it does (two C calls, and none
    for a request completed on the thread that waits for it), so
    :meth:`fail_all` can end it when the composite shuts down; a wait that
    registers after that finds ``error`` set and fails at once.
    """

    error: BaseException | None = None

    def fail_all(self, error: BaseException) -> None:
        """Fail every held request, and each one that registers later."""
        self.error = error  # before the snapshot: a later add sees it
        for request in list(self):
            request.fail(error)

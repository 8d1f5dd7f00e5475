"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single except clause while
still being able to discriminate (communication vs. marshalling vs. QoS
policy failures).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CommunicationError(ReproError):
    """A message could not be delivered (endpoint down, partition, loss)."""


class TimeoutError_(CommunicationError):
    """A blocking operation did not complete within its deadline.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`TimeoutError`; it subclasses :class:`CommunicationError` because
    callers treat timeouts as a delivery failure.
    """


class MarshalError(ReproError):
    """A value could not be marshalled or unmarshalled."""


class BindError(ReproError):
    """A client could not bind to a named server object."""


class InvocationError(ReproError):
    """A remote invocation failed at the application level.

    Carries the remote exception's type name and message so that the client
    side can re-raise something meaningful without shipping code.
    """

    def __init__(self, type_name: str, message: str):
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.message = message


class ServerFailedError(CommunicationError):
    """The target server (or every replica) has crashed."""


class FrameTooLargeError(CommunicationError):
    """A transport frame exceeded the maximum frame size.

    Raised client-side before sending an oversized request; a server that
    receives an oversized frame closes the connection instead (the peer sees
    a plain :class:`CommunicationError`).
    """


class DeadlineExceededError(TimeoutError_):
    """A request's deadline budget expired before it could be served.

    Raised client-side when the deadline passes before (re)sending, and
    server-side by the load-shedding micro-protocol when a request arrives
    already doomed.  Registered wire-safe so a server-side shed rehydrates
    to this same type at the client (see :func:`rehydrate_system_error`).
    """


class CircuitOpenError(CommunicationError):
    """The circuit breaker is open: the call was rejected without sending.

    Deliberately *not* retryable — the breaker exists to stop retries from
    hammering a failing server; only its own half-open probes go through.
    """


class AdmissionRejectedError(CommunicationError):
    """The server's admission control shed the request before invoking it.

    Carries an optional ``retry_after`` hint (seconds) telling the client
    when capacity is expected back — RetryBackoff honours it as a floor on
    its next delay instead of hammering an overloaded server.  The hint is
    encoded into the message text (``retry-after=<seconds>``) so it survives
    the platforms' {type, message} system-error marshalling; the wire-safe
    rehydration below parses it back out.

    Excluded from :data:`NON_RETRYABLE_COMMUNICATION` deliberately *not*:
    plain ``is_retryable`` answers False so naive retry loops (Retransmit)
    do not re-hammer a shedding server; RetryBackoff special-cases this type
    and retries only after the hinted delay.
    """

    _HINT_PREFIX = "retry-after="

    def __init__(self, message: str, retry_after: float | None = None):
        if retry_after is None:
            # Rehydration path: recover the hint from the wire message.
            marker = message.rfind(self._HINT_PREFIX)
            if marker >= 0:
                try:
                    retry_after = float(
                        message[marker + len(self._HINT_PREFIX):].split(")")[0]
                    )
                except ValueError:
                    retry_after = None
        elif self._HINT_PREFIX not in message:
            message = f"{message} ({self._HINT_PREFIX}{retry_after:.4f})"
        super().__init__(message)
        #: Seconds until the server expects to have capacity, or None.
        self.retry_after = retry_after


class ShardMovedError(CommunicationError):
    """The invoked replica no longer owns the object's shard.

    Raised by a retired CQoS skeleton after a shard handoff has drained:
    the naming entry already points at the new owner, so the correct client
    reaction is exactly the transient-communication one — drop the cached
    binding, re-resolve the name, retry.  It is therefore retryable and
    registered wire-safe, so a stale client's retry micro-protocols route
    the next attempt to the new owner instead of failing the request.
    """


class AccessDeniedError(ReproError):
    """The access-control micro-protocol rejected the request."""


class IntegrityError(ReproError):
    """A message signature did not verify."""


class ConfigurationError(ReproError):
    """An invalid micro-protocol configuration was requested."""


# -- failure classification ---------------------------------------------------
#
# One shared answer to "is this worth retrying?" so that every retry-shaped
# micro-protocol (Retransmit, RetryBackoff) and the circuit breaker agree.
#
# Retryable: transient delivery failures — message loss, connection reset,
# partition flaps, plain timeouts.  A lost *request* never executed; a lost
# *reply* re-executes, so non-idempotent operations should pair retries with
# the server-side duplicate-suppression cache (PassiveRepServer's SHARED_SEEN).
#
# Not retryable:
# - ServerFailedError — the host is crashed; failover (replication) is the
#   right reaction, retrying a dead host only delays it;
# - DeadlineExceededError — the budget is spent; retrying cannot un-spend it;
# - CircuitOpenError — the breaker rejected the call locally; retrying
#   would defeat the breaker's purpose;
# - AdmissionRejectedError — the server is shedding load; blind retries feed
#   the overload (RetryBackoff alone retries it, after the hinted delay);
# - everything non-communication (marshalling, access control, application
#   exceptions) — retrying deterministic failures reproduces them.

#: CommunicationError subtypes that must NOT be retried.
NON_RETRYABLE_COMMUNICATION = (
    ServerFailedError,
    DeadlineExceededError,
    CircuitOpenError,
    AdmissionRejectedError,
)


def is_retryable(exception: BaseException | None) -> bool:
    """True when ``exception`` is a transient delivery failure worth retrying."""
    return isinstance(exception, CommunicationError) and not isinstance(
        exception, NON_RETRYABLE_COMMUNICATION
    )


# One shared answer to "what should the binding layer do about this platform
# fault?", the counterpart of is_retryable's "is this worth retrying?":
#
# - ServerFailedError (host crashed, not retryable) => MARK_FAILED: remember
#   the replica as down so server_status() reports it; failover is the right
#   reaction and bind() is the explicit recovery path;
# - AdmissionRejectedError => KEEP: the server actively answered (it is alive
#   and the binding works); it just refused the work, and keeping the binding
#   lets the client retry after the hinted delay without a reconnect;
# - every other CommunicationError (the retryable class plus spent deadlines
#   and open breakers, none of which indicate a crashed replica) =>
#   DROP_BINDING: forget the cached endpoint so the next attempt reconnects,
#   but do NOT mark the replica failed;
# - everything else (application outcomes, marshalling) => KEEP: the binding
#   is healthy, the request simply has a non-transport outcome.

ACTION_MARK_FAILED = "mark_failed"
ACTION_DROP_BINDING = "drop_binding"
ACTION_KEEP = "keep"


def fault_action(error: BaseException | None) -> str:
    """Classify a platform fault into the binding-layer reaction."""
    if isinstance(error, ServerFailedError):
        return ACTION_MARK_FAILED
    if isinstance(error, AdmissionRejectedError):
        return ACTION_KEEP
    if isinstance(error, CommunicationError):
        return ACTION_DROP_BINDING
    return ACTION_KEEP


# -- wire-safe system errors --------------------------------------------------
#
# The three platforms marshal non-IDL server exceptions as a {type, message}
# system-error description and normally re-raise InvocationError(type,
# message) at the client.  Errors registered here instead rehydrate to their
# real class, preserving their classification across the wire.  The registry
# is a deliberate allowlist: rehydrating e.g. ServerFailedError raised
# *inside* a server-side handler chain would be indistinguishable from a
# locally detected crash of the target itself and would mislead failover.

_WIRE_SAFE_ERRORS: dict[str, type] = {
    "DeadlineExceededError": DeadlineExceededError,
    "AdmissionRejectedError": AdmissionRejectedError,
    "ShardMovedError": ShardMovedError,
}


def rehydrate_system_error(type_name: str, message: str) -> Exception:
    """Build the client-side exception for a remote ``{type, message}``.

    Returns an instance of the registered class for wire-safe types, and an
    :class:`InvocationError` (the historical behaviour) otherwise.
    """
    cls = _WIRE_SAFE_ERRORS.get(type_name)
    if cls is not None:
        return cls(message)
    return InvocationError(type_name, message)

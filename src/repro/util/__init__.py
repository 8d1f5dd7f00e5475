"""Shared utilities: clocks, identifiers, errors, and concurrency primitives.

These are the lowest-level substrate pieces used by every other subpackage:
the simulated/real clock abstraction, unique-id generation, the exception
hierarchy, and the priority-aware thread pool that backs the Cactus runtime.
"""

from repro.util.clock import Clock, RealClock, VirtualClock
from repro.util.errors import (
    AccessDeniedError,
    BindError,
    CommunicationError,
    ConfigurationError,
    IntegrityError,
    InvocationError,
    MarshalError,
    ReproError,
    ServerFailedError,
    TimeoutError_,
)
from repro.util.ids import IdGenerator, unique_id
from repro.util.concurrency import (
    PriorityExecutor,
    ResultFuture,
    current_thread_priority,
    set_thread_priority,
    thread_priority,
)

__all__ = [
    "Clock",
    "RealClock",
    "VirtualClock",
    "ReproError",
    "CommunicationError",
    "MarshalError",
    "BindError",
    "InvocationError",
    "ServerFailedError",
    "AccessDeniedError",
    "IntegrityError",
    "ConfigurationError",
    "TimeoutError_",
    "IdGenerator",
    "unique_id",
    "ResultFuture",
    "PriorityExecutor",
    "current_thread_priority",
    "set_thread_priority",
    "thread_priority",
]

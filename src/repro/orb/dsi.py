"""Dynamic Skeleton Interface.

CORBA's DSI lets a servant receive *any* operation through one generic
entry point instead of typed methods — which is precisely how the paper's
CQoS skeleton is implemented ("the skeleton provides a single generic
operation ``invoke()`` that is called by the POA regardless of which servant
method is invoked").

A :class:`DynamicImplementation` registers with a POA like any servant; the
ORB then wraps each incoming request in a :class:`ServerRequest` and calls
``invoke(server_request)``.  The implementation reads the operation name and
arguments and must complete the request with either ``set_result`` or
``set_exception`` before returning.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.util.errors import ReproError


class ServerRequest:
    """One in-flight dynamic invocation presented to a DSI servant.

    The accessors are the servant's interface; the ORB that made the request
    reads the outcome from ``_result`` and ``_exception`` directly.
    """

    __slots__ = ("_operation", "_arguments", "_context", "_result", "_exception")

    _UNSET = object()

    def __init__(self, operation: str, arguments: list, context: dict):
        self._operation = operation
        self._arguments = arguments
        self._context = context
        self._result: Any = self._UNSET
        self._exception: BaseException | None = None

    @property
    def operation(self) -> str:
        return self._operation

    def arguments(self) -> list:
        return self._arguments

    def context(self) -> dict:
        """The request's service context (CQoS piggyback slot)."""
        return self._context

    def set_result(self, value: Any) -> None:
        if self._result is not self._UNSET or self._exception is not None:
            raise ReproError("ServerRequest already completed")
        self._result = value

    def set_exception(self, exc: BaseException) -> None:
        if self._result is not self._UNSET or self._exception is not None:
            raise ReproError("ServerRequest already completed")
        self._exception = exc

    @property
    def completed(self) -> bool:
        return self._result is not self._UNSET or self._exception is not None

    @property
    def result(self) -> Any:
        return None if self._result is self._UNSET else self._result

    @property
    def exception(self) -> BaseException | None:
        return self._exception


class DynamicImplementation(ABC):
    """Base class for DSI servants (the CQoS skeleton derives from this)."""

    @abstractmethod
    def invoke(self, server_request: ServerRequest) -> None:
        """Handle one request; must complete ``server_request``."""

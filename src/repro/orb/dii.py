"""Dynamic Invocation Interface.

The DII builds a request at run time instead of through a generated stub:
create a request from an object reference, add arguments, ``invoke()``, read
the return value.  This is the path the paper's CQoS stub uses to turn the
abstract CQoS request into a CORBA request — and the reason Table 1's CQoS
overhead is larger on CORBA than RMI: the dynamic path pays for a request
object, a NamedValue with a derived TypeCode per argument, and a run-time
conformance check against interface metadata when the reference's type id
names an interface the ORB knows (the stand-in for real CORBA's
interface-repository consultation; one lookup in the ORB's repository-id
index) — costs the static stub's compiled marshalling avoids.  The argument
values are collected once, for the check and the send alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.orb.typecode import NamedValue, typecode_of
from repro.util.errors import ReproError

if TYPE_CHECKING:
    from repro.orb.orb import ObjectRef


class DiiRequest:
    """One dynamically constructed request (CORBA ``Request`` analog)."""

    _PENDING = object()

    def __init__(self, target: "ObjectRef", operation: str):
        self._target = target
        self._operation = operation
        self._nvlist: list[NamedValue] = []
        self._context: dict = {}
        self._result: Any = self._PENDING
        self._exception: BaseException | None = None

    @property
    def operation(self) -> str:
        return self._operation

    def add_arg(self, value: Any) -> "DiiRequest":
        """Append an argument (packaged as a NamedValue with its TypeCode).

        Deriving the TypeCode is the per-argument cost the dynamic path
        pays that compiled static stubs do not — the source of the larger
        CORBA-side CQoS overhead the paper measures in Table 1.
        """
        nvlist = self._nvlist
        nvlist.append(NamedValue(f"arg{len(nvlist)}", value, typecode_of(value)))
        return self

    def nvlist(self) -> list[NamedValue]:
        """The request's NVList (inspection / tests)."""
        return list(self._nvlist)

    def set_context(self, context: dict) -> "DiiRequest":
        """Replace the request's service context (piggyback slot)."""
        self._context = dict(context)
        return self

    def context(self) -> dict:
        return self._context

    def _checked_arguments(self) -> list:
        """The argument values, built once for the check and the send.

        Run-time typing: the ORB's interface metadata is consulted when the
        reference's type id is one it knows.  References to DSI servants
        carry the generic ``CORBA/Object`` type id, for which no metadata
        exists — those requests go through unchecked, exactly like real DII
        against an untyped reference.
        """
        arguments = [nv.value for nv in self._nvlist]
        target = self._target
        orb = target._orb
        interface = orb.interfaces_by_id.get(target.ior.type_id)
        if interface is not None:
            interface.operation(self._operation).check_args(arguments, orb.compiled)
        return arguments

    def invoke(self) -> None:
        """Synchronously invoke; result or exception is stored, not raised."""
        arguments = self._checked_arguments()
        target = self._target
        try:
            self._result = target._orb.invoke(
                target.ior, self._operation, arguments, self._context
            )
            self._exception = None
        except BaseException as exc:  # noqa: BLE001 - DII stores the outcome
            self._exception = exc
            self._result = self._PENDING

    def send_deferred(self):
        """CORBA deferred-synchronous invoke: submit now, harvest later.

        Returns the underlying ReplyFuture.  The request leaves with the
        same wire bytes as :meth:`invoke`; only the wait moves.
        """
        arguments = self._checked_arguments()
        target = self._target
        return target._orb.invoke_async(
            target.ior, self._operation, arguments, self._context
        )

    def exception(self) -> BaseException | None:
        return self._exception

    def return_value(self) -> Any:
        """Return the result; re-raise the invocation's exception if any."""
        if self._exception is not None:
            raise self._exception
        if self._result is self._PENDING:
            raise ReproError("request has not been invoked")
        return self._result

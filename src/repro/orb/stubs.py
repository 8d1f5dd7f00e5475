"""Static stubs and skeletons generated from interface metadata.

These are the components a CORBA IDL compiler would emit: a client proxy
class with one typed method per operation (marshalling straight onto the
wire, no run-time interface lookups) and a server-side skeleton that
dispatches a decoded request to the servant's method.

The CQoS stub deliberately does *not* use this fast path — per the paper it
builds an abstract request first and then converts it to a platform request
via the DII, which is where the extra CORBA-side overhead in Table 1 comes
from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.idl.compiler import CompiledIdl, InterfaceDef, OperationDef, ServantSkeleton
from repro.orb.typed_marshal import build_plans

if TYPE_CHECKING:
    from repro.orb.ior import IOR
    from repro.orb.orb import Orb


class StaticStub:
    """Base class for generated static stubs; subclasses add typed methods."""

    def __init__(self, orb: "Orb", ior: "IOR"):
        self._orb = orb
        self._ior = ior

    @property
    def ior(self) -> "IOR":
        return self._ior


def _make_method(operation: OperationDef):
    arity = len(operation.params)
    name = operation.name

    if operation.oneway:

        def oneway_method(self, *args):
            if len(args) != arity:
                raise TypeError(f"{name}() takes {arity} arguments, got {len(args)}")
            self._orb.invoke_typed(
                self._ior, operation, list(args), response_expected=False
            )

        oneway_method.__name__ = name
        oneway_method.__doc__ = f"Oneway IDL operation {name!r} (no reply)."
        return oneway_method

    def method(self, *args):
        if len(args) != arity:
            raise TypeError(f"{name}() takes {arity} arguments, got {len(args)}")
        # Compiled marshalling: untagged typed CDR against the shared IDL —
        # the static-stub fast path the DII/CQoS route cannot take.
        return self._orb.invoke_typed(self._ior, operation, list(args))

    method.__name__ = name
    method.__doc__ = f"IDL operation {name!r}."
    return method


def make_static_stub_class(
    interface: InterfaceDef, compiled: CompiledIdl | None = None
) -> type:
    """Generate the static stub class for ``interface``.

    When the compiled-IDL tables are passed, marshalling plans for every
    operation are built here — at stub generation, the IDL-compiler moment —
    so no invocation ever pays the plan-compilation cost.  Without them the
    plans build lazily on first use (they cache on the ``OperationDef``).

    >>> StubCls = make_static_stub_class(compiled.interface("BankAccount"))
    >>> account = StubCls(orb, ior)
    >>> account.balance()
    """
    namespace: dict[str, Any] = {
        "__doc__": f"Static stub for IDL interface {interface.name}.",
        "__idl_interface__": interface,
    }
    for operation in interface.operations.values():
        namespace[operation.name] = _make_method(operation)
        if compiled is not None:
            build_plans(operation, compiled)
    return type(f"{interface.simple_name}Stub", (StaticStub,), namespace)


class StaticSkeleton(ServantSkeleton):
    """The ORB's skeleton: servant dispatch plus the typed-CDR plans."""

    def __init__(self, servant, interface: InterfaceDef, compiled: CompiledIdl):
        super().__init__(servant, interface, compiled)
        # Skeleton creation is the server's IDL-compiler moment: build the
        # marshalling plans for every operation up front.
        for operation in interface.operations.values():
            build_plans(operation, compiled)

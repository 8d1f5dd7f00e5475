"""Compiled (typed) CDR marshalling for static stubs and skeletons.

Real CORBA's IDL compiler emits marshalling code that writes each value
according to its *declared* type — no per-value type tags, no run-time
dispatch on the receiving side, because both ends compiled the same IDL.
This module is that path at the operation level: it marshals whole argument
lists and results through per-signature compiled plans
(:mod:`repro.serialization.compiled`), for which the IDL type tree is walked
once per operation to build flat pack/unpack programs that every call
replays.

The DII/DSI (and therefore CQoS) path cannot use it — a dynamic request's
types are only known per-value — which is precisely the compiled-vs-dynamic
cost asymmetry Table 1 measures on the CORBA side.

Structs marshal as their members in declaration order (no names on the
wire); ``any`` falls back to the tagged encoding.  Type errors surface as
:class:`~repro.util.errors.MarshalError` at the sender, matching compiled
stubs' compile-time guarantees as closely as a dynamic language can.
"""

from __future__ import annotations

from typing import Any

from repro.idl.compiler import CompiledIdl, OperationDef
from repro.serialization.compiled import SignaturePlan
from repro.util.errors import MarshalError


def build_plans(operation: OperationDef, compiled: CompiledIdl):
    """Return ``(argument_plan, result_plan)`` for ``operation``, cached.

    The cache lives on the ``OperationDef`` itself and is keyed by the
    compiled-IDL table identity, since plans bind struct classes from it.
    Called eagerly at stub/skeleton creation so the first invocation already
    runs compiled."""
    cached = getattr(operation, "_marshal_plans", None)
    if cached is not None and cached[0] is compiled:
        return cached[1], cached[2]
    argument_plan = SignaturePlan([param.type for param in operation.params], compiled)
    result_plan = SignaturePlan([operation.return_type], compiled)
    operation._marshal_plans = (compiled, argument_plan, result_plan)
    return argument_plan, result_plan


def marshal_arguments(operation: OperationDef, args: list, compiled: CompiledIdl) -> bytes:
    """Compiled-stub argument marshalling: declared types, no tags."""
    if len(args) != len(operation.params):
        raise MarshalError(
            f"{operation.name}() takes {len(operation.params)} arguments, got {len(args)}"
        )
    argument_plan, _ = build_plans(operation, compiled)
    return argument_plan.marshal(args)


def unmarshal_arguments(operation: OperationDef, body: bytes, compiled: CompiledIdl) -> list:
    """Compiled-skeleton argument unmarshalling."""
    argument_plan, _ = build_plans(operation, compiled)
    return argument_plan.unmarshal(body)


def marshal_result(operation: OperationDef, value: Any, compiled: CompiledIdl) -> bytes:
    _, result_plan = build_plans(operation, compiled)
    return result_plan.marshal([value])


def unmarshal_result(operation: OperationDef, body: bytes, compiled: CompiledIdl) -> Any:
    _, result_plan = build_plans(operation, compiled)
    return result_plan.unmarshal(body)[0]

"""TypeCodes: run-time IDL type descriptors for the DII.

CORBA's DII requires every argument to be packaged as a NamedValue carrying
a TypeCode; building the NVList is a real per-request cost of the dynamic
path (and absent from compiled static stubs).  :func:`typecode_of` derives
the IDL type of a run-time value by structural inspection, the way a
dynamic bridge must.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.idl.ast import BasicType, IdlType, NamedType, SequenceType

_TC_BOOLEAN = BasicType("boolean")
_TC_LONGLONG = BasicType("long long")
_TC_DOUBLE = BasicType("double")
_TC_STRING = BasicType("string")
_TC_ANY = BasicType("any")
_TC_VOID = BasicType("void")

#: The primitives by exact type; a subclass of one takes the ladder below.
_TC_OF_TYPE = {
    type(None): _TC_VOID,
    bool: _TC_BOOLEAN,
    int: _TC_LONGLONG,
    float: _TC_DOUBLE,
    str: _TC_STRING,
}


def typecode_of(value: Any) -> IdlType:
    """Derive the IDL TypeCode of a run-time value.

    Heterogeneous or empty sequences degrade to ``sequence<any>``; dicts
    (which plain IDL cannot name) and unknown objects degrade to ``any``,
    matching how dynamic bridges treat DynAny payloads.
    """
    exact = type(value)
    if exact in _TC_OF_TYPE:
        return _TC_OF_TYPE[exact]
    if isinstance(value, int):
        return _TC_LONGLONG
    if isinstance(value, float):
        return _TC_DOUBLE
    if isinstance(value, str):
        return _TC_STRING
    if isinstance(value, (list, tuple)):
        element_codes = {str(typecode_of(item)) for item in value}
        if len(element_codes) == 1:
            return SequenceType(typecode_of(value[0]))
        return SequenceType(_TC_ANY)
    idl_name = getattr(type(value), "__idl_name__", None)
    if idl_name is not None:
        return NamedType(idl_name)
    return _TC_ANY


@dataclass
class NamedValue:
    """One DII argument: name, value, and its TypeCode."""

    name: str
    value: Any
    typecode: IdlType

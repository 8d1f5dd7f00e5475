"""Semantic analysis: IDL AST -> runtime interface metadata.

The compiler resolves names, expands attributes into ``_get_x``/``_set_x``
accessor operations (the CORBA mapping), flattens interface inheritance,
generates Python classes for structs and exceptions (registered with the
serialization registry so they cross the wire), and produces
:class:`InterfaceDef` metadata that drives *every* downstream component:
the ORB static stubs/skeletons, the RMI stubs, and the CQoS interceptors.

Python-mapping restrictions (checked here, with explicit errors):

- ``out`` / ``inout`` parameters are rejected — the request/reply paradigm
  the paper targets uses ``in`` parameters and a return value;
- interfaces may not appear as parameter or return types (no object
  references in values).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.idl.ast import (
    AttributeDecl,
    BasicType,
    ExceptionDecl,
    IdlType,
    InterfaceDecl,
    ModuleDecl,
    NamedType,
    Operation,
    Param,
    SequenceType,
    Specification,
    StructDecl,
)
from repro.idl.parser import parse_idl
from repro.serialization.registry import TypeRegistry, global_registry
from repro.serialization.tags import declare_names
from repro.util.errors import ConfigurationError, InvocationError, MarshalError

_INT_RANGES = {
    "short": (-(2**15), 2**15 - 1),
    "unsigned short": (0, 2**16 - 1),
    "long": (-(2**31), 2**31 - 1),
    "unsigned long": (0, 2**32 - 1),
    "long long": (-(2**63), 2**63 - 1),
    "unsigned long long": (0, 2**64 - 1),
}


class IdlRemoteException(Exception):
    """Base class for exceptions generated from IDL ``exception`` decls.

    Instances marshal across the wire as registered value types, so a server
    raising one reaches the client as the same class.
    """

    __idl_name__ = ""
    __members__: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        members = type(self).__members__
        if len(args) > len(members):
            raise TypeError(f"{type(self).__name__} takes at most {len(members)} args")
        values = dict(zip(members, args))
        values.update(kwargs)
        unknown = set(values) - set(members)
        if unknown:
            raise TypeError(f"unknown members for {type(self).__name__}: {sorted(unknown)}")
        for member in members:
            setattr(self, member, values.get(member))
        super().__init__(", ".join(f"{m}={getattr(self, m)!r}" for m in members))

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and all(
            getattr(self, m) == getattr(other, m) for m in type(self).__members__
        )

    def __hash__(self):
        return hash((type(self).__name__,) + tuple(
            getattr(self, m) for m in type(self).__members__
        ))


@dataclass(frozen=True)
class ParamDef:
    name: str
    type: IdlType


@dataclass
class OperationDef:
    """Runtime metadata for one operation (or attribute accessor)."""

    name: str
    return_type: IdlType
    params: tuple[ParamDef, ...]
    raises: tuple[str, ...] = ()
    oneway: bool = False

    def check_args(self, args: tuple, compiled: "CompiledIdl") -> None:
        """Validate actual argument values against the declared types."""
        if len(args) != len(self.params):
            raise MarshalError(
                f"{self.name}() takes {len(self.params)} arguments, got {len(args)}"
            )
        for param, value in zip(self.params, args):
            if not compiled.conforms(param.type, value):
                raise MarshalError(
                    f"argument {param.name!r} of {self.name}(): "
                    f"{value!r} does not conform to IDL type {param.type}"
                )

    def check_result(self, value, compiled: "CompiledIdl") -> None:
        """Validate a return value against the declared return type."""
        if not compiled.conforms(self.return_type, value):
            raise MarshalError(
                f"return value of {self.name}(): "
                f"{value!r} does not conform to IDL type {self.return_type}"
            )


@dataclass
class InterfaceDef:
    """Runtime metadata for one interface, inheritance flattened."""

    name: str  # scoped, e.g. "bank::BankAccount"
    operations: dict[str, OperationDef] = field(default_factory=dict)
    bases: tuple[str, ...] = ()

    def operation(self, name: str) -> OperationDef:
        op = self.operations.get(name)
        if op is None:
            raise MarshalError(f"interface {self.name} has no operation {name!r}")
        return op

    @property
    def simple_name(self) -> str:
        return self.name.rsplit("::", 1)[-1]


@dataclass
class CompiledIdl:
    """The compiler's output: interfaces plus generated value classes."""

    interfaces: dict[str, InterfaceDef] = field(default_factory=dict)
    structs: dict[str, type] = field(default_factory=dict)
    exceptions: dict[str, type] = field(default_factory=dict)

    def interface(self, name: str) -> InterfaceDef:
        """Look up an interface by scoped or simple name."""
        if name in self.interfaces:
            return self.interfaces[name]
        matches = [d for n, d in self.interfaces.items() if n.rsplit("::", 1)[-1] == name]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ConfigurationError(f"no interface named {name!r}")
        raise ConfigurationError(f"interface name {name!r} is ambiguous")

    def conforms(self, idl_type: IdlType, value) -> bool:
        """Run-time structural conformance of ``value`` to ``idl_type``."""
        if isinstance(idl_type, BasicType):
            kind = idl_type.kind
            if kind == "void":
                return value is None
            if kind == "boolean":
                return isinstance(value, bool)
            if kind == "octet":
                return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= 255
            if kind in _INT_RANGES:
                low, high = _INT_RANGES[kind]
                return (
                    isinstance(value, int)
                    and not isinstance(value, bool)
                    and low <= value <= high
                )
            if kind in ("float", "double"):
                return isinstance(value, (int, float)) and not isinstance(value, bool)
            if kind == "string":
                return isinstance(value, str)
            if kind == "any":
                return True
            raise ConfigurationError(f"unknown basic type {kind!r}")
        if isinstance(idl_type, SequenceType):
            if not isinstance(value, (list, tuple)):
                return False
            element = idl_type.element
            if isinstance(element, BasicType) and element.kind == "any":
                return True  # every element conforms to ``any``
            return all(self.conforms(element, item) for item in value)
        if isinstance(idl_type, NamedType):
            cls = self.structs.get(idl_type.name) or self.exceptions.get(idl_type.name)
            if cls is None:
                raise ConfigurationError(f"unresolved type {idl_type.name!r}")
            return isinstance(value, cls)
        raise ConfigurationError(f"unknown IDL type {idl_type!r}")


class ServantSkeleton:
    """Server-side dispatch of decoded requests to a typed servant, the
    skeleton every platform generates from the same metadata."""

    def __init__(self, servant, interface: InterfaceDef, compiled: CompiledIdl):
        self._servant = servant
        self._interface = interface
        self._compiled = compiled

    @property
    def interface(self) -> InterfaceDef:
        return self._interface

    def dispatch(self, operation_name: str, arguments: list):
        """Invoke the servant method; validate the result against the IDL.

        Application exceptions declared in ``raises`` propagate as-is (the
        platform maps them to its user-exception reply); anything else
        becomes an :class:`InvocationError` at the caller.
        """
        operation = self._interface.operation(operation_name)
        method = getattr(self._servant, operation_name, None)
        if method is None:
            raise InvocationError(
                "NoSuchMethod", f"servant lacks method {operation_name!r}"
            )
        result = method(*arguments)
        if not operation.oneway:
            operation.check_result(result, self._compiled)
        return result


class _Compiler:
    def __init__(self, registry: TypeRegistry):
        self._registry = registry
        self._out = CompiledIdl()
        # Raw declarations by scoped name, for resolution and inheritance.
        self._decls: dict[str, object] = {}

    # -- pass 1: collect scoped names -------------------------------------

    def _collect(self, definitions: list, scope: str) -> None:
        for decl in definitions:
            scoped = f"{scope}::{decl.name}" if scope else decl.name
            if isinstance(decl, ModuleDecl):
                self._collect(decl.definitions, scoped)
            else:
                if scoped in self._decls:
                    raise ConfigurationError(f"duplicate definition {scoped!r}")
                self._decls[scoped] = decl

    def _resolve(self, name: str, scope: str) -> str:
        """Resolve a possibly relative name against enclosing scopes."""
        if name in self._decls:
            return name
        parts = scope.split("::") if scope else []
        while parts:
            candidate = "::".join(parts) + "::" + name
            if candidate in self._decls:
                return candidate
            parts.pop()
        raise ConfigurationError(f"unresolved name {name!r} (from scope {scope or '<global>'!r})")

    def _resolve_type(self, idl_type: IdlType, scope: str) -> IdlType:
        if isinstance(idl_type, NamedType):
            resolved = self._resolve(idl_type.name, scope)
            decl = self._decls[resolved]
            if isinstance(decl, InterfaceDecl):
                raise ConfigurationError(
                    f"interface {resolved!r} may not be used as a value type "
                    "(object references in parameters are not supported)"
                )
            return NamedType(resolved)
        if isinstance(idl_type, SequenceType):
            return SequenceType(self._resolve_type(idl_type.element, scope))
        return idl_type

    # -- pass 2: build output ---------------------------------------------

    def compile(self, spec: Specification) -> CompiledIdl:
        self._collect(spec.definitions, "")
        # Structs and exceptions first: interfaces refer to them.
        for scoped, decl in self._decls.items():
            if isinstance(decl, StructDecl):
                self._build_struct(scoped, decl)
            elif isinstance(decl, ExceptionDecl):
                self._build_exception(scoped, decl)
        for scoped, decl in self._decls.items():
            if isinstance(decl, InterfaceDecl):
                self._build_interface(scoped)
        return self._out

    def _scope_of(self, scoped: str) -> str:
        return scoped.rsplit("::", 1)[0] if "::" in scoped else ""

    def _build_struct(self, scoped: str, decl: StructDecl) -> None:
        member_names = tuple(m.name for m in decl.members)
        scope = self._scope_of(scoped)
        member_types = {m.name: self._resolve_type(m.type, scope) for m in decl.members}

        def make_init(names: tuple[str, ...]):
            def __init__(self, *args, **kwargs):
                values = dict(zip(names, args))
                values.update(kwargs)
                unknown = set(values) - set(names)
                if unknown:
                    raise TypeError(f"unknown struct members: {sorted(unknown)}")
                for name in names:
                    setattr(self, name, values.get(name))

            return __init__

        def __eq__(self, other):
            return type(self) is type(other) and all(
                getattr(self, n) == getattr(other, n) for n in type(self).__members__
            )

        def __repr__(self):
            body = ", ".join(f"{n}={getattr(self, n)!r}" for n in type(self).__members__)
            return f"{type(self).__name__}({body})"

        cls = type(
            decl.name,
            (),
            {
                "__idl_name__": scoped,
                "__members__": member_names,
                "__member_types__": member_types,
                "__init__": make_init(member_names),
                "__eq__": __eq__,
                "__repr__": __repr__,
                "__hash__": None,
            },
        )
        self._registry.register(scoped, cls)
        self._out.structs[scoped] = cls

    def _build_exception(self, scoped: str, decl: ExceptionDecl) -> None:
        member_names = tuple(m.name for m in decl.members)
        scope = self._scope_of(scoped)
        member_types = {m.name: self._resolve_type(m.type, scope) for m in decl.members}
        cls = type(
            decl.name,
            (IdlRemoteException,),
            {
                "__idl_name__": scoped,
                "__members__": member_names,
                "__member_types__": member_types,
            },
        )

        def to_dict(exc, names=member_names):
            return {name: getattr(exc, name) for name in names}

        def from_dict(state, _cls=cls):
            return _cls(**state)

        self._registry.register(scoped, cls, to_dict, from_dict)
        self._out.exceptions[scoped] = cls

    def _build_interface(self, scoped: str) -> InterfaceDef:
        existing = self._out.interfaces.get(scoped)
        if existing is not None:
            return existing
        decl = self._decls[scoped]
        if not isinstance(decl, InterfaceDecl):
            raise ConfigurationError(f"{scoped!r} is not an interface")
        scope = self._scope_of(scoped)
        interface = InterfaceDef(name=scoped)

        resolved_bases = []
        for base in decl.bases:
            base_scoped = self._resolve(base, scope)
            base_def = self._build_interface(base_scoped)
            resolved_bases.append(base_scoped)
            interface.operations.update(base_def.operations)
        interface.bases = tuple(resolved_bases)

        for attr in decl.attributes:
            self._add_attribute(interface, attr, scope)
        for op in decl.operations:
            self._add_operation(interface, op, scope)

        self._out.interfaces[scoped] = interface
        return interface

    def _add_attribute(self, interface: InterfaceDef, attr: AttributeDecl, scope: str) -> None:
        attr_type = self._resolve_type(attr.type, scope)
        getter = OperationDef(name=f"_get_{attr.name}", return_type=attr_type, params=())
        self._add(interface, getter)
        if not attr.readonly:
            setter = OperationDef(
                name=f"_set_{attr.name}",
                return_type=BasicType("void"),
                params=(ParamDef(name="value", type=attr_type),),
            )
            self._add(interface, setter)

    def _add_operation(self, interface: InterfaceDef, op: Operation, scope: str) -> None:
        params = []
        for param in op.params:
            if param.direction != "in":
                raise ConfigurationError(
                    f"{interface.name}::{op.name}: {param.direction!r} parameters are "
                    "not supported by the Python mapping (use 'in' and a return value)"
                )
            params.append(ParamDef(name=param.name, type=self._resolve_type(param.type, scope)))
        if op.oneway and not (
            isinstance(op.return_type, BasicType) and op.return_type.kind == "void"
        ):
            raise ConfigurationError(f"oneway operation {op.name!r} must return void")
        raises = tuple(self._resolve(name, scope) for name in op.raises)
        for exc_name in raises:
            if exc_name not in self._out.exceptions:
                raise ConfigurationError(f"{op.name!r} raises non-exception {exc_name!r}")
        self._add(
            interface,
            OperationDef(
                name=op.name,
                return_type=self._resolve_type(op.return_type, scope),
                params=tuple(params),
                raises=raises,
                oneway=op.oneway,
            ),
        )

    def _add(self, interface: InterfaceDef, op: OperationDef) -> None:
        if op.name in interface.operations and interface.operations[op.name] != op:
            raise ConfigurationError(
                f"operation {op.name!r} conflicts with an inherited definition "
                f"in {interface.name}"
            )
        interface.operations[op.name] = op
        declare_names(op.name)  # the name every call of the operation carries


def compile_idl(source: str, registry: TypeRegistry | None = None) -> CompiledIdl:
    """Parse and compile IDL source into runtime metadata.

    Struct and exception classes are registered with ``registry`` (the
    global serialization registry by default) under their scoped IDL names.
    Compiling the same source twice against the global registry is safe for
    identical definitions and rejected for conflicting ones.
    """
    spec = parse_idl(source)
    return _Compiler(registry or global_registry).compile(spec)

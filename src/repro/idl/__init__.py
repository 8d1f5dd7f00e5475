"""The Cactus IDL compiler.

The paper generates CQoS stubs and skeletons automatically from the server's
IDL description.  This package provides that pipeline for a CORBA-flavoured
IDL subset:

- :mod:`repro.idl.lexer` / :mod:`repro.idl.parser` — tokenize and parse IDL
  source (`module`, `interface`, `struct`, `exception`, `attribute`,
  operations with `in` parameters, `raises`, `oneway`, `sequence<T>`);
- :mod:`repro.idl.ast` — the syntax tree and the IDL type model;
- :mod:`repro.idl.compiler` — semantic analysis producing runtime
  :class:`~repro.idl.compiler.InterfaceDef` metadata, run-time value/type
  conformance checks, and registration of struct/exception value types with
  the serialization registry.

Both middleware substrates and the CQoS interceptors are driven purely by
the resulting metadata, which is what makes one IDL description serve the
CORBA-like and RMI-like platforms alike.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "compile_idl": "repro.idl.compiler",
    "parse_idl": "repro.idl.parser",
    "tokenize": "repro.idl.lexer",
})

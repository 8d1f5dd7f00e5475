#!/usr/bin/env python
"""Surface census: the definitions under ``src/repro`` that nothing reaches.

Lists every module, class, function and method under ``src/repro`` whose
name nothing in ``src/``, ``benchmarks/`` or ``examples/`` uses again, with
its ``file:line`` and size in lines.  Tests do not count: a definition only
a test calls is surface the program does not need.  A name is reached by:

- a Name, an attribute, an import alias or a keyword argument;
- an identifier inside a string constant other than a docstring, which
  covers the ``lazy_exports`` and ``MICRO_PROTOCOLS`` name → module tables
  and the operation names of IDL source text;
- a prefix that code dispatches on by name: the constant head of an
  f-string or ``+`` passed to ``getattr`` (the registries' ``do_*``
  handlers), or a ``startswith`` argument that is a name ending in ``_``
  (the observers' ``on_*`` hooks);
- being a dunder method, which the interpreter calls.

Matching is by name only, so the census can miss dead code (a method whose
name some unrelated attribute shares) but never flags live code.  A module
is reached when any module path in an import or a string names it.  An
unreached module or class is one entry; what it contains is not listed
again.

Every entry must be on the allow-list (``ROOT/tools/surface_allow.txt``): one
line per entry, its dotted name, then the reason it stays.  A reason names
the open ROADMAP item that cites the definition (``item 5: ...``) or is one
of the fixed categories in ``CATEGORIES``.  The run fails on an unlisted
entry, on an allow-list line whose definition is reached again or no
longer exists (stale), on a line without a valid reason, and on more
entries or lines than ``--ceiling``.

Usage::

    python tools/surface_census.py [--root ROOT] [--ceiling ENTRIES:LINES]

Exits 0 when every entry is allowed and within the ceiling, else 1.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Directories (under the root) whose code counts as reaching a name.
USERS = ("src", "benchmarks", "examples")

#: Reasons an entry may give instead of an open ROADMAP item.
CATEGORIES = (
    "fault-injection control of a test network",
    "known-answer entry point",
    "paper claim",
)

_ITEM = re.compile(r"item \d+")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAME_PREFIX = re.compile(r"[A-Za-z][A-Za-z0-9_]*_")


@dataclass(frozen=True)
class Definition:
    """One unreached module, class, function or method."""

    name: str  #: dotted: module path, then the qualified name
    path: str  #: relative to the root
    line: int
    lines: int


def _python_files(root: Path, directory: str) -> list[Path]:
    return sorted((root / directory).rglob("*.py"))


def _module_name(source_root: Path, path: Path) -> str:
    parts = list(path.relative_to(source_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the constants that are docstrings or bare string statements."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            found.add(id(node.value))
    return found


def _prefix(node: ast.AST) -> str | None:
    """The constant head of an f-string or ``"..." + x``, if any."""
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        if isinstance(node.left, ast.Constant) and isinstance(node.left.value, str):
            return node.left.value
    return None


class Uses:
    """Every name, module path and dispatch prefix the user code mentions."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.modules: set[str] = set()
        self.prefixes: set[str] = set()

    def scan(self, tree: ast.AST, package: str) -> None:
        """Record the uses in ``tree``, a module of ``package`` (which
        resolves its relative imports)."""
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.names.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                self.names.add(node.arg)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self._module(alias.name)
                    self.names.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = package.split(".")
                    parts = parts[: len(parts) - node.level + 1]
                    base = ".".join([*parts, *([base] if base else [])])
                self._module(base)
                for alias in node.names:
                    self.names.add(alias.name)
                    self.modules.add(f"{base}.{alias.name}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    self.names.update(_WORD.findall(node.value))
                    self._module(node.value)
            elif isinstance(node, ast.Call):
                self._dispatch(node)

    def _module(self, dotted: str) -> None:
        parts = dotted.split(".")
        for end in range(1, len(parts) + 1):
            self.modules.add(".".join(parts[:end]))

    def _dispatch(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "getattr" and len(call.args) >= 2:
            head = _prefix(call.args[1])
            if head:
                self.prefixes.add(head)
        elif isinstance(func, ast.Attribute) and func.attr == "startswith" and call.args:
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if _NAME_PREFIX.fullmatch(arg.value):
                    self.prefixes.add(arg.value)

    def reach(self, name: str) -> bool:
        if name.startswith("__") and name.endswith("__"):
            return True
        return name in self.names or any(name.startswith(p) for p in self.prefixes)


def _definitions(body: list[ast.stmt], scope: str):
    """(qualified name, node) of the classes, functions and methods in a
    module or class body, classes' members included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{scope}.{node.name}"
            yield qualified, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, qualified)


def _span(node: ast.AST) -> tuple[int, int]:
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    return first, node.end_lineno - first + 1


def census(root: Path) -> list[Definition]:
    """The unreached definitions under ``root/src/repro``, in file order."""
    source_root = root / "src"
    uses = Uses()
    trees = {}
    for directory in USERS:
        for path in _python_files(root, directory):
            tree = ast.parse(path.read_text(), filename=str(path))
            module = _module_name(source_root, path) if directory == "src" else ""
            if path.is_relative_to(source_root / "repro"):
                trees[path] = (module, tree)
            package = module if path.stem == "__init__" else module.rpartition(".")[0]
            uses.scan(tree, package)
    found = []
    for path, (module, tree) in trees.items():
        relative = str(path.relative_to(root))
        if path.stem not in ("__init__", "__main__") and module not in uses.modules:
            found.append(Definition(module, relative, 1, len(path.read_text().splitlines())))
            continue
        unreached_scopes: list[str] = []
        for qualified, node in _definitions(tree.body, module):
            if any(qualified.startswith(scope + ".") for scope in unreached_scopes):
                continue
            if not uses.reach(node.name):
                line, size = _span(node)
                found.append(Definition(qualified, relative, line, size))
                unreached_scopes.append(qualified)
    return found


def read_allow_list(path: Path) -> dict[str, str]:
    """Dotted name → reason, from ``path``; ``#`` starts a comment line."""
    allowed = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        allowed[name] = reason.strip()
    return allowed


def valid_reason(reason: str) -> bool:
    return bool(_ITEM.match(reason)) or reason.startswith(CATEGORIES)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--ceiling", metavar="ENTRIES:LINES")
    options = parser.parse_args(argv)
    allow_path = options.root / "tools" / "surface_allow.txt"
    allowed = read_allow_list(allow_path) if allow_path.exists() else {}
    found = census(options.root)
    failures = []
    for entry in found:
        verdict = "allowed" if entry.name in allowed else "NOT ALLOWED"
        if entry.name not in allowed:
            failures.append(f"{entry.name} is unreached and not on the allow-list")
        print(f"{entry.path}:{entry.line} {entry.name} {entry.lines} lines {verdict}")
    reported = {entry.name for entry in found}
    for name, reason in allowed.items():
        if name not in reported:
            failures.append(f"stale allow-list entry {name}: reached again or gone")
        elif not valid_reason(reason):
            failures.append(f"allow-list entry {name} has no valid reason: {reason!r}")
    entries, lines = len(found), sum(entry.lines for entry in found)
    print(f"entries={entries} lines={lines}")
    if options.ceiling:
        most_entries, _, most_lines = options.ceiling.partition(":")
        if entries > int(most_entries) or lines > int(most_lines):
            failures.append(f"over the ceiling {options.ceiling}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

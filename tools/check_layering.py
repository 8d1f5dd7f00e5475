#!/usr/bin/env python
"""Layering lint: make the paper's portability claim machine-checked.

The QoS layer must see only the abstract request and the Cactus QoS
interface — so the generic layers may never import a platform package.
This script AST-scans ``src/repro`` and fails (exit 1) on violations of:

- ``repro.qos`` and ``repro.cactus`` (the generic service components) must
  not import ``repro.orb``, ``repro.rmi``, ``repro.http``, or
  ``repro.core.adapters``;
- the invocation kernel (``repro.core.platform``, ``repro.core.fanout``,
  ``repro.core.piggyback``) and the other platform-independent core
  modules (request/interfaces/stub/skeleton/client/server/events) must not
  import platform packages either;
- the deployment code (``repro.core.service``, ``repro.core.shardspace``)
  reaches a platform only through ``repro.core.adapters`` — what a
  platform *is* stays behind its adapter's host class, so it must not
  import ``repro.orb``, ``repro.rmi`` or ``repro.http`` itself;
- the routing layer (``repro.core.routing``) is below every adapter: it
  must not import platform packages, so the same consistent-hash views
  serve CORBA, RMI, and HTTP without wire or naming changes;
- a lazy import is an import: the contracts above also apply to a module
  path written as a string value of a dict literal (the name → module
  tables package ``__init__`` files export through) and to the string
  argument of ``import_module`` / ``__import__``;
- no file names a ``CQOS_*`` environment switch: behaviour is chosen by
  constructor arguments, and the benchmark refuses to run with such a
  variable set, so a switch read under ``src/`` would be a path nothing
  measures.  The rule flags the name as a string literal, which also
  catches a read through a module constant;
- one place starts a thread: ``threading.Thread``, ``threading.Timer`` and
  ``concurrent.futures.ThreadPoolExecutor`` may be named (as an attribute
  or in a ``from`` import) only by ``repro.util.concurrency``, whose
  ``WorkerThreads`` is the scheduler every other module borrows from.
- no sleep-poll: ``time.sleep`` may be named (as ``time.sleep`` or in a
  ``from time import``) only under ``repro.util``, whose clocks are the one
  place time passes (the chaos network charges its injected latency on
  one).  Code that waits for something to happen waits on the thing (an
  event, a condition, a future), not on the clock.

Usage::

    python tools/check_layering.py [--root src]
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

SUBSTRATE_PACKAGES = ("repro.orb", "repro.rmi", "repro.http")
PLATFORM_PACKAGES = SUBSTRATE_PACKAGES + ("repro.core.adapters",)

# module-prefix -> packages it must never import
CONTRACTS: dict[str, tuple[str, ...]] = {
    "repro.qos": PLATFORM_PACKAGES,
    "repro.cactus": PLATFORM_PACKAGES,
    "repro.core.platform": PLATFORM_PACKAGES,
    "repro.core.fanout": PLATFORM_PACKAGES,
    "repro.core.piggyback": PLATFORM_PACKAGES,
    "repro.core.service": SUBSTRATE_PACKAGES,
    "repro.core.shardspace": SUBSTRATE_PACKAGES,
    "repro.core.request": PLATFORM_PACKAGES,
    "repro.core.interfaces": PLATFORM_PACKAGES,
    "repro.core.events": PLATFORM_PACKAGES,
    "repro.core.stub": PLATFORM_PACKAGES,
    "repro.core.skeleton": PLATFORM_PACKAGES,
    "repro.core.client": PLATFORM_PACKAGES,
    "repro.core.server": PLATFORM_PACKAGES,
    "repro.core.routing": PLATFORM_PACKAGES,
}


def module_name(path: Path, root: Path) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imported_modules(
    tree: ast.AST, module: str, is_package: bool
) -> list[tuple[int, str]]:
    """Absolute module names imported anywhere in the file (with line)."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # resolve explicit relative imports
                parts = module.split(".")
                # level 1 from a package refers to the package itself;
                # from a plain module it refers to the containing package.
                drop = node.level - 1 if is_package else node.level
                base = parts[: len(parts) - drop] if drop else parts
                name = ".".join(base + ([node.module] if node.module else []))
                found.append((node.lineno, name))
            else:
                found.append((node.lineno, node.module or ""))
    return found


MODULE_PATH = re.compile(r"repro(\.\w+)+")
DYNAMIC_IMPORTERS = {"import_module", "__import__"}


def lazily_named_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """``repro`` module paths written as dict-literal values or as the
    string argument of ``import_module`` / ``__import__`` (with line)."""
    strings: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            strings.extend(node.values)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in DYNAMIC_IMPORTERS:
                strings.append(node.args[0])
    return [
        (node.lineno, node.value)
        for node in strings
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and MODULE_PATH.fullmatch(node.value)
    ]


def banned_for(module: str) -> tuple[str, ...]:
    for prefix, banned in CONTRACTS.items():
        if module == prefix or module.startswith(prefix + "."):
            return banned
    return ()


SWITCH_NAME = re.compile(r"CQOS_[A-Z0-9_]+")


def named_switches(tree: ast.AST) -> list[tuple[int, str]]:
    """String literals that are exactly a ``CQOS_*`` name (with line)."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and SWITCH_NAME.fullmatch(node.value)
    ]


THREAD_STARTERS = {"Thread", "Timer", "ThreadPoolExecutor"}
THREAD_MODULES = {"threading", "concurrent.futures"}
THREAD_OWNER = "repro.util.concurrency"


def named_thread_starters(tree: ast.AST) -> list[tuple[int, str]]:
    """``threading.Thread`` and its kin, named as an attribute of anything
    or imported from their module (with line)."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in THREAD_STARTERS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module in THREAD_MODULES:
            found.extend(
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name in THREAD_STARTERS
            )
    return found


SLEEP_OWNER = "repro.util"


def named_sleeps(tree: ast.AST) -> list[int]:
    """Lines naming ``time.sleep`` or importing ``sleep`` from ``time``."""
    found: list[int] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "sleep"
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            if any(alias.name == "sleep" for alias in node.names):
                found.append(node.lineno)
    return found


def check(root: Path) -> list[str]:
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        module = module_name(path, root)
        tree = ast.parse(path.read_text(), filename=str(path))
        if module != THREAD_OWNER:
            for lineno, name in named_thread_starters(tree):
                violations.append(
                    f"{path}:{lineno}: {module} names {name} "
                    f"(only {THREAD_OWNER} starts a thread: spawn on the deployment's set)"
                )
        if module != SLEEP_OWNER and not module.startswith(SLEEP_OWNER + "."):
            for lineno in named_sleeps(tree):
                violations.append(
                    f"{path}:{lineno}: {module} names time.sleep "
                    "(no sleep-poll: wait on an event or condition)"
                )
        for lineno, name in named_switches(tree):
            violations.append(
                f"{path}:{lineno}: {module} names the environment switch {name} "
                "(no CQOS_* switches under src/)"
            )
        banned = banned_for(module)
        if not banned:
            continue
        is_package = path.name == "__init__.py"
        named = imported_modules(tree, module, is_package) + lazily_named_modules(tree)
        for lineno, imported in named:
            for target in banned:
                if imported == target or imported.startswith(target + "."):
                    violations.append(
                        f"{path}:{lineno}: {module} imports {imported} "
                        f"(platform package {target} is banned in this layer)"
                    )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="source root containing the repro package",
    )
    options = parser.parse_args(argv)
    violations = check(Path(options.root))
    for violation in violations:
        print(violation)
    if violations:
        print(f"FAIL: {len(violations)} layering violation(s)")
        return 1
    print(
        "layering OK: generic layers import no platform packages (lazily named ones "
        "included), no CQOS_* switches, "
        "one place starts a thread, no sleep-poll"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Import census: a deployment loads its own platform and nothing it does not name.

Every package ``__init__`` under ``repro`` names its exports in one table
(name → defining module) and imports nothing until a name is read
(:func:`repro.util.lazy_exports`); a deployment imports only its own
platform's adapter and substrate (:data:`repro.core.adapters.HOSTS`); and a
micro-protocol ``repro.qos`` declares is imported when a configuration
first names it.  Each census runs in a fresh interpreter, since the test
process has long since imported everything.

The census (``tools/import_census.py``, which CI also runs against a
ceiling) also pins when loading happens: all of it before a deployment's
first reply, none inside the calls after it.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cactus.config import resolve_micro_protocol
from repro.core.adapters import HOSTS

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(REPO_ROOT / "tools"))

import import_census  # noqa: E402

PLATFORM_PACKAGES = {
    "corba": ("repro.orb", "repro.core.adapters.corba"),
    "rmi": ("repro.rmi", "repro.core.adapters.rmi"),
    "http": ("repro.http", "repro.core.adapters.http"),
}

#: Loaded by no base deployment, whichever its platform.
NEVER_FOR_A_BASE_DEPLOYMENT = (
    "repro.net.chaos",
    "repro.cactus.dynamic",
    "repro.core.shardspace",
    "repro.qos.combinations",
    "repro.qos.extensions",
)


def under(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def test_import_repro_loads_only_the_export_helper():
    """``import repro`` imports no submodule but ``repro.util``, whose
    ``__init__`` is the export helper and imports nothing of ``repro``."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print(*sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'repro'))"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.stdout.split() == ["repro", "repro.util"], result.stderr


@pytest.fixture(scope="module", params=sorted(PLATFORM_PACKAGES))
def census(request):
    return request.param, import_census.census(request.param)


def test_a_base_deployment_loads_only_its_own_platform(census):
    platform, modules = census
    first_reply = modules["first_reply"]
    own_package, own_adapter = PLATFORM_PACKAGES[platform]
    assert own_package in first_reply and own_adapter in first_reply
    others = [
        package
        for name, packages in PLATFORM_PACKAGES.items()
        if name != platform
        for package in packages
    ]
    assert [m for m in first_reply if any(under(m, p) for p in others)] == []


def test_a_base_deployment_loads_nothing_it_does_not_name(census):
    _, modules = census
    first_reply = modules["first_reply"]
    assert [
        m for m in first_reply if any(under(m, p) for p in NEVER_FOR_A_BASE_DEPLOYMENT)
    ] == []
    assert [m for m in first_reply if under(m, "repro.qos")] == ["repro.qos", "repro.qos.base"]


def test_a_base_deployment_loads_no_openssl_and_no_des(census):
    """The ring's hash comes from the builtin ``_blake2``: OpenSSL's
    libcrypto (``_hashlib``) and the DES module wait for a security
    micro-protocol (``tests/integration/test_crypto_deferral.py``)."""
    _, modules = census
    assert [m for m in modules["native"] if m in import_census.OPENSSL] == []
    assert not [m for m in modules["first_reply"] if under(m, "repro.crypto")]


def test_no_import_after_the_first_reply(census):
    """Fifty more calls import no ``repro`` module: lazy work never lands
    inside a timed loop."""
    _, modules = census
    assert modules["later"] == modules["first_reply"]


# -- consistency of the tables ---------------------------------------------------


def export_tables() -> dict[str, dict[str, str]]:
    """Package name → its ``lazy_exports`` table, read from each ``__init__``."""
    tables = {}
    for init in sorted(SRC.joinpath("repro").rglob("__init__.py")):
        package = ".".join(init.relative_to(SRC).parent.parts)
        tree = ast.parse(init.read_text())
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports"
        ]
        if calls:
            (call,) = calls
            expression = ast.Expression(call.args[1])
            namespace = vars(importlib.import_module(package))
            tables[package] = eval(compile(expression, str(init), "eval"), namespace)
    return tables


def defines(module: str, name: str) -> bool:
    """Whether ``module``'s own top level binds ``name`` (not by importing it)."""
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name:
            return True
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return True
    return False


def test_package_inits_import_nothing():
    """No package ``__init__`` imports a ``repro`` module but the export
    helper's package and, in ``repro.qos``, the registry it declares to."""
    allowed = {"repro.util", "repro.cactus.config"}
    for init in SRC.joinpath("repro").rglob("__init__.py"):
        tree = ast.parse(init.read_text())
        imported = {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        } | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.startswith("repro")
        }
        assert imported <= allowed, (init, imported - allowed)


def test_every_export_is_defined_where_its_table_says():
    tables = export_tables()
    assert {"repro", "repro.qos", "repro.net", "repro.cactus"} <= tables.keys()
    for package, table in tables.items():
        namespace = importlib.import_module(package)
        assert namespace.__all__ == list(table), package
        assert set(table) <= set(dir(namespace)), package
        for name, module in table.items():
            assert defines(module, name), (package, name, module)
            assert getattr(namespace, name) is getattr(importlib.import_module(module), name)


def test_an_unknown_name_is_an_attribute_error():
    import repro.net

    with pytest.raises(AttributeError, match="no attribute 'NoSuchThing'"):
        repro.net.NoSuchThing  # noqa: B018


def test_hosts_name_each_platforms_adapter_module():
    for platform, module in HOSTS.items():
        host = importlib.import_module(module).HOST
        assert host.__module__ == module == f"repro.core.adapters.{platform}"


def test_qos_declares_exactly_the_registered_names():
    """The names ``repro.qos`` declares are the ``@register_micro_protocol``
    names an AST scan finds under ``src/repro/qos``, each in its module."""
    from repro.qos import MICRO_PROTOCOLS

    scanned = {}
    for path in SRC.joinpath("repro", "qos").rglob("*.py"):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "register_micro_protocol"
                and isinstance(node.args[0], ast.Constant)
            ):
                scanned[node.args[0].value] = module
    assert MICRO_PROTOCOLS == scanned
    for name, module in MICRO_PROTOCOLS.items():
        assert resolve_micro_protocol(name).__module__ == module

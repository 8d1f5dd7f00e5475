"""The layering lint, run as a tier-1 test.

The paper's portability claim — QoS micro-protocols see only the abstract
request and the Cactus QoS interface — is enforced statically by
``tools/check_layering.py``; this wrapper makes every local/CI pytest run
fail on a violation, and checks the checker itself catches one.  The same
lint keeps the count of ``CQOS_*`` environment switches under ``src/`` at
zero.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_layering  # noqa: E402


def test_source_tree_has_no_layering_violations():
    assert check_layering.check(REPO_ROOT / "src") == []


def test_checker_flags_platform_import_in_qos(tmp_path):
    """The lint actually bites: a planted violation is reported."""
    pkg = tmp_path / "repro" / "qos"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "sneaky.py").write_text(
        textwrap.dedent(
            """
            from repro.orb.orb import Orb
            import repro.http.client
            from repro.core.adapters.rmi import RmiClientPlatform
            """
        )
    )
    violations = check_layering.check(tmp_path)
    assert len(violations) == 3
    assert all("repro.qos.sneaky" in v for v in violations)


def test_checker_resolves_relative_imports(tmp_path):
    pkg = tmp_path / "repro" / "cactus"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("from . import composite\n")
    (pkg / "composite.py").write_text("from ..rmi import runtime\n")
    violations = check_layering.check(tmp_path)
    assert len(violations) == 1
    assert "repro.cactus.composite" in violations[0]
    assert "repro.rmi" in violations[0]


def test_kernel_is_platform_free():
    """The invocation kernel itself must not import platform packages."""
    assert "repro.core.platform" in check_layering.CONTRACTS
    violations = [
        v for v in check_layering.check(REPO_ROOT / "src") if "platform" in v
    ]
    assert violations == []


def test_routing_layer_is_platform_free():
    """core.routing sits below every adapter: no platform imports allowed."""
    assert "repro.core.routing" in check_layering.CONTRACTS
    violations = [
        v for v in check_layering.check(REPO_ROOT / "src") if "routing" in v
    ]
    assert violations == []


def test_checker_flags_platform_import_in_routing(tmp_path):
    pkg = tmp_path / "repro" / "core" / "routing"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "core" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "bad.py").write_text("from repro.core.adapters.http import HttpClientPlatform\n")
    violations = check_layering.check(tmp_path)
    assert len(violations) == 1
    assert "repro.core.routing.bad" in violations[0]


def _plant(tmp_path, module: str, source: str) -> list[str]:
    """Violations of a tree holding one ``repro.core`` module with ``source``."""
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / f"{module}.py").write_text(textwrap.dedent(source))
    return check_layering.check(tmp_path)


@pytest.mark.parametrize("module", ["service", "shardspace"])
def test_deployment_code_reaches_platforms_only_through_adapters(tmp_path, module):
    """The façade and the shard space may import the adapter table, and
    nothing of a substrate: no ladder can come back without tripping this."""
    violations = _plant(
        tmp_path,
        module,
        """
        from repro.core.adapters import HOSTS
        from repro.orb.naming import naming_client
        from repro.rmi.runtime import RemoteRef
        import repro.http.server
        """,
    )
    assert len(violations) == 3
    assert all(f"repro.core.{module}" in v for v in violations)
    assert not any("repro.core.adapters" in v.split("imports")[1] for v in violations)


@pytest.mark.parametrize("module", ["fanout", "piggyback"])
def test_kernel_neighbours_are_platform_free(tmp_path, module):
    """Scatter-gather and the piggyback codec sit below every adapter."""
    violations = _plant(
        tmp_path,
        module,
        """
        from repro.core.adapters import HOSTS
        from repro.http.message import HttpRequest
        """,
    )
    assert len(violations) == 2
    assert all(f"repro.core.{module}" in v for v in violations)


def test_checker_flags_an_environment_switch(tmp_path):
    """A ``CQOS_*`` name is caught read directly or through a constant, in
    any package; prose that merely mentions one is not."""
    pkg = tmp_path / "repro" / "net"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "knob.py").write_text(
        textwrap.dedent(
            '''
            """Set CQOS_FAST=1 to go faster (prose, not a read)."""
            import os

            FAST_ENV = "CQOS_FAST"
            fast = os.environ.get(FAST_ENV) == "1"
            linger = float(os.environ.get("CQOS_LINGER", "0"))
            '''
        )
    )
    violations = check_layering.check(tmp_path)
    assert len(violations) == 2
    assert all("repro.net.knob" in v for v in violations)
    assert "CQOS_FAST" in violations[0] and "CQOS_LINGER" in violations[1]


def test_checker_flags_a_thread_started_outside_the_set(tmp_path):
    """``threading.Thread`` (and ``Timer``, ``ThreadPoolExecutor``) may be
    named only by ``repro.util.concurrency``; locks and events are free."""
    source = """
        import threading
        import concurrent.futures
        from threading import Thread, Lock
        from concurrent.futures import Future, ThreadPoolExecutor

        lock = threading.Lock()
        threading.Thread(target=print, daemon=True).start()
        threading.Timer(1.0, print).start()
        pool = concurrent.futures.ThreadPoolExecutor(2)
        """
    for package in ("net", "util"):
        pkg = tmp_path / "repro" / package
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "net" / "rogue.py").write_text(textwrap.dedent(source))
    (tmp_path / "repro" / "util" / "concurrency.py").write_text(textwrap.dedent(source))
    violations = check_layering.check(tmp_path)
    assert len(violations) == 5
    assert all("repro.net.rogue" in v for v in violations)
    assert sorted(v.split(" names ")[1].split()[0] for v in violations) == [
        "Thread", "Thread", "ThreadPoolExecutor", "ThreadPoolExecutor", "Timer",
    ]


def test_checker_flags_a_sleep_poll_outside_util(tmp_path):
    """``time.sleep`` may be named only under ``repro.util``: the chaos
    network charges its injected latency on a clock too.  A clock's
    ``sleep`` method and prose are free."""
    source = '''
        """Do not time.sleep here (prose, not a call)."""
        import time
        from time import monotonic, sleep

        def drain(counter, clock):
            while counter.inflight:
                time.sleep(0.001)
            clock.sleep(0.5)
        '''
    for package in ("core", "net", "util"):
        pkg = tmp_path / "repro" / package
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
    (tmp_path / "repro" / "__init__.py").write_text("")
    for module in ("core/shardspace.py", "net/chaos.py", "net/tcp.py", "util/clock.py"):
        (tmp_path / "repro" / module).write_text(textwrap.dedent(source))
    violations = check_layering.check(tmp_path)
    assert len(violations) == 6
    assert sorted(v.split(": ")[1].split()[0] for v in violations) == [
        "repro.core.shardspace", "repro.core.shardspace",
        "repro.net.chaos", "repro.net.chaos", "repro.net.tcp", "repro.net.tcp",
    ]
    assert all("time.sleep" in v for v in violations)


def test_checker_flags_a_platform_module_named_lazily(tmp_path):
    """A module path in a lazy export table or an ``import_module`` /
    ``__import__`` literal is an import: the contracts apply to it.  A path
    named in prose or any other string is not one."""
    violations = _plant(
        tmp_path,
        "stub",
        '''
        """Never reaches repro.orb.orb (prose, not an import)."""
        import importlib
        from importlib import import_module

        from repro.util import lazy_exports

        __getattr__, __dir__, __all__ = lazy_exports(globals(), {"Orb": "repro.orb.orb"})
        runtime = import_module("repro.rmi.runtime")
        adapter = importlib.import_module("repro.core.adapters.http")
        server = __import__("repro.http.server")
        request = import_module("repro.core.request")
        label = "repro.http.client"
        ''',
    )
    assert len(violations) == 4
    assert all("repro.core.stub" in v for v in violations)
    assert sorted(v.split(" imports ")[1].split()[0] for v in violations) == [
        "repro.core.adapters.http", "repro.http.server", "repro.orb.orb", "repro.rmi.runtime",
    ]

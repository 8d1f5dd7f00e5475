"""Every example, and the package docstring's Quickstart, in a fresh interpreter.

An example is what a reader runs first, from a clean process: nothing
imported before its own first line.  Running one inside the test process
would inherit whatever earlier tests imported (a micro-protocol registered
as a side effect, a platform already loaded) and hide the failure a reader
would meet.  Each runs here as its own ``python`` process with ``src`` on
the path and a timeout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
TIMEOUT_S = 120


def run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=TIMEOUT_S,
        env=env, cwd=REPO_ROOT,
    )


def quickstart_source() -> str:
    """The indented block after ``Quickstart::`` in ``repro``'s docstring."""
    text = (REPO_ROOT / "src" / "repro" / "__init__.py").read_text()
    block = text.split("Quickstart::\n\n", 1)[1]
    lines = []
    for line in block.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


def test_all_five_examples_are_collected():
    assert [path.name for path in EXAMPLES] == [
        "auction_house.py",
        "dynamic_customization.py",
        "quickstart.py",
        "replicated_bank.py",
        "secure_trading.py",
    ]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_in_a_fresh_interpreter(example):
    result = run_fresh([str(example)])
    assert result.returncode == 0, result.stderr[-2000:]


def test_package_quickstart_runs_in_a_fresh_interpreter():
    """By-name configurations (``["TotalOrder"]``, ``["ActiveRep",
    "MajorityVote"]``) resolve with nothing but ``repro`` imported first."""
    source = quickstart_source()
    assert "server_micro_protocols=[\"TotalOrder\"]" in source
    result = run_fresh(["-c", source + "\ndep.close()\n"])
    assert result.returncode == 0, result.stderr[-2000:]

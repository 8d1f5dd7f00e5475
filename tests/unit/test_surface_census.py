"""The surface census, run on small planted trees and on the repository.

``tools/surface_census.py`` lists the definitions under ``src/repro`` that
nothing in ``src/``, ``benchmarks/`` or ``examples/`` reaches; each must be
on its allow-list with a reason.  These tests check that it reports what is
unreached, does not report what is dispatched by name, and fails the run on
a stale or reasonless allow-list entry.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import surface_census  # noqa: E402

REGISTRY = '''
class Registry:
    def invoke(self, method, arguments):
        return getattr(self, f"do_{method}")(*arguments)

    def do_bind(self, name):
        return name
'''

MODULE = '''
"""A module whose docstring names never_called, which does not count."""


def used():
    return 1


def lazy_only():
    return 2


def never_called():
    return 3
'''


def plant(root: Path, files: dict[str, str]) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


@pytest.fixture
def tree(tmp_path):
    plant(tmp_path, {
        "src/repro/__init__.py": '''
            EXPORTS = {"lazy_only": "repro.pkg.mod"}
        ''',
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/mod.py": MODULE,
        "src/repro/pkg/registry.py": REGISTRY,
        "examples/demo.py": '''
            from repro.pkg.mod import used
            from repro.pkg.registry import Registry

            print(used(), Registry().invoke("bind", ["x"]))
        ''',
        "benchmarks/bench.py": "",
    })
    return tmp_path


def run(root: Path, allow: str, capsys, *extra: str) -> tuple[int, str, str]:
    plant(root, {"tools/surface_allow.txt": allow})
    code = surface_census.main(["--root", str(root), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_planted_unreached_function_is_reported_with_its_file_and_line(tree, capsys):
    code, out, err = run(tree, "", capsys)
    assert code == 1
    line = MODULE.splitlines().index("def never_called():") + 1
    assert f"src/repro/pkg/mod.py:{line} repro.pkg.mod.never_called 2 lines NOT ALLOWED" in out
    assert "repro.pkg.mod.never_called is unreached" in err
    assert [d.name for d in surface_census.census(tree)] == ["repro.pkg.mod.never_called"]


def test_getattr_dispatched_handler_is_not_reported(tree):
    names = [d.name for d in surface_census.census(tree)]
    assert "repro.pkg.registry.Registry.do_bind" not in names


def test_name_used_only_in_an_exports_table_string_is_not_reported(tree):
    names = [d.name for d in surface_census.census(tree)]
    assert "repro.pkg.mod.lazy_only" not in names


def test_unimported_module_is_one_entry(tree):
    plant(tree, {"src/repro/pkg/orphan.py": "def inside():\n    pass\n"})
    found = {d.name: d for d in surface_census.census(tree)}
    assert "repro.pkg.orphan" in found and "repro.pkg.orphan.inside" not in found
    assert found["repro.pkg.orphan"].lines == 2


def test_allowed_entries_pass_within_the_ceiling(tree, capsys):
    allow = "repro.pkg.mod.never_called paper claim: a planted example\n"
    assert run(tree, allow, capsys)[0] == 0
    assert run(tree, allow, capsys, "--ceiling", "1:2")[0] == 0
    code, _, err = run(tree, allow, capsys, "--ceiling", "1:1")
    assert code == 1 and "over the ceiling 1:1" in err


def test_entry_reached_again_is_stale(tree, capsys):
    plant(tree, {"examples/later.py": "from repro.pkg.mod import never_called\n"})
    code, _, err = run(tree, "repro.pkg.mod.never_called item 5: planted\n", capsys)
    assert code == 1
    assert "stale allow-list entry repro.pkg.mod.never_called" in err


def test_entry_whose_definition_is_gone_is_stale(tree, capsys):
    allow = """
        repro.pkg.mod.never_called item 5: planted
        repro.pkg.mod.deleted_long_ago item 5: planted
    """
    code, _, err = run(tree, allow, capsys)
    assert code == 1
    assert "stale allow-list entry repro.pkg.mod.deleted_long_ago" in err
    assert "never_called" not in err


@pytest.mark.parametrize("reason", ["", "nobody remembers"])
def test_entry_without_a_valid_reason_fails(tree, capsys, reason):
    code, _, err = run(tree, f"repro.pkg.mod.never_called {reason}\n", capsys)
    assert code == 1
    assert "repro.pkg.mod.never_called has no valid reason" in err


def test_repository_surface_is_all_allowed(capsys):
    assert surface_census.main([]) == 0, capsys.readouterr().err

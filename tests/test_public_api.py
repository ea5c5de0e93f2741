"""Every public name, and every name the benchmark binds, resolves.

A deletion that breaks ``perfbench/`` shows up here in seconds, not only
in a traced benchmark run.  The benchmark files are read, never edited.
"""

import ast
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import opahbt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_names_resolve_without_duplicates():
    assert len(opahbt.__all__) == len(set(opahbt.__all__))
    for name in opahbt.__all__:
        assert getattr(opahbt, name) is not None, name


def test_dir_lists_every_public_name():
    assert set(opahbt.__all__) <= set(dir(opahbt))


def test_package_import_loads_no_numpy_and_no_submodule():
    src = str(Path(opahbt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys; import opahbt; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('opahbt.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_a_stale_public_name_is_reported_against_the_package(monkeypatch):
    # A name left in __all__ after its deletion names opahbt, not the last
    # lazily loaded module that was searched.
    monkeypatch.setattr(opahbt, "__all__", [*opahbt.__all__, "deleted_helper"])
    message = "^module 'opahbt' has no attribute 'deleted_helper'$"
    with pytest.raises(AttributeError, match=message):
        getattr(opahbt, "deleted_helper")


def test_traced_benchmark_bindings_resolve():
    tracer = runpy.run_path(str(PERFBENCH / "tracer.py"))
    bindings = list(tracer["SPANNED"]) + list(tracer["COUNTED"])
    assert bindings
    for module, name in bindings:
        assert hasattr(importlib.import_module(f"opahbt.{module}"), name), (module, name)


def _package_imports(source):
    # (module, name) for each ``from opahbt... import name`` and (module, None)
    # for each ``import opahbt...``, also inside launcher code kept in strings.
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "opahbt":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "opahbt"]
        elif isinstance(node, ast.Constant) and "opahbt" in str(node.value):
            try:
                found += _package_imports(node.value)
            except SyntaxError:  # prose, not launcher code
                pass
    return found


def test_benchmark_imports_from_the_package_resolve():
    for script in ("verify.py", "run.py", "traced_job.py"):
        imports = _package_imports((PERFBENCH / script).read_text(encoding="utf-8"))
        assert imports, script
        for module, name in imports:
            target = importlib.import_module(module)
            assert name is None or hasattr(target, name), (script, module, name)

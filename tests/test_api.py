"""The public surface resolves: every exported, re-exported and benchmark-traced name exists."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import kallele

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ["kallele.core", "kallele.density", "kallele.sampler", "kallele.inference",
           "kallele.study", "kallele.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((ROOT / "src" / "kallele" / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(kallele, n)] == []


def test_traced_names_resolve():
    # spans.py imports only the standard library; load it by path, without
    # putting the benchmark directory on sys.path.
    spec = importlib.util.spec_from_file_location("_traced_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{home}.{attr}" for home, attr, *_ in spans.TRACED
               if not hasattr(importlib.import_module(home), attr)]
    assert missing == []

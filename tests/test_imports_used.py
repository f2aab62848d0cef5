"""Every name a module of homq or of its tests imports is used in the
scope it is imported into, so a deleted caller cannot leave its import
behind."""

import ast
import pathlib

import pytest

import homq

MODULES = (sorted(pathlib.Path(homq.__file__).parent.glob("*.py"))
           + sorted(pathlib.Path(__file__).parent.glob("*.py")))
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_imports(tree):
    """The (line, name) of every imported name that no Name node of the
    importing scope reads: the module for a top-level import, the
    function for one inside a function."""
    unused = []

    def visit(scope):
        names = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        pending = list(ast.iter_child_nodes(scope))
        while pending:
            node = pending.pop()
            if isinstance(node, SCOPES):
                visit(node)
                continue
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append((node.lineno, bound))
            pending.extend(ast.iter_child_nodes(node))

    visit(tree)
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("source, unused", [
    ("import time\n", [(1, "time")]),
    ("import os.path\nos.sep\n", []),
    ("from x import a as b\na\n", [(1, "b")]),
    ("def f():\n    from . import r\n\ndef g():\n    return r\n",
     [(2, "r")]),
    ("def f():\n    from . import r\n    return r.add\n", []),
], ids=["top_level", "dotted", "alias", "other_function", "local"])
def test_the_check_finds_an_unused_import(source, unused):
    assert _unused_imports(ast.parse(source)) == unused

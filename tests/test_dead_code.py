"""Every public top-level function and class in src/energyshed is used by
the package itself or exported in energyshed.__all__."""

import ast
import pathlib

import energyshed

SRC = pathlib.Path(energyshed.__file__).parent


def _names(node):
    """Every name that node reads, as a bare name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_all_names_resolve():
    assert [n for n in energyshed.__all__ if not hasattr(energyshed, n)] == []
    assert len(set(energyshed.__all__)) == len(energyshed.__all__)


def test_public_definitions_are_used_or_exported():
    # top-level statements of every module but __init__, whose imports
    # only re-export what __all__ lists
    stmts = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             for stmt in ast.parse(path.read_text()).body]
    refs = [set(_names(stmt)) for _, stmt in stmts]
    dead = [f"{mod}: {stmt.name}" for i, (mod, stmt) in enumerate(stmts)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and stmt.name not in energyshed.__all__
            and not any(stmt.name in r for j, r in enumerate(refs) if j != i)]
    assert dead == []

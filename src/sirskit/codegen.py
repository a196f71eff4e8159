"""Python source generated from expression text, and compiled once.

The incidence families, the model right-hand side and the integrator
loops are written as expression text and compiled into functions on
first use.  ``define`` compiles one generated source and registers it
with ``linecache`` under its file name, so that tracebacks, ``inspect``
and cProfile show its lines.  ``free_names`` and ``rename`` read and
rewrite the names of an expression without touching its tree, so a
renamed expression evaluates the same operations in the same order.
"""

from __future__ import annotations

import ast
import linecache


def define(source: str, name: str, filename: str, namespace=None):
    """Compile ``source`` as ``filename``, run it in a copy of
    ``namespace`` and return what it binds to ``name``."""
    # a None mtime marks a source with no file, which checkcache keeps
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = dict(namespace or {})
    exec(compile(source, filename, "exec"), scope)
    return scope[name]


def free_names(text: str) -> set:
    """Every name the expression ``text`` reads."""
    return {node.id for node in ast.walk(ast.parse(text, mode="eval"))
            if isinstance(node, ast.Name)}


def rename(text: str, names: dict) -> str:
    """The expression ``text`` with each name in ``names`` replaced by its
    value there."""
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            node.id = names.get(node.id, node.id)
    return ast.unparse(tree)

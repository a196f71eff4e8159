"""Python source generated from expression text, and compiled once.

The incidence families, the model right-hand side and the integrator
loops are written as expression text and compiled into functions on
first use, with each text placed in the source as written.  ``define``
compiles one generated source and registers it with ``linecache`` under
its file name, so that tracebacks, ``inspect`` and cProfile show its
lines.
"""

from __future__ import annotations

import linecache


def define(source: str, name: str, filename: str, namespace=None):
    """Compile ``source`` as ``filename``, run it in a copy of
    ``namespace`` and return what it binds to ``name``."""
    # a None mtime marks a source with no file, which checkcache keeps
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = dict(namespace or {})
    exec(compile(source, filename, "exec"), scope)
    return scope[name]

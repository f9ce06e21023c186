"""Modules whose body runs on their first attribute access.

lazy_module(name) returns sys.modules[name] when that module has been
imported already.  Otherwise it puts a module object in sys.modules
whose body runs when one of its attributes is first read, by the
importlib.util.LazyLoader recipe of the standard library (the technique
of Scientific Python SPEC 1).  np is numpy bound this way, so a command
that never touches an array, such as the exact route of ``faberbohr
faber``, never loads numpy.

The lazy module is installed only when numpy is not yet imported: a
process that imported numpy first gets that same module object here,
and pays nothing.  Every module of the package binds np from here, not
with ``import numpy as np``: on Python <= 3.11 an import statement
reads ``__spec__`` of a module it finds in sys.modules, and that read
runs a lazy module's body, so one such statement would load numpy as
soon as its module is imported.  Any other attribute read loads it
too, ``isinstance`` included (it reads ``__class__``).  Before Python
3.12 LazyLoader takes no lock, so the first use of a lazy module
should not race between threads.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_module(name: str):
    """sys.modules[name], or a module that is loaded on first use."""
    try:
        return sys.modules[name]
    except KeyError:
        pass
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_module("numpy")

"""Every function and class in ``src/repro`` is used somewhere.

A def or class whose name appears nowhere in ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` or ``docs/`` except at its own
definition is dead code: nothing calls it, nothing tests it, nothing
documents it.  The walk is stdlib ``ast`` over the package and a word
count over the tree, so a name used only through ``getattr`` or a
protocol needs an entry in :data:`ALLOWED` (with its reason).
"""

import ast
import collections
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "repro")
SEARCHED = ("src", "tests", "benchmarks", "examples", "docs")
TEXT_SUFFIXES = (".py", ".md", ".v")

#: Names called by a protocol rather than by name (an
#: ``ast.NodeVisitor.visit_X``, a ``getattr`` dispatch), each with its
#: reason.  Dunder methods are always exempt.
ALLOWED = frozenset()


def _files(top, suffixes):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames
                       if d != "__pycache__" and not d.startswith(".")]
        for filename in filenames:
            if filename.endswith(suffixes):
                yield os.path.join(dirpath, filename)


def _word_counts():
    counts = collections.Counter()
    for top in SEARCHED:
        for path in _files(os.path.join(ROOT, top), TEXT_SUFFIXES):
            with open(path, encoding="utf-8", errors="replace") as handle:
                counts.update(re.findall(r"[A-Za-z_]\w*", handle.read()))
    return counts


def _definitions():
    defs = collections.defaultdict(list)
    for path in _files(PACKAGE, (".py",)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                where = f"{os.path.relpath(path, ROOT)}:{node.lineno}"
                defs[node.name].append(where)
    return defs


def test_every_definition_is_referenced():
    counts = _word_counts()
    orphans = sorted(
        f"{where} {name}"
        for name, wheres in _definitions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
        and counts[name] <= len(wheres)
        for where in wheres)
    assert not orphans, "defined but never referenced:\n" + "\n".join(orphans)

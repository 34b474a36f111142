"""Every public name has a caller outside its own unit tests.

The package's results reach users through the CLI commands, the
acceptance criteria and the traced benchmark. A name in
``wmlab.__all__`` must therefore be used by one of them:

* as a bare name or an import in ``src/wmlab``, outside its own
  definition (the CLI and every library path it runs);
* as a function the benchmark's tracer wraps (``WRAPPED`` in
  ``perfbench/spans.py``);
* as a name that ``tests/test_acceptance.py`` or ``tests/conftest.py``
  imports from the package.

A name with none of these callers is listed in ``ALLOWED`` with the
reason it stays public. Only bare names count: ``math.erf`` is an
attribute and no use of a name ``erf``.
"""

import ast
import importlib.util
import os

import wmlab

PACKAGE = os.path.dirname(os.path.abspath(wmlab.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)

ALLOWED = {
    "read_matrix": "reads the WMLABMAT files that `sample` writes with format 'bin'",
}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _names_used(node, inside=()):
    """Names loaded or imported under ``node``, each outside the
    functions and classes of the same name that enclose it."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
        yield node.id
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = (*inside, node.name)
    for child in ast.iter_child_nodes(node):
        yield from _names_used(child, inside)


def package_uses():
    return {
        name
        for file in sorted(os.listdir(PACKAGE)) if file.endswith(".py")
        for name in _names_used(_parse(os.path.join(PACKAGE, file)))
    }


def traced_names():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {attr for _, attr, _, _ in spans.WRAPPED}


def acceptance_imports():
    return {
        alias.name
        for file in ("test_acceptance.py", "conftest.py")
        for node in ast.walk(_parse(os.path.join(TESTS, file)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wmlab")
        for alias in node.names
    }


def test_every_public_name_has_a_caller():
    reached = package_uses() | traced_names() | acceptance_imports()
    unreached = sorted(set(wmlab.__all__) - reached)
    assert [name for name in unreached if name not in ALLOWED] == []
    # an entry whose name gained a caller, or left the package, goes
    assert sorted(ALLOWED) == unreached


def test_the_scan_counts_bare_names_only():
    tree = ast.parse(
        "import math\n"
        "from .a import imported\n"
        "def recursive(x):\n"
        "    return recursive(x) + math.erf(x) + loaded\n"
        "stored = 1\n"
    )
    assert set(_names_used(tree)) == {"math", "imported", "x", "loaded"}

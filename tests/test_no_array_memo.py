"""No process-wide memo in ``wmlab`` holds arrays.

A stage that several computations share (a basis, an observation matrix,
a covariance) is a value its command builds and hands on, so it goes
with the command. This test parses every module and fails on a
``functools.lru_cache`` or ``functools.cache`` outside ``ALLOWED``.
"""

import ast
import os

import wmlab

PACKAGE = os.path.dirname(os.path.abspath(wmlab.__file__))
ALLOWED = {("spectral.py", "_lapack_routine")}  # ctypes bindings, no arrays
MEMOS = ("lru_cache", "cache")


def memos(tree):
    """The top-level definition of every functools memo or its import."""
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "functools"
                and node.attr in MEMOS
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "functools"
                and any(alias.name in MEMOS for alias in node.names)
            ):
                yield getattr(top, "name", "<module>")


def test_the_only_memo_caches_lapack_bindings():
    found = set()
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module)) as fh:
                found |= {(module, owner) for owner in memos(ast.parse(fh.read()))}
    assert found == ALLOWED


def test_the_rule_sees_each_form_of_memo():
    source = "from functools import cache\n@functools.lru_cache(1)\ndef f():\n    functools.cache\n"
    assert list(memos(ast.parse(source))) == ["<module>", "f", "f"]

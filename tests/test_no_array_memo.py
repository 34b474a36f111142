"""No process-wide memo in ``wmlab`` holds arrays, and no value is
written after it is built.

A stage that several computations share (a basis, an observation matrix,
a covariance) is a value its command builds and hands on, so it goes
with the command. A result that a routine computes from a value goes
into the value it returns, not back into its input, so nothing depends
on what ran before. These tests parse every module and fail on a
``functools.lru_cache`` or ``functools.cache`` outside ``ALLOWED``, on
an assignment through ``.__dict__[...]`` and on a dataclass field with a
``default_factory`` (a mutable default, filled in after construction).
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


def late_writes(tree):
    """The top-level definition of every assignment through ``__dict__``
    and of every call with a ``default_factory`` keyword."""
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "attr", None) == "__dict__"
            ) or (
                isinstance(node, ast.Call)
                and any(keyword.arg == "default_factory" for keyword in node.keywords)
            ):
                yield getattr(top, "name", "<module>")


def _found(rule):
    found = set()
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module)) as fh:
                found |= {(module, owner) for owner in rule(ast.parse(fh.read()))}
    return found


def test_the_only_memo_caches_lapack_bindings():
    assert _found(memos) == ALLOWED


def test_the_rule_sees_each_form_of_memo():
    source = "from functools import cache\n@functools.lru_cache(1)\ndef f():\n    functools.cache\n"
    assert list(memos(ast.parse(source))) == ["<module>", "f", "f"]


def test_no_value_is_written_after_it_is_built():
    assert _found(late_writes) == set()


def test_the_rule_sees_each_form_of_late_write():
    source = (
        "x.__dict__['a'] = 1\n"
        "def f(y):\n    y.__dict__['b'] += 1\n    return y.__dict__['c']\n"
        "class C:\n    d: dict = field(default_factory=dict)\n"
        "    e: list = dataclasses.field(init=False, default_factory=list)\n"
    )
    assert list(late_writes(ast.parse(source))) == ["<module>", "f", "C", "C"]

"""Banded SPD matrices are factored and solved in one place.

``fem1d._BandLDL`` factors a band once, as unit-lower LDL', and applies
the factor by unit-diagonal solves that never divide. This test parses
every module of the package and fails on any use of ``cholesky_banded``,
``cho_solve_banded``, LAPACK's ``dtbtrs`` and ``dpttrs`` or BLAS's
``dtbmv`` outside that class, so that no consumer factors a band of its
own, picks its own banded solver or multiplies by a triangular band.
"""

import ast
import os

import wmlab

PACKAGE = os.path.dirname(os.path.abspath(wmlab.__file__))
OWNER = ("fem1d.py", "_BandLDL")
BANNED = ("cholesky_banded", "cho_solve_banded", "dtbtrs", "dpttrs", "dtbmv")


def _modules():
    return sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def band_kernels(tree):
    """(top-level definition, line, name) of every use of a banned name,
    as an attribute (``scipy.linalg.lapack.dtbtrs``) or a bare name (an
    imported ``cholesky_banded``)."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in BANNED:
                yield owner, node.lineno, node.attr
            elif isinstance(node, ast.Name) and node.id in BANNED:
                yield owner, node.lineno, node.id
            elif isinstance(node, ast.alias) and node.name in BANNED:
                yield owner, getattr(node, "lineno", top.lineno), node.name


def _found():
    found = []
    for module in _modules():
        with open(os.path.join(PACKAGE, module)) as fh:
            tree = ast.parse(fh.read(), filename=module)
        found += [(module, owner, line, name) for owner, line, name in band_kernels(tree)]
    return found


def test_band_kernels_are_called_only_by_the_factor_type():
    found = _found()
    assert [f for f in found if (f[0], f[1]) != OWNER] == []
    # the factor type still holds the kernels, so the rule cannot go stale
    assert {name for module, owner, _, name in found} == {
        "cholesky_banded", "dtbtrs", "dpttrs", "dtbmv"
    }


def test_the_rule_sees_each_form_of_use():
    source = (
        "from scipy.linalg import cholesky_banded\n"
        "def f(a, b):\n"
        "    return (scipy.linalg.cho_solve_banded((a, True), b),\n"
        "            scipy.linalg.lapack.dtbtrs(a, b), cholesky_banded(a))\n"
    )
    names = sorted(name for _, _, name in band_kernels(ast.parse(source)))
    assert names == ["cho_solve_banded", "cholesky_banded", "cholesky_banded", "dtbtrs"]

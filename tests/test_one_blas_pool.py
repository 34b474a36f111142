"""Dense products on the kriging and diagnose paths use scipy's BLAS.

numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool. A path that alternates between the two libraries' products makes
each pool's spinning workers slow the other one down, so ``kriging``,
``diagnostics`` and ``spectral`` send their dense products through
``scipy.linalg.blas``, the library behind scipy's factorizations and
solves. This test parses the three modules and fails on any ``@``,
``np.matmul``, ``np.dot`` or ``np.linalg`` outside the functions listed
below, each with its reason.
"""

import ast
import os

import wmlab

PACKAGE = os.path.dirname(os.path.abspath(wmlab.__file__))
MODULES = ("kriging.py", "diagnostics.py", "spectral.py")

ALLOWED = {
    ("spectral.py", "_spectral_factor"): (
        "the sign rule and the per-draw dot are matrix-vector products; keeping "
        "numpy's keeps the bits of fractional-beta draws"
    ),
    ("spectral.py", "covariance_weights"): (
        "the dense C for tests and library callers; no command calls it"
    ),
    ("spectral.py", "balakrishnan_fractional_inverse"): (
        "criterion 4's subject, an independent dense route that no command calls"
    ),
}

NUMPY_PRODUCTS = ("matmul", "dot", "linalg")


def _tree(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        return ast.parse(fh.read(), filename=module)


def numpy_products(tree):
    """(top-level definition, line, operation) of every numpy product."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                yield owner, node.lineno, "@"
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"
                and node.attr in NUMPY_PRODUCTS
            ):
                yield owner, node.lineno, f"np.{node.attr}"


def test_numpy_is_imported_only_as_np():
    # so that the attribute check below sees every use of numpy
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("numpy"), (module, node.lineno)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("numpy"):
                        assert (alias.name, alias.asname) == ("numpy", "np"), (module, node.lineno)


def test_dense_products_go_through_scipy_blas():
    found = [
        (module, owner, line, op)
        for module in MODULES
        for owner, line, op in numpy_products(_tree(module))
    ]
    assert [f for f in found if (f[0], f[1]) not in ALLOWED] == []
    # every entry still names a numpy product, so the list cannot go stale
    assert {(f[0], f[1]) for f in found} == set(ALLOWED)


def test_the_rule_sees_each_form_of_product():
    source = (
        "def f(a, b):\n"
        "    a @= b\n"
        "    return a @ b, np.dot(a, b), np.matmul(a, b), np.linalg.solve(a, b)\n"
    )
    ops = sorted(op for _, _, op in numpy_products(ast.parse(source)))
    assert ops == ["@", "@", "np.dot", "np.linalg", "np.matmul"]

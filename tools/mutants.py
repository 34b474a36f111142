"""Mutation catalogue: deliberate faults in ``src/`` and the tests that
must catch each one.

Usage, from the root of a checkout:

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/``, an exact text in
it, the text that replaces it, and the test node ids that must catch the
change. For each entry the script copies ``src/`` into a temporary
directory, runs the entry's tests against the copy (they must pass),
requires the old text to occur exactly once in the copied file, applies
the edit and runs the tests again with ``-x``: at least one must fail.
The tests import the copy through PYTHONPATH, ahead of any installed
wmlab. The script prints one line per entry and exits 1 if an entry
survives or is stale (its text does not occur exactly once, or its
tests fail on the unmutated copy).

Run it at one BLAS thread (OPENBLAS_NUM_THREADS=1), as CI does, so
that the tests' numbers do not depend on the thread split. The 23
entries took 69 s on a 2-core Xeon VM.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple


_BLOCKED = "tests/test_blocked_kernels.py::"
_PLANTED_NAN = (
    _BLOCKED + "test_generalized_eig_catches_a_planted_defect_banded[nan_in_last_block]",
    _BLOCKED + "test_generalized_eig_catches_a_planted_defect_dense[nan_in_last_block]",
)

_SINE_ORACLE = "tests/test_fem1d_oracle.py::test_sine_rows_across_row_blocks_match_scalar_oracle"
_SINE_LONGDOUBLE = (
    "tests/test_fem1d_oracle.py::test_sine_rows_match_the_rule_summed_in_longdouble[1-dirichlet]"
)

_CHECKER = "tests/test_cli.py::test_checker_agrees_with_jsonschema"
_EXPONENT = "tests/test_cli.py::test_exponent_above_the_maximum_is_a_config_error"

MUTANTS = (
    # inverse iteration without the M-orthogonalization of close vectors
    Mutant(
        "wmlab/spectral.py", "_CLOSE_GAP = 1e-4", "_CLOSE_GAP = 0",
        ("tests/test_banded_eig_oracle.py::"
         "test_banded_eigenpairs_match_exact_pencil_above_old_cutoff",),
    ),
    # a NaN defect passes the M-orthonormality check
    Mutant("wmlab/spectral.py", "if not err <= 1e-8:", "if err > 1e-8:", _PLANTED_NAN),
    # Python's max drops a NaN block maximum that is not the first
    Mutant("wmlab/spectral.py", "float(np.max(maxima))", "float(max(maxima))", _PLANTED_NAN),
    # band_matmul without its upper half
    Mutant(
        "wmlab/fem1d.py", "        out[:-k] += np.multiply(d, X[k:], out=term)\n", "",
        ("tests/test_fem1d.py::test_band_layout_expansion_and_product",),
    ),
    # singular values of T with their signs
    Mutant(
        "wmlab/diagnostics.py", "np.sort(np.abs(ev))", "np.sort(ev)",
        ("tests/test_diagnostics.py::test_hs_curve_forms_only_the_leading_block",),
    ),
    # artifacts written with NaN and the infinities, which JSON lacks
    Mutant(
        "wmlab/cli.py",
        "text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)",
        "text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)",
        ("tests/test_cli.py::test_non_finite_json_value_exits_three_and_writes_no_file",),
    ),
    # the orthonormality check reads M V of the unnormalized vectors
    Mutant(
        "wmlab/spectral.py", "        MV *= scale\n", "",
        (_BLOCKED + "test_blocked_eigenpairs_equal_full_array_oracle[partial_last_block]",),
    ),
    # every block of W written into its leading columns
    Mutant(
        "wmlab/diagnostics.py", "c=W[:, a:b]", "c=W[:, : b - a]",
        (_BLOCKED + "test_cross_gram_w_equals_one_dgemm[partial_last_block]",),
    ),
    # an infinite condition estimate dumped as is on exit 3
    Mutant(
        "wmlab/cli.py",
        'dump["condition_estimate"] = cond if math.isfinite(cond) else None',
        'dump["condition_estimate"] = cond',
        ("tests/test_cli.py::test_infinite_condition_estimate_is_written_as_strict_json_null",),
    ),
    # figure cells, and so the CSV rows, in the order the deltas are given
    Mutant(
        "wmlab/cli.py",
        'for delta in sorted(float(d) for d in cfg["deltas"]):',
        'for delta in (float(d) for d in cfg["deltas"]):',
        ("tests/test_cli.py::test_fig1_integral_rows_sorted_across_cells",),
    ),
    # draws that overflowed into infinities or NaN pass the range check
    Mutant(
        "wmlab/spectral.py",
        "if not np.finfo(float).tiny <= largest < np.inf:",
        "if largest < np.finfo(float).tiny:",
        ("tests/test_cli.py::test_sample_whose_draws_overflowed_exits_two",),
    ),
    # cm_beta without its maximum: diagnose at cm_beta = 1e20 never ends
    Mutant(
        "wmlab/cli.py",
        '"exclusiveMinimum": 0.25, "maximum": _MAX_EXPONENT}',
        '"exclusiveMinimum": 0.25}',
        (_EXPONENT + "[cm_beta]",),
    ),
    # config checker: exclusiveMinimum read as minimum
    Mutant(
        "wmlab/cli.py",
        '("exclusiveMinimum", operator.le,',
        '("exclusiveMinimum", operator.lt,',
        (_CHECKER,),
    ),
    # config checker: maximum read as exclusiveMaximum
    Mutant(
        "wmlab/cli.py",
        '("maximum", operator.gt,',
        '("maximum", operator.ge,',
        ("tests/test_cli.py::test_checker_follows_draft_2020_12", _CHECKER),
    ),
    # config checker: a bool is a number
    Mutant(
        "wmlab/cli.py",
        "return isinstance(value, (int, float)) and not isinstance(value, bool)",
        "return isinstance(value, (int, float))",
        (_CHECKER,),
    ),
    # the mass matrix assembled and factored anew on each use
    Mutant(
        "wmlab/fem1d.py",
        "    @functools.cached_property\n    def mass(self):",
        "    @property\n    def mass(self):",
        ("tests/test_cli.py::test_mass_matrix_is_assembled_once_per_basis",
         "tests/test_band_ldl_oracle.py::test_pencils_on_one_basis_share_one_mass_factor"),
    ),
    # sine rows with their integer phase reduced mod m, half the period
    Mutant(
        "wmlab/fem1d.py",
        "phase %= 2 * m",
        "phase %= m",
        (_SINE_ORACLE, _SINE_LONGDOUBLE),
    ),
    # sine rows with the sin and cos phase tables swapped
    Mutant(
        "wmlab/fem1d.py",
        "sin_table, cos_table = np.sin(angles), np.cos(angles)",
        "cos_table, sin_table = np.sin(angles), np.cos(angles)",
        (_SINE_ORACLE, _SINE_LONGDOUBLE),
    ),
    # A^-1 = U^-T D^-1 U^-1 applied with its two unit-triangular solves swapped
    Mutant(
        "wmlab/fem1d.py",
        'X = self._scale(self._unit_solve(X, "N"), self.inv_d)\n'
        '        return self._unit_solve(X, "T")',
        'X = self._scale(self._unit_solve(X, "T"), self.inv_d)\n'
        '        return self._unit_solve(X, "N")',
        ("tests/test_band_ldl_oracle.py::test_solves_match_the_cholesky_kernels[p2-solve]",
         "tests/test_band_ldl_oracle.py::test_solves_match_the_cholesky_kernels[p3-solve]"),
    ),
    # L X and L' X with their two dtbmv bands swapped
    Mutant(
        "wmlab/fem1d.py",
        "band, lower = (self.L, 1) if trans else (self.Lt, 0)",
        "band, lower = (self.Lt, 0) if trans else (self.L, 1)",
        ("tests/test_band_ldl_oracle.py::test_band_products_match_the_out_of_place_product[p1-L]",
         "tests/test_band_ldl_oracle.py::test_band_products_match_the_out_of_place_product[p1-Lt]"),
    ),
    # the covariance factor with the input left above its diagonal
    Mutant(
        "wmlab/kriging.py",
        "return scipy.linalg.cholesky(S, lower=True)",
        "return scipy.linalg.cho_factor(S, lower=True)[0]",
        ("tests/test_kriging.py::test_misspecified_variance_hand_value",
         "tests/test_kriging.py::test_covariance_factor_is_exactly_lower_triangular"),
    ),
    # the condition estimate doubled
    Mutant(
        "wmlab/kriging.py",
        "cond = 1.0 / rcond if rcond > 0.0 else math.inf",
        "cond = 2.0 / rcond if rcond > 0.0 else math.inf",
        ("tests/test_kriging.py::"
         "test_condition_estimate_is_the_scaled_blocks_1_norm_condition",),
    ),
    # a loss down to -2e-6 clipped to zero instead of raising
    Mutant(
        "wmlab/kriging.py",
        "if np.min(raw) < -1e-6:",
        "if np.min(raw) < -2e-6:",
        ("tests/test_kriging.py::test_grossly_negative_loss_raises",),
    ),
)


def stale_reason(source, mutant):
    """Why ``mutant`` no longer applies to ``source``, or None."""
    count = source.count(mutant.old)
    return None if count == 1 else f"old text occurs {count} times"


def _pytest(src, tests, *flags):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode


def check(mutant):
    """'caught', 'SURVIVED' or 'STALE: <reason>' for one entry."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src)
        path = os.path.join(src, mutant.path)
        with open(path) as handle:
            source = handle.read()
        reason = stale_reason(source, mutant)
        if reason is None and _pytest(src, mutant.tests) != 0:
            reason = "its tests fail on the unmutated source"
        if reason is not None:
            return f"STALE: {reason}"
        with open(path, "w") as handle:
            handle.write(source.replace(mutant.old, mutant.new))
        return "caught" if _pytest(src, mutant.tests, "-x") != 0 else "SURVIVED"


def main():
    failed = 0
    for mutant in MUTANTS:
        verdict = check(mutant)
        failed += verdict != "caught"
        print(f"{verdict}: {mutant.path}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every entry of the mutation catalogue ``tools/mutants.py`` still
applies to ``src/``: its old text occurs exactly once in its file.

Whether the entries' tests catch them is checked by running the
catalogue itself (``python3 tools/mutants.py``), which takes about
80 s.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _catalogue():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "tools", "mutants.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_the_current_source():
    mutants = _catalogue()
    stale = []
    for mutant in mutants.MUTANTS:
        with open(os.path.join(ROOT, "src", mutant.path)) as handle:
            reason = mutants.stale_reason(handle.read(), mutant)
        if reason is not None or not mutant.tests:
            stale.append((mutant.path, mutant.old, reason or "no tests"))
    assert mutants.MUTANTS and not stale

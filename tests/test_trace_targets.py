"""The traced benchmark run wraps wmlab functions by (module, name).

``perfbench/spans.py`` lists them in ``WRAPPED``; a function deleted or
renamed in the package would make every ``--trace 1`` run fail when the
tracer is installed. The spans module is loaded from its file and only
read.
"""

import importlib
import importlib.util
import os

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def test_every_traced_function_resolves_on_wmlab():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = [(module, attr) for module, attr, _, _ in spans.WRAPPED]
    assert wrapped
    missing = [
        (module, attr) for module, attr in wrapped
        if not callable(getattr(importlib.import_module(f"wmlab.{module}"), attr, None))
    ]
    assert missing == []

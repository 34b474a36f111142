"""One benchmark repeat in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds ``invocations`` (argument lists for ``wmlab.cli.main``) and
``trace`` (a run id, or null for an untraced repeat). The worker imports
``wmlab.cli`` from ``src/`` in the working directory, runs the
invocations in order and writes RESULT: the monotonic clock reading once
the import finished (the parent subtracts its spawn time to get set-up
time), the exit codes, wall and CPU time of the CLI work, peak resident
memory, the package environment and, when traced, the spans.
"""

import importlib.util
import json
import os
import resource
import sys
import time


def _environment():
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import wmlab.cli

    ready = time.monotonic()
    if not os.path.abspath(wmlab.cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"wmlab imported from {wmlab.cli.__file__}, not from {src}")

    tracer = None
    if spec["trace"] is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.install(spec["trace"])

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    codes = [wmlab.cli.main(list(argv)) for argv in spec["invocations"]]
    t1 = time.perf_counter()
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "ready_monotonic": ready,
        "exit_codes": codes,
        "run_s": t1 - t0,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "peak_rss_mb": cpu1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "environment": _environment(),
        "trace": tracer.result() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

"""Regenerate the reference artifacts in perfbench/reference.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Runs every workload once at each size, untraced, with the benchmark's
BLAS settings, and stores its data artifacts except the seed-dependent
binary matrices (whose shape is checked instead). Regenerate only on a
commit whose results are trusted; the benchmark compares every later
commit against these files.
"""

import os
import shutil
import sys
import time

import run


def main():
    workdir = os.path.join(run.WORK_ROOT, "make_reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = run.Runner(workdir, run.child_env(run.blas_threads()), time.monotonic() + 900)
    for workload, sizes in sorted(run.WORKLOADS.items()):
        for size in sizes:
            invocations, shapes = run.prepare(workload, size, 0, workdir)
            outdir = os.path.join(workdir, f"{workload}-{size}")
            result, error = runner.child(
                run.with_outdir(invocations, outdir), None, f"{workload}-{size}")
            if result is None or any(result["exit_codes"]):
                sys.exit(f"{workload} {size}: {error or result['exit_codes']}")
            refdir = os.path.join(run.REFERENCE_ROOT, size, workload)
            shutil.rmtree(refdir, ignore_errors=True)
            for rel in run.check.data_artifacts(outdir):
                if rel not in shapes:
                    os.makedirs(os.path.dirname(os.path.join(refdir, rel)), exist_ok=True)
                    shutil.copyfile(os.path.join(outdir, rel), os.path.join(refdir, rel))
            print(f"{workload} {size}: {result['run_s']:.2f} s -> {refdir}")
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()

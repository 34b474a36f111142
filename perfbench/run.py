"""Benchmark of the wmlab command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repeat is a fresh interpreter (perfbench/worker.py) that imports
``wmlab.cli`` from ``src/`` and runs the workload's CLI invocations in
order through ``wmlab.cli.main``, with the CLI's default ``--threads 1``
and the BLAS thread count fixed to min(2, usable cores). Repeats run
back to back (a closed loop, one client) until the next one would end
after ``--seconds``; at least two run, so that determinism is checked.

With ``--trace 0`` the last output line reports the medians over repeats
of the end-to-end metrics; set-up time is the median over the repeats
and a few extra import-only interpreters. With ``--trace 1`` untraced
and traced repeats alternate and the last line reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead.

Every repeat is checked: each CLI invocation must exit 0, its data
artifacts must match the stored reference (perfbench/check.py), their
SHA-256 digests must equal those of the first repeat of the run (so a
traced repeat must write the same bytes as an untraced one), and the
spans of a traced repeat must nest. ``failed`` counts repeats that fail
any check; ``correct`` is true when none did.

Scratch files, the full result record and the span file go to
``.perfbench/`` in the working directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import spans  # noqa: E402

WORK_ROOT = ".perfbench"
WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCE_ROOT = os.path.join(BENCH_DIR, "reference")

MIN_REPEATS = 2
MAX_REPEATS = 40
SETUP_ONLY_SAMPLES = 3
# The whole benchmark process must end within 180 s.
DEADLINE_S = 165.0

# tau giving unit marginal variance for beta = 1.5, kappa^2 = 1200
# (wmlab.model_config.tau_unit_variance(1.5, sqrt(1200))).
_SAMPLE_TAU = 16310.824750532378
_MODEL1_41_KAPPA2 = {
    "kind": "sigmoid_reciprocal",
    "params": [1.0 / 1200.0, 1.0 / 2400.0, 10.0, 0.5],
}


def _fig2(N, n_values):
    return ("fig2", {"N": N, "n_values": n_values, "betas": [1, 2, 3],
                     "models": ["model1", "model2"]}, False)


def _fig1_point(N, n_values):
    return ("fig1_point", {"N": N, "n_values": n_values}, False)


def _diagnose(N, truncations):
    return ("diagnose", {
        "N": N,
        "base_model": {"name": "base41", "beta": 1},
        "alt_model": {"name": "model2_41", "beta": 1, "delta": 10},
        "truncations": truncations,
        "cm_beta": 1.0,
    }, False)


def _sample(N, n_samples):
    return ("sample", {
        "N": N,
        "n_samples": n_samples,
        "format": "bin",
        "model": {"beta": 1.5, "a": {"kind": "constant", "params": [1.0]},
                  "kappa2": _MODEL1_41_KAPPA2, "tau": _SAMPLE_TAU},
    }, True)


# workload -> size -> [(subcommand, config, takes the workload seed)].
# "full" is what the benchmark measures; "smoke" is a tiny size for the
# benchmark's own test. Why each workload exists is in README.md.
WORKLOADS = {
    "integral": {
        "full": [_fig2(250, [10, 20, 50, 100, 125])],
        "smoke": [_fig2(40, [5, 10, 20])],
    },
    "point": {
        "full": [_fig1_point(2000, list(range(10, 100, 10)))],
        "smoke": [_fig1_point(200, [10, 20, 30])],
    },
    "spectral": {
        "full": [_diagnose(1200, [150, 300, 600, 1200]), _sample(1200, 200)],
        "smoke": [_diagnose(100, [25, 50, 100]), _sample(100, 5)],
    },
}

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {f"{name}.self_s": "s" for name in spans.SELF_TIME_SPANS}
    for group in spans.COUNTED_GROUPS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.distinct"] = "count"
    units.update({name: "count" for name in spans.COUNTERS})
    units["trace_bookkeeping_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


def blas_threads():
    return min(2, len(os.sched_getaffinity(0)))


def child_env(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)
    return env


def prepare(workload, size, seed, workdir):
    """Write the configs; return (argument lists with {out} placeholders,
    expected shapes of the binary matrices by relative path)."""
    invocations, shapes = [], {}
    for command, config, seeded in WORKLOADS[workload][size]:
        path = os.path.join(workdir, f"{command}.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        argv = [command, "--config", path, "--out", os.path.join("{out}", command)]
        if seeded:
            argv += ["--seed", str(seed)]
        invocations.append(argv)
        if config.get("format") == "bin":
            shapes[f"{command}/samples.bin"] = (config["N"], config["n_samples"])
    return invocations, shapes


def with_outdir(invocations, outdir):
    return [[a.replace("{out}", outdir) for a in argv] for argv in invocations]


def median_of(rows, key):
    return statistics.median(r[key] for r in rows) if rows else 0.0


class Runner:
    """Starts workers in workdir; each is killed if it runs past the
    deadline (a time.monotonic() reading)."""

    def __init__(self, workdir, env, deadline):
        self.workdir = workdir
        self.env = env
        self.deadline = deadline

    def child(self, invocations, trace_id, tag):
        """Run one worker; return (result or None, error text)."""
        spec_path = os.path.join(self.workdir, f"{tag}.spec.json")
        result_path = os.path.join(self.workdir, f"{tag}.result.json")
        with open(spec_path, "w") as fh:
            json.dump({"invocations": invocations, "trace": trace_id}, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, "no time left before the deadline"
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, spec_path, result_path],
                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"worker exceeded {timeout:.0f} s and was killed"
        wall = time.monotonic() - spawned
        if proc.returncode != 0:
            return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result.pop("ready_monotonic") - spawned
        result["wall_s"] = wall
        return result, ""


def check_repeat(result, outdir, refdir, shapes, first_digests):
    """Problems with one finished repeat, and its artifact digests."""
    problems = [f"invocation {i} exited {code}"
                for i, code in enumerate(result["exit_codes"]) if code != 0]
    problems += check.reference_problems(outdir, refdir, shapes)
    found = check.digests(outdir)
    if first_digests is not None and found != first_digests:
        changed = sorted(k for k in set(found) | set(first_digests)
                         if found.get(k) != first_digests.get(k))
        problems.append(f"artifact digests differ from the first repeat: {changed}")
    if result["trace"] is not None:
        problems += spans.span_problems(result["trace"]["spans"], result["run_s"])
    return problems, found


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    return parser.parse_args(argv)


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    if args.seed < 0:
        print("run.py: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "wmlab", "cli.py")):
        print("run.py: run from the root of a wmlab checkout (src/wmlab is missing)",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    threads = blas_threads()
    runner = Runner(workdir, child_env(threads), started + DEADLINE_S)
    invocations, shapes = prepare(args.workload, args.size, args.seed, workdir)
    refdir = os.path.join(REFERENCE_ROOT, args.size, args.workload)

    # Unmeasured first import: compiles bytecode a user would have cached.
    warm, error = runner.child([], None, "warmup")
    if warm is None:
        print(f"run.py: cannot import wmlab: {error}", file=sys.stderr)
        return 1
    environment = dict(warm["environment"], nproc=os.cpu_count(),
                       usable_cores=len(os.sched_getaffinity(0)), blas_threads=threads)
    print("environment: " + json.dumps(environment, sort_keys=True))

    setups = []
    if not args.trace:
        for i in range(SETUP_ONLY_SAMPLES):
            result, error = runner.child([], None, f"setup{i}")
            if result is None:
                print(f"run.py: import-only interpreter failed: {error}", file=sys.stderr)
                return 1
            setups.append(result["setup_s"])

    repeats, failures, first_digests = [], 0, None
    loop_start = time.monotonic()
    while len(repeats) < MAX_REPEATS:
        index = len(repeats)
        traced = bool(args.trace) and index % 2 == 1
        outdir = os.path.join(workdir, f"rep{index}")
        result, error = runner.child(
            with_outdir(invocations, outdir), index if traced else None, f"rep{index}")
        if result is None:
            problems = [error]
            result = {"run_s": None, "wall_s": None, "trace": None}
        else:
            problems, found = check_repeat(result, outdir, refdir, shapes, first_digests)
            if first_digests is None:
                first_digests = found
        shutil.rmtree(outdir, ignore_errors=True)
        result.update(index=index, traced=traced, problems=problems)
        repeats.append(result)
        failures += bool(problems)
        print(f"repeat {index}: traced={traced} run_s={result['run_s']} "
              f"problems={len(problems)}" + "".join(f"\n  {p}" for p in problems[:10]))
        if result["wall_s"] is None:
            break
        elapsed = time.monotonic() - loop_start
        longest = max(r["wall_s"] for r in repeats if r["wall_s"] is not None)
        if len(repeats) >= MIN_REPEATS and elapsed + longest > args.seconds:
            break
        if time.monotonic() + longest > runner.deadline:
            break

    ok = [r for r in repeats if r["run_s"] is not None]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if args.trace:
        layer = [spans.layer_metrics(r["trace"]) for r in traced]
        units = per_layer_units()
        values = {name: median_of(layer, name) for name in units if name != "trace_overhead_s"}
        values["trace_overhead_s"] = median_of(traced, "run_s") - median_of(plain, "run_s")
        span_path = os.path.join(workdir, "spans.json")
        with open(span_path, "w") as fh:
            json.dump([s for r in traced for s in r["trace"]["spans"]], fh)
        print(f"spans: {span_path}")
    else:
        setups += [r["setup_s"] for r in ok]
        units = END_TO_END_UNITS
        values = {name: median_of(plain, name) for name in units}
        values["setup_s"] = statistics.median(setups)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    summary = {"correct": failures == 0, "attempted": len(repeats),
               "failed": failures, "metrics": metrics}
    record = dict(summary, workload=args.workload, size=args.size, seed=args.seed,
                  seconds=args.seconds, environment=environment, setup_samples=setups,
                  repeats=[{k: v for k, v in r.items() if k != "trace"} for r in repeats])
    record_path = os.path.join(workdir, "result.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"record: {record_path}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

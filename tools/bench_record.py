"""Record benchmark runs of this checkout, and optionally of another one,
as ``BENCH_<label>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --label NAME [--compare DIR] [--first-seed S]

For each of ``perfbench/run.py``'s workloads the script runs
``perfbench/run.py --trace 0`` on the ten seeds S, ..., S+9 in this
checkout ("change") and, with ``--compare``, in the checkout DIR
("parent"), alternating which side runs first. Each run lasts
``BENCHMARK.json``'s ``run_seconds``, as the benchmark's own runs do.
It records every result line, each side's commit, whether that
checkout had uncommitted changes, its environment line (BLAS threads,
core count, library versions) and a digest of its ``src/`` tree, then
runs each workload's CLI invocations once more per side and records the
SHA-256 of every data artifact, by the rule ``perfbench/check.py``
applies. The summary gives, per workload and end-to-end metric, each
side's median and quartiles; with a parent, how many pairs the change
won, whether that is a gain (at least nine of the ten pairs won,
medians apart by more than the parent's interquartile range) and
whether the change's median stays within the metric's
``BENCHMARK.json`` bound.

Each run takes about ``run_seconds`` plus a few seconds of start-up,
so the default record of two checkouts takes about 40 minutes. Nothing
else should run on the machine meanwhile.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402
import run  # noqa: E402

PAIRS = 10  # a claimed gain must win at least nine of ten pairs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--compare", help="root of the parent checkout")
    parser.add_argument("--first-seed", type=int, default=11)
    return parser.parse_args(argv)


def bench_run(checkout, workload, seed, seconds):
    """Result line and environment line of one perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, env=run.child_env(run.blas_threads()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout}: {proc.stderr.strip()[-2000:]}")
    environment = next(
        json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("environment:")
    )
    return json.loads(lines[-1]), environment


def artifact_digests(checkout, workload, seed):
    """{relative path: SHA-256} of the data artifacts of one workload run."""
    with tempfile.TemporaryDirectory() as workdir:
        invocations, _ = run.prepare(workload, "full", seed, workdir)
        outdir = os.path.join(workdir, "out")
        spec = os.path.join(workdir, "spec.json")
        with open(spec, "w") as fh:
            json.dump({"invocations": run.with_outdir(invocations, outdir), "trace": None}, fh)
        result = os.path.join(workdir, "result.json")
        subprocess.run(
            [sys.executable, "perfbench/worker.py", spec, result],
            cwd=checkout, check=True, capture_output=True, env=run.child_env(run.blas_threads()),
        )
        with open(result) as fh:
            codes = json.load(fh)["exit_codes"]
        if any(codes):
            raise RuntimeError(f"{workload} in {checkout} exited {codes}")
        return check.digests(outdir)


def commit_of(checkout):
    """{"commit": HEAD, "dirty": uncommitted changes?} of a git checkout.

    A checkout is dirty when ``git status --porcelain`` lists anything:
    then HEAD does not name the measured code, and only ``src_sha256``
    does. Both are None outside a git checkout.
    """
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if head is not None else None
    return {"commit": head, "dirty": None if status is None else status != ""}


def source_digest(checkout):
    """SHA-256 over the paths and bytes of the .py files under src/, which
    identifies the measured code also in a copy without git history."""
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize(runs, bounds):
    """Per workload and metric: each side's spread, and the comparison."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == workload]
        table = {}
        for metric, (bound, better) in bounds.items():
            sides = {}
            for side in dict.fromkeys(r["side"] for r in rows):
                values = [r["result"]["metrics"][metric]["value"] for r in rows if r["side"] == side]
                sides[side] = spread(values)
            entry = dict(sides)
            if "parent" in sides:
                sign = 1.0 if better == "lower" else -1.0
                pairs = {}
                for r in rows:
                    pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"][metric]["value"]
                wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs.values())
                parent, change = sides["parent"], sides["change"]
                gap = sign * (parent["median"] - change["median"])
                entry.update(
                    pairs=len(pairs),
                    change_wins=wins,
                    relative_change=(change["median"] - parent["median"]) / parent["median"],
                    gain=wins >= 0.9 * len(pairs) and gap > parent["q3"] - parent["q1"],
                    within_bound=sign * (change["median"] - parent["median"])
                    <= bound * parent["median"],
                )
            table[metric] = entry
        table["failed"] = {side: sum(r["result"]["failed"] for r in rows if r["side"] == side)
                           for side in dict.fromkeys(r["side"] for r in rows)}
        summary[workload] = table
    return summary


def command_line(args):
    """The invocation that reproduces this record, with the parent
    checkout named relative to this one."""
    line = ["python3", "tools/bench_record.py", "--label", args.label]
    if args.compare:
        line += ["--compare", os.path.relpath(os.path.abspath(args.compare), ROOT)]
    return line + ["--first-seed", str(args.first_seed)]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        print("bench_record.py: run from the root of a wmlab checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    sides = {"change": ROOT}
    if args.compare:
        sides["parent"] = os.path.abspath(args.compare)

    runs, environments = [], {}
    for workload in run.WORKLOADS:
        for pair in range(PAIRS):
            seed = args.first_seed + pair
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for position, side in enumerate(order):
                result, environment = bench_run(sides[side], workload, seed, seconds)
                environments.setdefault(side, environment)
                runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                             "ran": position, "result": result})
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      + json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                      flush=True)

    record = {
        "label": args.label,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": command_line(args),
        "seconds": seconds,
        "host": {"cpu": cpu_model(), "cores": os.cpu_count(),
                 "usable_cores": len(os.sched_getaffinity(0)),
                 "blas_threads": run.blas_threads(), "python": platform.python_version()},
        "checkouts": {side: {**commit_of(path), "src_sha256": source_digest(path),
                             "environment": environments.get(side)}
                      for side, path in sides.items()},
        "summary": summarize(runs, bounds),
        "runs": runs,
        "artifacts": {
            side: {w: artifact_digests(path, w, args.first_seed) for w in run.WORKLOADS}
            for side, path in sides.items()
        },
    }
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

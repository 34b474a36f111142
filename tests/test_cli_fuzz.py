"""CLI contract fuzzer: configs that the config checker accepts keep the
exit-code contract.

The configs come from the generator of
``test_checker_agrees_with_jsonschema``: ``_mutate`` applied to
``_seed_configs``, with extreme values added to the pool that it draws
replacements from. N and ``n_samples`` are capped by value, so that no
run is long, and only the configs that ``cli._check`` accepts are run,
through ``cli.main`` in-process with RuntimeWarning as an error. Every
run must

- exit 0, 2 or 3 within ``TIME_LIMIT_S``;
- leave nothing behind when it exits 2 or 3;
- write only finite numbers when it exits 0 (CSV, JSON, ``samples.bin``),
  and no sample whose every weight is zero.

The seed is fixed, so a failure names a config that can be rerun.
``python3 tools/fuzz_cli.py`` runs the same generator on more configs.
"""

import collections
import contextlib
import csv
import io
import json
import math
import os
import random
import tempfile
import warnings

import numpy as np

import wmlab.cli
from test_cli import _MUTANTS, _Hang, _config_keys, _mutate, _seed_configs, _time_limit
from wmlab.matio import read_matrix

SEED = 11
TIME_LIMIT_S = 8
CAPS = {"N": 60, "n_samples": 5}

EXTREMES = [
    1e300, -1e300, 1e20, -1e20, 1e15, 1e-25, 1e-300, 5e-324, 2.2250738585072014e-308,
    -0.0, 2**31 - 1, 2**31, 2**32, 2**63, 2**64, 10**400, -(10**400), 150.5, 295.5,
    300, 300.5, 400.5, 999.5, 1000, 1000.5, 0.2500001, 3.25, 60, 61,
    [1e20], [2**31], [1e300], [5e-324], [10, 1e20], [1e-25, 1e-25],
]


def _capped(command, config):
    """``config`` with N and ``n_samples`` lowered to their caps, also where
    the default would exceed them."""
    if not isinstance(config, dict):
        return config
    defaults = wmlab.cli.DEFAULTS[command]
    for key, cap in CAPS.items():
        value = config.get(key, defaults.get(key))
        if wmlab.cli._is_number(value) and value > cap:
            config = {**config, key: cap}
    return config


def configs(count, seed=SEED):
    """``count`` (command, config) pairs that the config checker accepts."""
    seeds = _seed_configs()
    keys = _config_keys()
    pool = _MUTANTS + EXTREMES
    rng = random.Random(seed)
    accepted = []
    while len(accepted) < count:
        command, config = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            config = _mutate(rng, config, keys, pool)
        config = _capped(command, config)
        if not wmlab.cli._check(wmlab.cli.SCHEMAS[command], config)[0]:
            accepted.append((command, config))
    return accepted


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite in double precision")
    return value


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _bad_file(path):
    """What is wrong with the artifact at ``path``, or None."""
    name = os.path.basename(path)
    if name.endswith(".json"):
        with open(path) as fh:
            try:
                json.load(fh, parse_float=_finite_float, parse_constant=_no_constant)
            except ValueError as exc:
                return str(exc)
        return None
    if name.endswith(".bin"):
        weights = read_matrix(path)
    elif name.endswith(".csv"):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        for row in rows:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:  # a label or an empty cell
                    continue
                if not math.isfinite(value):
                    return f"cell {cell!r} is not finite"
        if header != ["sample", "index", "weight"]:
            return None
        n_samples = len({row[0] for row in rows})
        weights = np.array([float(row[2]) for row in rows]).reshape(n_samples, -1).T
    else:
        return None  # an SVG figure
    if not np.isfinite(weights).all():
        return "a weight is not finite"
    if not np.all(np.any(weights != 0.0, axis=0)):
        return "a sample is all zero"
    return None


def run_one(command, config, workdir):
    """(exit code or None, what the run broke or None) for one config, run
    in an empty directory of its own under ``workdir``."""
    rundir = tempfile.mkdtemp(dir=workdir)
    path = os.path.join(workdir, os.path.basename(rundir) + ".json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    cwd = os.getcwd()
    os.chdir(rundir)
    stderr = io.StringIO()
    try:
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(stderr),
            _time_limit(TIME_LIMIT_S),
        ):
            warnings.simplefilter("error", RuntimeWarning)
            code = wmlab.cli.main([command, "--config", path])
    except _Hang as exc:
        return None, str(exc)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    left = sorted(
        os.path.relpath(os.path.join(root, name), rundir)
        for root, dirs, files in os.walk(rundir)
        for name in dirs + files
    )
    if code not in (0, 2, 3):
        return code, f"exit {code}"
    if code != 0:
        return code, f"exit {code} left {left}: {stderr.getvalue()}" if left else None
    for name in left:
        problem = _bad_file(os.path.join(rundir, name))
        if problem is not None:
            return code, f"{name}: {problem}"
    return code, None


def fuzz(count, seed=SEED):
    """Run ``count`` accepted configs; return the exit codes counted (None
    for a run that did not return) and the (command, config, problem)
    triples of the runs that broke the contract."""
    codes = collections.Counter()
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for command, config in configs(count, seed):
            code, problem = run_one(command, config, workdir)
            codes[code] += 1
            if problem is not None:
                failures.append((command, config, problem))
    return codes, failures


def test_accepted_configs_keep_the_exit_contract():
    codes, failures = fuzz(300)
    assert failures == []
    assert codes[0] > 0 and codes[2] > 0, codes

"""CLI contract fuzzer, long run: the generator and invariants of
``tests/test_cli_fuzz.py`` on 2000 accepted configs instead of 300.

Usage, from the root of a checkout:

    python3 tools/fuzz_cli.py

Prints the count of each exit code and one line per run that broke the
contract, and exits 1 if any did. Run it at one BLAS thread
(OPENBLAS_NUM_THREADS=1), as CI does. 2000 configs took 11 s on a
2-core Xeon VM.
"""

import os
import sys

COUNT = 2000

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the checkout's wmlab, ahead of any installed one
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_cli_fuzz  # noqa: E402


def main():
    codes, failures = test_cli_fuzz.fuzz(COUNT)
    for command, config, problem in failures:
        print(f"{command} {config!r}: {problem}")
    print(", ".join(f"exit {code}: {n}" for code, n in codes.most_common()))
    print(f"{len(failures)} of {COUNT} runs broke the contract")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

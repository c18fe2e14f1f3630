#!/usr/bin/env python3
"""Build and run the DisCFS benchmark from the root of a source tree.

    python3 perfbench/run.py --workload walk|ingest|crowd --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build compiles the
libraries it links, later runs reuse them), then runs it with the same
arguments. Its output passes through unchanged: human-readable lines,
then one JSON object as the last line. The exit code is the
benchmark's own (0 only when every correctness check passed), or 1 if
the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole
    group and wait for it. Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["walk", "ingest", "crowd"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the root of the DisCFS source tree (no dune-project here)")
    code = run(["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"], BUILD_TIMEOUT_S,
               stdout=sys.stderr)
    if code != 0:
        sys.exit("run.py: build failed" if code is not None else "run.py: build timed out")
    code = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace], RUN_TIMEOUT_S)
    if code is None:
        sys.exit("run.py: benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()

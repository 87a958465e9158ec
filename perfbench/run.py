#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload plan|replan|deliver --seed N \
        --seconds S --trace 0|1 [--smoke]

Builds the benchmark executable and the `mcss` CLI with dune, runs one
workload, and prints that executable's output; its last line is the result
object ({"correct", "attempted", "failed", "metrics"}). Exits non-zero,
without a result line, when the checkout cannot be built or the run does
not finish, and with its status when a correctness gate fails.
Everything it writes stays inside the checkout (`_build/`, `.perfbench/`).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
MCSS = os.path.join("_build", "default", "bin", "mcss_cli.exe")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def run_group(argv, timeout):
    """Run argv in its own process group, so a timeout also stops the
    fleet process it spawned; returns (status, stdout) or None."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out.decode()
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["plan", "replan", "deliver"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    args = ap.parse_args()

    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        return fail("run from the root of a checkout (missing: "
                    + ", ".join(missing) + ")", 2)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/mcss_cli.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        return fail("build failed", 3)

    argv = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--mcss", MCSS, "--work", ".perfbench"]
    if args.smoke:
        argv.append("--smoke")
    ran = run_group(argv, RUN_TIMEOUT_S)
    if ran is None:
        return fail(f"the run did not finish within {RUN_TIMEOUT_S}s", 4)
    status, out = ran
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        return fail(f"perfbench.exe printed no result (status {status})", 5)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

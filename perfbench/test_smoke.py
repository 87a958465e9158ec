#!/usr/bin/env python3
"""The benchmark's own tests: every workload at its smoke size, with the
correctness gates on, untraced and traced.

    python3 perfbench/test_smoke.py        # from the root of a checkout

Checks that each run exits 0, reports itself correct with no failed
operations, and prints exactly the metric names and units that
BENCHMARK.json declares for its mode, each a finite number; end-to-end
metrics must be non-zero.
"""

import json
import math
import subprocess
import sys


def check(workload, trace, spec):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected], f"{where}: metric names differ"
    for m in expected:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"], f"{where}: {m['name']} unit"
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), \
            f"{where}: {m['name']} = {value['value']}"
        if not trace:
            assert value["value"] != 0, f"{where}: {m['name']} is 0"
    print(f"ok  {where}: {result['attempted']} attempted", flush=True)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the benchmark: every per-layer count repeats exactly.

    python3 perfbench/check_counts.py [--seed N] [--seconds S]

Runs each workload's traced run twice with the same seed, in fresh
processes, and compares every metric whose unit is ``count`` (and the
``ratio`` built from counts).  Both runs must also report ``correct``,
which includes the traced run rebuilding every job's CLI report byte for
byte.  Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS   # noqa: E402


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    ok = True
    for workload in sorted(WORKLOADS):
        first, second = (traced_run(workload, args.seed, args.seconds)
                         for _ in range(2))
        counts = sorted(k for k, m in first["metrics"].items()
                        if m["unit"] in ("count", "ratio"))
        differ = [k for k in counts if first["metrics"][k]["value"]
                  != second["metrics"][k]["value"]]
        correct = first["correct"] and second["correct"]
        verdict = "differ: " + ", ".join(differ) if differ else "all equal"
        print(f"{workload}: {len(counts)} counts, {verdict}, "
              f"correct={correct}")
        ok = ok and correct and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

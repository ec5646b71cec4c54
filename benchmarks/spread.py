"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 benchmarks/spread.py --workload family-bounds --seeds 1 2 3 4 5 --seconds 25

For every metric it prints the median over the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median.  The runs are made
one after another, never in parallel, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({elapsed:.1f} s): correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                  if "." not in k or k.startswith("trace.")), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    if len(args.seeds) < 2:
        return 0
    for name, vals in values.items():
        q1, mid, q3 = quantiles(vals, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        print(f"{name}: median {median(vals):.6g} {units[name]}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

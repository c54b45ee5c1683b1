"""Run the benchmark on every workload and print each end-to-end metric
by name, with its unit, plus check_mismatch_ratio.

    python3 bench/report.py [--seeds K]

Each workload runs K times (seeds 1..K), one run at a time, each run
for the run_seconds of BENCHMARK.json.  For every metric the report
gives the median over the runs and, from two runs on, the spread: the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import WORKLOADS, load_spec  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    ratio = next(line for line in lines if line.startswith("metric check_mismatch_ratio"))
    env = next(line for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), ratio.split(" ", 2)[2], env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=1)
    args = p.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.seeds + 1):
            result, ratio, env = run_once(workload, seed, seconds)
            ok &= result["correct"]
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"check_mismatch_ratio {ratio}", flush=True)
            print(f"  {env}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                print(f"  {name} {m['value']:.6g} {m['unit']}", flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"{workload} {name} median={med:.6g} n={len(vals)}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f" spread={(q3 - q1) / med:.4f} bound={bounds.get(name)}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

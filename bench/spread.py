"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload etl --workload train --seeds 1-10 [--out FILE]

Runs ``bench/run.py`` once per seed and workload with tracing off, and for
each end-to-end metric prints the median over seeds and the distance
between the first and third quartile as a share of the median (as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound. A spread at or under a third of the bound is marked steady; the
exit code is 1 unless every metric is steady and every run was correct.
Each run's ``host_probe_s`` (the host speed gauge of harbench.envstamp) is
kept beside its metrics, so drift of the host shows next to the spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from harbench import spec  # noqa: E402
from harbench.stats import quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-400:]}")
    result = json.loads(lines[-1])
    probe = [line.split()[1] for line in lines if line.split()[:1] == ["host_probe_s"]]
    result["host_probe_s"] = float(probe[0]) if probe else None
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out", help="write every run's result and the spreads as JSON")
    args = parser.parse_args()
    workloads = args.workload or list(spec.BOUNDED_WORKLOADS)
    summary: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    all_steady = True
    for workload in workloads:
        results = []
        for seed in args.seeds:
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            result["run_s"] = time.perf_counter() - start
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"run {result['run_s']:.1f} s host probe {result['host_probe_s']:.3f} s",
                  flush=True)
        rows = {}
        for metric in spec.END_TO_END:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            spread = quartile_spread(values)
            steady = spread <= metric["bound"] / 3
            all_steady &= steady and all(r["correct"] for r in results)
            rows[name] = {"median": statistics.median(values), "spread": spread,
                          "bound": metric["bound"], "values": values}
            print(f"  {workload:6s} {name:16s} median {statistics.median(values):12.5g} "
                  f"{metric['unit']:4s} spread {spread:7.4f} bound {metric['bound']:.3f} "
                  f"{'steady' if steady else 'NOT STEADY'}", flush=True)
        summary["workloads"][workload] = {
            "metrics": rows,
            "correct": all(r["correct"] for r in results),
            "run_s": [r["run_s"] for r in results],
            "host_probe_s": [r["host_probe_s"] for r in results],
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())

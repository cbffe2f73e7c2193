"""harforge benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload etl --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The workload's input is generated from
``--seed`` (passed to harforge as ``--seed``), the timed part runs the
``harforge`` CLI as separate processes, and the outputs are checked. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` a
traced run reports the per-layer metrics. A table of every metric goes to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the environment stamp, is also written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from harbench import spec  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(metrics: dict, names: list[str], extra: dict) -> str:
    lines = []
    for name in sorted(names):
        lines.append(f"  {name:48s} {metrics[name]:>16.6g} {spec.UNITS[name]}")
    for name in sorted(extra):
        lines.append(f"  {name:48s} {json.dumps(extra[name])}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # exit through the cleanup paths (stage process killed, work tree removed)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "harforge", "cli.py")):
        print(f"error: {ROOT} holds no harforge sources (src/harforge)", file=sys.stderr)
        return 2

    from harbench import workloads
    from harbench.envstamp import stamp

    stamp_time = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp_time}-{os.getpid()}"
    results = os.path.join(ROOT, ".bench_work", "results")
    work = os.path.join(ROOT, ".bench_work", "runs", tag)
    env = stamp(ROOT)
    run = workloads.Run(ROOT, work, args.workload, args.seed, args.seconds)
    tracer = None
    try:
        if args.trace:
            metrics, extra, tracer = workloads.traced_run(run)
            names = [m["name"] for m in spec.PER_LAYER]
        else:
            metrics, extra = workloads.UNTRACED[args.workload](run)
            names = [m["name"] for m in spec.END_TO_END]
    except workloads.SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    extra["error_rate"] = run.error_rate
    if run.probes:
        extra["host_probe_s"] = statistics.mean(run.probes)
    reported = {n: {"value": metrics[n], "unit": spec.UNITS[n]} for n in names}

    os.makedirs(results, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_digest": spec.config_digest(),
        "env": env,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": reported,
        "extra": extra,
    }
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(os.path.join(results, f"{tag}-spans.json"))

    print(f"harforge benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(_table(metrics, names, extra))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed}
    print(json.dumps({**result, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

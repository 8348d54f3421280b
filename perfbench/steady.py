"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload fig5-sweep --seeds 1-10
    python3 perfbench/steady.py --workload all --seeds 1-10 --json steady.json

For every end-to-end metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``.  Runs are sequential, one
process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, seconds, trace):
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - began
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {names}, another run.py workload, "
                             "or 'all'")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    workloads = names if args.workload == "all" else [args.workload]
    summary = {}
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in seed_list(args.seeds)]
        metrics = {}
        print(f"{workload}: {len(runs)} runs, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s "
              f"median, {sum(r['failed'] for r in runs)} failed ops")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"unit": runs[0]["metrics"][name]["unit"],
                   "median": statistics.median(values),
                   "spread": spread(values) if len(values) > 1 else 0.0,
                   "values": values}
            metrics[name] = row
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0:
                flag = ("ok" if row["spread"] < bound / 3
                        else "WITHIN BOUND" if row["spread"] <= bound
                        else "OVER BOUND")
                flag = f"bound {bound:<6} {flag}"
            print(f"  {name:<30} median {row['median']:>14.6g} "
                  f"{row['unit']:<9} spread {row['spread']:7.4f}  {flag}")
        summary[workload] = {
            "seeds": seed_list(args.seeds),
            "seconds": args.seconds,
            "trace": args.trace,
            "wall_s": [r["wall_s"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

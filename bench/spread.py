"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 bench/spread.py --workload forecast --seeds 1-10

Runs ``bench/run.py`` untraced once per seed, one after another, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for each
metric the median, the quartiles from ``statistics.quantiles(n=4)`` and the
spread (third minus first quartile, as a share of the median).  It also
lists each seed's output digest, so two sets of runs of the same code can be
compared byte for byte.  The summary is written to
``.bench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])

    metrics, digests, failed = {}, {}, 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        record = os.path.join(ROOT, ".bench_out",
                              f"{args.workload}-seed{seed}-trace0", "result.json")
        with open(record, encoding="ascii") as fh:
            digests[seed] = json.load(fh)["output_digests"][0]
        print(f"seed {seed}: correct={result['correct']} digest={digests[seed][:16]} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:4]),
              flush=True)

    summary = {name: summarize(values) for name, values in metrics.items()}
    for name, s in summary.items():
        print(f"{name:<44} median {s['median']:>12.6g}  q1 {s['q1']:>12.6g}  "
              f"q3 {s['q3']:>12.6g}  spread {s['spread']:.4f}")
    out = os.path.join(ROOT, ".bench_out", f"spread-{args.workload}.json")
    with open(out, "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "failed": failed, "digests": digests,
                   "metrics": summary}, fh, indent=1, sort_keys=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

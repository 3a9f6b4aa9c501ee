"""Run the benchmark on several seeds and report each end-to-end metric's
median and its spread: the distance between the first and third quartile
as a share of the median, beside the metric's bound.

    python3 perfbench/steadiness.py --workload serve_topics --seeds 1-10
    python3 perfbench/steadiness.py --workload all --seeds 1-10 --out runs.json

Run it from the repository root.  Each run is a separate process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out", help="also write every run's result here (JSON), after each run")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec.WORKLOADS] if args.workload == "all" else [args.workload]
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in names:
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["properties"] = next(
                (json.loads(line[len("properties "):]) for line in lines
                 if line.startswith("properties ")), None)
            ok &= result["correct"]
            runs.setdefault(workload, []).append(result)
            if args.out:
                Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s", flush=True)
        print(f"\n{workload}: {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, unit, _, bound in spec.END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            s = spread(values)
            flag = "" if s <= bound / 3 else "  <-- above a third of bound"
            print(f"  {name:<16} {statistics.median(values):>12.6g} {unit:<5} {s:>7.4f} {bound:>6}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

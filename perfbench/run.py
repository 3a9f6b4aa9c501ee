"""geoforge benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload serve_topics --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10        # every workload,
                                                                # then BENCHMARK.json
    python3 perfbench/run.py --workload ingest_mixed --smoke    # tiny sizes

Run it from the repository root: it imports geoforge from ./src and writes
scratch output under ./.perfbench_out.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end metrics, measured untraced,
with every timing in reference seconds (see hostspeed.py).
With ``--trace 1`` the same fixed amount of work runs untraced and then
traced, and the metrics are the per-layer figures of the traced run plus the
tracing overhead (traced minus untraced); the spans go to a JSONL file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spec  # noqa: E402
import tracer as tr  # noqa: E402


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy older than 1.26 has no mode argument
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "GEO_FORGE_THREADS": os.environ.get("GEO_FORGE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def per_layer(tracer_obj, traced, untraced) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans and counters."""
    seconds, calls = tr.span_totals(tracer_obj.spans)
    self_time = tr.self_times(tracer_obj.spans)
    values: dict[str, float] = {}
    for name, _, _, how in spec.PER_LAYER:
        kind, args = how[0], how[1:]
        if kind == "span":
            value = sum(seconds[n] for n in args)
        elif kind == "calls":
            value = sum(calls[n] for n in args)
        elif kind == "hot":
            value = tracer_obj.calls[args[0]]
        elif kind == "value":
            value = tracer_obj.values[args[0]]
        elif kind == "per_op":
            ops = calls[f"hnsw.HnswIndex.{args[0]}"]
            value = tracer_obj.distances[args[0]] / ops if ops else 0
        elif kind == "self":
            value = sum(
                self_time[s[0]] for s in tracer_obj.spans if s[1].startswith(args[0] + ".")
            )
        elif kind == "spans":
            value = len(tracer_obj.spans)
        elif kind == "overhead":
            value = traced.metrics[args[0]] - untraced.metrics[args[0]]
        else:
            raise ValueError(f"unknown per-layer rule {how}")
        values[name] = value
    return values


def run_one(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "geoforge" / "__init__.py").is_file():
        print(f"error: no geoforge sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads as wl

    workdir = root / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sizes = wl.SMOKE if args.smoke else wl.FULL

    def context(tag, clock, **kw):
        return wl.Context(seed=args.seed, seconds=args.seconds, sizes=sizes,
                          workdir=workdir / tag, root=root, clock=clock, **kw)

    run = wl.WORKLOADS[args.workload]
    try:
        if args.trace:
            # wall seconds on both sides: the timer signal of a HostClock
            # would land inside spans
            untraced = run(context("untraced", hostspeed.WallClock(), fixed=True))
            tracer_obj = tr.Tracer()
            with tr.instrument(tracer_obj):
                traced = run(context("traced", hostspeed.WallClock(), fixed=True,
                                     tracer=tracer_obj))
            outcomes = [untraced, traced]
            metrics = per_layer(tracer_obj, traced, untraced)
            same = untraced.info.get("checksums") == traced.info.get("checksums")
            if not same:
                traced.checks.append("traced run changed the pipeline's artifacts")
            spans_path = root / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer_obj.write_jsonl(spans_path)
            units = {n: u for n, u, _, _ in spec.PER_LAYER}
        else:
            clock = hostspeed.HostClock()
            outcome = run(context("run", clock))
            outcomes = [outcome]
            speeds = clock.speeds()
            outcome.info["host_speed"] = {
                "samples": len(speeds),
                "median": round(float(np.median(speeds)), 4),
                "min": round(float(speeds.min()), 4),
                "max": round(float(speeds.max()), 4),
            }
            metrics = dict(outcome.metrics)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = {n: u for n, u, _, _ in spec.END_TO_END}
            spans_path = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {k: v for k, v in outcomes[-1].info.items() if k != "checksums"}
    info["seed"] = args.seed
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{'smoke' if args.smoke else 'full'} sizes")
    print("properties " + json.dumps(info, sort_keys=True))
    print("environment " + json.dumps(environment(), sort_keys=True))
    if spans_path:
        print(f"spans {spans_path.relative_to(root)}")
    better = {n: b for n, _, b, *_ in [*spec.END_TO_END, *spec.PER_LAYER]}
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]:<6} ({better[name]} is better)")
    checks = [c for o in outcomes for c in o.checks]
    for check in checks:
        print(f"check failed: {check}")
    result = {
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes) + len(checks),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is that workload's."""
    results = {}
    for workload in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[workload["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    names = [n for n, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    print(f"  {'metric':<36}" + "".join(f"{w:>16}" for w in results))
    for name in names:
        row = "".join(f"{r['metrics'][name]['value']:>16.6g}" for r in results.values())
        print(f"  {name:<36}{row}")
    print(json.dumps({w: {k: r[k] for k in ("correct", "attempted", "failed")}
                      for w, r in results.items()}))
    spec.write_benchmark_json(Path.cwd() / "BENCHMARK.json")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--all", action="store_true",
                        help="run every workload, then write BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

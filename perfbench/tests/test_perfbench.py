"""Smoke tests of the benchmark itself: metric printing, output checks,
span arithmetic, exact-repeat counts, and the BENCHMARK.json contract.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import spec  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = [w["name"] for w in spec.WORKLOADS]
E2E = [n for n, *_ in spec.END_TO_END]
PER_LAYER = [n for n, *_ in spec.PER_LAYER]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return {w: bench("--workload", w, "--smoke", "--seconds", "1", "--seed", "5") for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced_twice():
    return {
        w: [bench("--workload", w, "--smoke", "--seed", "5", "--trace", "1") for _ in range(2)]
        for w in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(untraced, workload):
    proc = untraced[workload]
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == E2E
    units = {n: u for n, u, *_ in spec.END_TO_END}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
        assert re.search(rf"^\s+{re.escape(name)}\s", proc.stdout, re.M), name
    assert "properties " in proc.stdout and "environment " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(traced_twice, workload):
    first, second = (result_of(p) for p in traced_twice[workload])
    assert list(first["metrics"]) == PER_LAYER
    assert first["correct"] and second["correct"]
    for name in spec.COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_layers_match_workload(traced_twice):
    value = {w: result_of(p[0])["metrics"] for w, p in traced_twice.items()}
    assert value["pipeline_batch"]["core.load_corpus_calls"]["value"] == 9
    assert value["pipeline_batch"]["curation.cosine_calls"]["value"] > 0
    assert value["pipeline_batch"]["agent.trace_steps"]["value"] > 0
    assert value["pipeline_batch"]["linkgraph.pagerank_iterations"]["value"] > 0
    # serving touches neither curation nor the ranker
    for workload in ("serve_topics", "ingest_mixed"):
        assert value[workload]["curation.curate_s"]["value"] == 0
        assert value[workload]["ranker.embed_calls"]["value"] == 0
        assert value[workload]["hnsw.distances_per_search"]["value"] > 0
        assert value[workload]["hnsw.distances_per_insert"]["value"] > 0


def test_stage_spans_account_for_pipeline(traced_twice):
    result_of(traced_twice["pipeline_batch"][1])
    spans = [
        json.loads(line)
        for line in (ROOT / ".perfbench_out" / "spans-pipeline_batch-5.jsonl").open()
    ]
    run = [s for s in spans if s["name"] == "pipeline.run_pipeline"]
    assert len(run) == 1
    stages = [s for s in spans if s["parent"] == run[0]["id"] and ".stage_" in s["name"]]
    assert len(stages) == len(spec.STAGES)
    covered = sum(s["end"] - s["start"] for s in stages)
    assert 0.95 < covered / (run[0]["end"] - run[0]["start"]) <= 1.0
    assert all(s["request"] == run[0]["request"] for s in stages)


def test_self_time_arithmetic():
    # id, name, site, start, end, parent, request, thread
    spans = [
        (0, "a.root", "", 0.0, 10.0, -1, 0, 1),
        (1, "b.child", "", 1.0, 4.0, 0, 0, 1),
        (2, "b.child", "", 2.0, 3.0, 1, 0, 1),  # recursion: not added again
        (3, "c.leaf", "", 5.0, 6.0, 0, 0, 1),
        (4, "c.leaf", "", 0.0, 8.0, -1, 0, 2),  # another thread: its own root
        # two worker threads under the root, overlapping each other and c.leaf
        (5, "d.work", "", 5.5, 8.0, 0, 0, 3),
        (6, "d.work", "", 7.0, 9.0, 0, 0, 4),
    ]
    self_time = tr.self_times(spans)
    # root: 10 s minus the union [1, 4] + [5, 9] of its children
    assert self_time == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 8.0, 5: 2.5, 6: 2.0}
    seconds, calls = tr.span_totals(spans)
    assert seconds == {"a.root": 10.0, "b.child": 3.0, "c.leaf": 9.0, "d.work": 4.5}
    assert calls == {"a.root": 1, "b.child": 2, "c.leaf": 2, "d.work": 2}


def test_worker_spans_nest_under_the_waiting_span():
    from concurrent.futures import ThreadPoolExecutor

    tracer = tr.Tracer()
    with tracer.request("req"):
        with tracer.span("a.stage"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda _: _work(tracer), range(4)))
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    (stage,) = by_name["a.stage"]
    assert all(w[5] == stage[0] and w[6] == stage[6] for w in by_name["b.work"])
    assert len(by_name["b.work"]) == 4
    self_time = tr.self_times(tracer.spans)
    assert 0 <= self_time[stage[0]] < stage[4] - stage[3]


def _work(tracer):
    with tracer.span("b.work"):
        time.sleep(0.01)


def test_instrument_wraps_lookup_sites_and_restores():
    from geoforge import core, curation, hnsw, pipeline

    before = (pipeline.load_corpus, curation.cosine, hnsw.HnswIndex.insert,
              dict(pipeline.STAGE_FUNCS), hnsw.HnswIndex.load)
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        assert pipeline.load_corpus is not core.load_corpus is not before[0]
        assert pipeline.STAGE_FUNCS["curate"] is not before[3]["curate"]
        queries = [core.QueryRecord(text=f"q{i}", category="Description",
                                    embedding=core.l2_normalize(wl.np.arange(1.0, 4.0) + i))
                   for i in range(4)]
        curation.dedup_queries(queries)
        index = hnsw.HnswIndex(dim=3)
        index.insert(1, core.l2_normalize(wl.np.ones(3)))
        index.insert(2, core.l2_normalize(wl.np.arange(1.0, 4.0)))
        index.search(core.l2_normalize(wl.np.ones(3)), 1)
    assert tracer.calls["curation.cosine"] > 0
    assert [s[1] for s in tracer.spans].count("hnsw.HnswIndex.insert") == 2
    assert tracer.distances["insert"] + tracer.distances["search"] == index.distance_count
    after = (pipeline.load_corpus, curation.cosine, hnsw.HnswIndex.insert,
             dict(pipeline.STAGE_FUNCS), hnsw.HnswIndex.load)
    assert after == before


def test_counts_survive_thread_switches():
    from geoforge import collections_

    tracer = tr.Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tr.instrument(tracer):
            threads = [
                threading.Thread(target=lambda: [collections_.slugify("a b") for _ in range(2000)])
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert tracer.calls["collections_.slugify"] == 4 * 2000


def test_host_clock_arithmetic():
    clock = hostspeed.HostClock()
    # (wall start, wall end, speed): two samples, 1 s apart
    clock.samples = [(0.0, 1.0, 1.0), (2.0, 3.0, 0.5)]
    # between the samples time runs at their mean speed; inside one, not at all
    assert clock.seconds([1.0, 0.5, 1.5], [2.0, 2.5, 2.0]).tolist() == [0.75, 0.75, 0.375]
    # CPU seconds scale by the speed interpolated between sample midpoints
    assert clock.scale([0.5, 1.5, 2.5], [1.0, 1.0, 2.0]).tolist() == [1.0, 0.75, 1.0]


def test_host_clock_defers_samples_to_the_end_of_an_operation():
    clock = hostspeed.HostClock()  # not entered: no timer, ticks by hand
    began = clock.began()
    clock._tick(None, None)  # as the timer would, inside the operation
    assert clock.samples == []
    start, end, cpu = clock.ended(began)
    assert len(clock.samples) == 1 and clock.samples[0][0] >= end > start and cpu >= 0
    clock._tick(None, None)  # outside any operation: sampled at once
    assert len(clock.samples) == 2 and all(speed > 0 for speed in clock.speeds())


def test_best_of_repeats():
    seconds = wl.np.array([1.0, 5.0, 2.0, 4.0, 1.0, 3.0]) / 1e3  # 2 repeats of 3 ops
    assert wl.latency_metrics("x", seconds, repeats=2)["x_p50_ms"] == 1.0
    assert wl.latency_metrics("x", seconds)["x_p50_ms"] == 2.5


def test_response_check_counts_malformed_responses():
    from geoforge import core, collections_

    topic = core.QueryRecord(text="t", category="Description", embedding=None)

    def coll(sims):
        return collections_.Collection(topic, "t", "pinclip", [(i, s) for i, s in enumerate(sims)])

    assert wl.response_ok(coll([0.9, 0.9, 0.5]), 3)
    assert not wl.response_ok(coll([0.9, 0.5]), 3)
    assert not wl.response_ok(coll([0.5, 0.9, 0.1]), 3)
    assert not wl.response_ok(None, 3)


def test_benchmark_json_matches_spec_and_contract():
    data = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert data == spec.benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in data[k]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert 2 <= len(data["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert 1 <= len(data["per_layer"]) <= 128 and 1 <= len(data["end_to_end"]) <= 16
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(unit.match(m["unit"]) for k in ("end_to_end", "per_layer") for m in data[k])
    assert 1 <= data["run_seconds"] <= 60


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "serve_topics", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

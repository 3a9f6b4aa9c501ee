"""Workloads and metrics of the geoforge benchmark: the one source that
``run.py --all`` turns into BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 10

WORKLOADS = [
    {
        "name": "pipeline_batch",
        "why": "all nine run_pipeline stages at the default 1,000-pin config; curation, "
        "ranker training, JSONL IO and hnsw inserts dominate, search is a sliver",
    },
    {
        "name": "serve_topics",
        "why": "closed-loop build_collection on a 2,000-pin index with Zipf-skewed topics, "
        "so requests repeat; encode plus hnsw search, no curation or ranker",
    },
    {
        "name": "ingest_mixed",
        "why": "inserts into an empty index with one never-repeating topic search per "
        "three inserts; insert cost dominates and a search cache gets no repeats",
    },
]

# name, unit, better, bound: the share of the parent's median by which the
# median may worsen.  Timings are in reference seconds (hostspeed.py), which
# take out the shared host's slow phases; they keep the widest bound allowed
# because the tails (p99) still vary from seed to seed by up to a fifth.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("search_p50_ms", "ms", "lower", 0.25),
    ("search_p99_ms", "ms", "lower", 0.25),
    ("insert_p50_ms", "ms", "lower", 0.25),
    ("insert_p99_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("recall_at_10", "ratio", "higher", 0.05),
    ("correct_rank", "ratio", "higher", 0.05),
    ("intent_rate", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

STAGES = [
    "gen_corpus",
    "curate",
    "train_encoder",
    "build_index",
    "train_ranker",
    "build_collections",
    "link",
    "agent_run",
    "eval",
]

# per-layer metric -> (unit, better, how it is computed from the trace)
#   ("span", name)        inclusive seconds of the named spans
#   ("calls", name...)    number of spans of the named functions
#   ("hot", key)          calls of a counted-only helper at one lookup site
#   ("value", key)        count read from return values
#   ("per_op", kind)      hnsw distance evaluations per insert or search
#   ("self", module)      self time of the module's spans
#   ("spans",)            spans recorded
#   ("overhead", metric)  traced minus untraced end-to-end figure
PER_LAYER: list[tuple[str, str, str, tuple]] = [
    *[
        (f"pipeline.{stage}_s", "s", "lower", ("span", f"pipeline.stage_{stage}"))
        for stage in STAGES
    ],
    ("pipeline.self_s", "s", "lower", ("self", "pipeline")),
    ("core.load_corpus_s", "s", "lower", ("span", "core.load_corpus")),
    ("core.load_corpus_calls", "count", "lower", ("calls", "core.load_corpus")),
    ("core.write_jsonl_s", "s", "lower", ("span", "core.write_jsonl")),
    ("core.file_checksum_s", "s", "lower", ("span", "core.file_checksum")),
    ("synth.write_corpus_bundle_s", "s", "lower", ("span", "synth.write_corpus_bundle")),
    ("synth.generate_corpus_s", "s", "lower", ("span", "synth.generate_corpus")),
    ("curation.curate_s", "s", "lower", ("span", "curation.curate")),
    ("curation.dedup_queries_s", "s", "lower", ("span", "curation.dedup_queries")),
    ("curation.label_pairs_s", "s", "lower", ("span", "curation.label_pairs")),
    ("curation.cosine_calls", "count", "lower", ("hot", "curation.cosine")),
    ("encoders.train_encoder_s", "s", "lower", ("span", "encoders.train_encoder")),
    ("encoders.encode_s", "s", "lower", ("span", "encoders.EncoderModel.encode")),
    ("encoders.encode_calls", "count", "lower", ("calls", "encoders.EncoderModel.encode")),
    ("encoders.encode_batch_s", "s", "lower", ("span", "encoders.EncoderModel.encode_batch")),
    ("hnsw.insert_s", "s", "lower", ("span", "hnsw.HnswIndex.insert")),
    ("hnsw.insert_calls", "count", "lower", ("calls", "hnsw.HnswIndex.insert")),
    ("hnsw.distances_per_insert", "count", "lower", ("per_op", "insert")),
    ("hnsw.search_s", "s", "lower", ("span", "hnsw.HnswIndex.search")),
    ("hnsw.search_calls", "count", "lower", ("calls", "hnsw.HnswIndex.search")),
    ("hnsw.distances_per_search", "count", "lower", ("per_op", "search")),
    ("hnsw.brute_force_s", "s", "lower", ("span", "hnsw.brute_force_search")),
    ("hnsw.save_s", "s", "lower", ("span", "hnsw.HnswIndex.save")),
    ("hnsw.load_s", "s", "lower", ("span", "hnsw.HnswIndex.load")),
    ("hnsw.check_invariants_s", "s", "lower", ("span", "hnsw.HnswIndex.check_invariants")),
    ("ranker.train_ranker_s", "s", "lower", ("span", "ranker.train_ranker")),
    ("ranker.embed_s", "s", "lower",
     ("span", "ranker.RankerModel.embed_pin", "ranker.RankerModel.embed_query")),
    ("ranker.embed_calls", "count", "lower",
     ("calls", "ranker.RankerModel.embed_pin", "ranker.RankerModel.embed_query")),
    ("ranker.correct_rank_s", "s", "lower", ("span", "ranker.correct_rank")),
    ("collections_.build_collection_s", "s", "lower", ("span", "collections_.build_collection")),
    ("collections_.build_collection_calls", "count", "lower",
     ("calls", "collections_.build_collection")),
    ("collections_.intent_rate_s", "s", "lower",
     ("span", "collections_.intent_satisfying_rate")),
    ("collections_.emit_pages_s", "s", "lower", ("span", "collections_.emit_pages")),
    ("linkgraph.build_link_graph_s", "s", "lower", ("span", "linkgraph.build_link_graph")),
    ("linkgraph.pagerank_s", "s", "lower", ("span", "linkgraph.pagerank")),
    ("linkgraph.pagerank_iterations", "count", "lower",
     ("value", "linkgraph.pagerank_iterations")),
    ("linkgraph.link_report_s", "s", "lower", ("span", "linkgraph.link_report")),
    ("linkgraph.export_sitemap_s", "s", "lower", ("span", "linkgraph.export_sitemap")),
    ("agent.run_episode_s", "s", "lower", ("span", "agent.run_episode")),
    ("agent.trace_steps", "count", "lower", ("value", "agent.trace_steps")),
    ("trace.spans", "count", "lower", ("spans",)),
    # traced minus untraced end-to-end figures of the same fixed work
    ("trace.overhead_pipeline_s", "s", "lower", ("overhead", "pipeline_s")),
    ("trace.overhead_search_p50_ms", "ms", "lower", ("overhead", "search_p50_ms")),
    ("trace.overhead_insert_p50_ms", "ms", "lower", ("overhead", "insert_p50_ms")),
]

# per-layer metrics that are exact counts: same seed, same value, every run
COUNTS = [name for name, unit, _, _ in PER_LAYER if unit == "count"]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def write_benchmark_json(path: str | Path) -> None:
    Path(path).write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")

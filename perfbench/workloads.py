"""The three benchmark workloads, run against geoforge's public API.

Every workload returns the same end-to-end metrics (see README.md for what
each means on each workload) plus its output-check tally and the properties
of the inputs it generated.  Inputs come from the seed alone.

A workload times phases as perf_counter (start, end) pairs and single
operations as (start, end, CPU seconds) records while ``ctx.clock`` is
active, and converts them afterwards with ``ctx.durations`` and
``ctx.op_durations``: to reference seconds under a ``hostspeed.HostClock``,
to plain seconds under a ``hostspeed.WallClock``.  Timings are medians and
percentiles over the run's samples; ``latency_metrics`` says how repeated
operations count.

``fixed=True`` runs a fixed amount of work instead of filling the time
budget, so that a traced and an untraced run do the same work and their
counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from geoforge import collections_, core, encoders, hnsw, pipeline, synth

K = 10

# Serving traffic shape.  These are assumptions, not measurements: geoforge
# has no production traffic to fit them to.  See README.md, "Workloads".
ZIPF_S = 0.9  # topic popularity exponent of serve_topics
SERVE_SETUPS = 2  # serve_topics set-ups per run
SEARCH_EVERY = 3  # ingest_mixed inserts per interleaved search
# ingest_mixed rounds per run, at least: 1,332 searches, so that 13 lie beyond
# p99, and two pairs of rounds for the inserts' best of two
INGEST_MIN_ROUNDS = 4


@dataclass(frozen=True)
class Sizes:
    pipeline: dict  # PipelineConfig overrides
    n_clusters: int  # serve_topics and ingest_mixed corpora
    encoder_steps: int
    serve_pins: int
    serve_fixed_requests: int
    topic_variants: int  # jittered copies of each corpus query in the topic pool
    batch_passes: int  # serve_topics collection rebuild passes
    ingest_pins: int  # per round
    ingest_setups: int
    import_samples: int
    probes: int  # recall@10 probes
    judged: int  # collections judged for intent_rate
    triplets: int  # correct_rank triplets


FULL = Sizes(
    pipeline={},
    n_clusters=8,
    encoder_steps=200,
    serve_pins=2000,
    serve_fixed_requests=3000,
    topic_variants=2,
    batch_passes=4,
    ingest_pins=1000,
    ingest_setups=9,
    import_samples=9,
    probes=100,
    judged=60,
    triplets=400,
)

SMOKE = Sizes(
    pipeline={"n_pins": 120, "n_clusters": 4, "encoder_steps": 20, "ranker_steps": 50},
    n_clusters=4,
    encoder_steps=20,
    serve_pins=200,
    serve_fixed_requests=150,
    topic_variants=1,
    batch_passes=1,
    ingest_pins=120,
    ingest_setups=2,
    import_samples=2,
    probes=20,
    judged=10,
    triplets=50,
)


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    root: Path
    clock: object  # hostspeed.HostClock or hostspeed.WallClock
    fixed: bool = False
    tracer: object = None  # tracer.Tracer while tracing

    def request(self, name: str):
        return self.tracer.request(name) if self.tracer else contextlib.nullcontext()

    def durations(self, intervals: list[tuple[float, float]]) -> np.ndarray:
        """Durations of perf_counter (start, end) pairs, in the clock's seconds."""
        if not intervals:
            return np.zeros(0)
        starts, ends = zip(*intervals)
        return self.clock.seconds(np.array(starts), np.array(ends))

    def op_durations(self, ops: list[tuple[float, float, float]]) -> np.ndarray:
        """Durations of operation records, in the clock's seconds."""
        if not ops:
            return np.zeros(0)
        starts, ends, cpu = map(np.array, zip(*ops))
        return self.clock.scale((starts + ends) / 2, cpu)


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)  # failed whole-run checks
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.checks


# ------------------------------------------------------------------ helpers


def latency_metrics(prefix: str, seconds: np.ndarray, repeats: int = 1) -> dict[str, float]:
    """Median and p99 of one run's samples, in ms.

    With ``repeats``, the samples are that many runs, one after the other,
    of the same sequence of operations on the same data (the passes of one
    seed's pipeline, the set-ups of one index, the insert stream of every
    ingest round).  Each operation then counts with its best time within
    each pair of repeats, repeats 1 and 2, 3 and 4, and so on; an odd last
    repeat is left out, so that the estimator does not depend on how many
    repeats fit in the run.  On a shared machine a burst of slowness too
    short for the host clock to follow lands on a few operations of one
    repeat; the best of two leaves it out (Chen & Revels, "Robust
    benchmarking in noisy environments", arXiv:1608.04295)."""
    if repeats > 1 and len(seconds) % repeats == 0:
        pairs = repeats // 2
        seconds = seconds[: len(seconds) // repeats * 2 * pairs]
        seconds = seconds.reshape(pairs, 2, -1).min(axis=1).ravel()
    return {f"{prefix}_p50_ms": float(np.median(seconds)) * 1e3,
            f"{prefix}_p99_ms": float(np.percentile(seconds, 99)) * 1e3}


def response_ok(collection, k: int) -> bool:
    """k members, similarity non-increasing down the list."""
    if collection is None or len(collection.members) != k:
        return False
    sims = [sim for _, sim in collection.members]
    return all(a >= b for a, b in zip(sims, sims[1:]))


def timed_collection(ctx: Context, topic, txt_encoder, index, k: int = K):
    """One build_collection request and its operation record; a raised
    error is a failed response."""
    began = ctx.clock.began()
    try:
        collection = collections_.build_collection(topic, txt_encoder, index, k=k)
    except Exception:
        collection = None
    return collection, ctx.clock.ended(began)


def recall_at_10(index, vectors: dict[int, np.ndarray], probes: np.ndarray) -> float:
    """Mean overlap of index top-10 with the brute-force top-10."""
    hits = []
    for probe in probes:
        exact = {s for s, _ in hnsw.brute_force_search(vectors, probe, K)}
        approx = {s for s, _ in index.search(probe, K)}
        hits.append(len(exact & approx) / len(exact))
    return float(np.mean(hits))


def intent_rate(collections: list, corpus, txt_encoder, judged: int) -> float:
    judge = collections_.embedding_judge(txt_encoder, threshold=0.5)
    step = max(1, len(collections) // judged)
    sample = collections[::step][:judged]
    return float(np.mean([collections_.intent_satisfying_rate(c, corpus, judge)[0] for c in sample]))


def tower_correct_rank(corpus, sidecar, img_vectors: dict[int, np.ndarray], txt_encoder,
                       n: int, seed: int) -> float:
    """Share of (pin, same-cluster query, other-cluster query) triplets that the
    serving towers score in the right order: img(pin) . txt(query)."""
    rng = np.random.default_rng([seed, 3])
    by_cluster: dict[int, list] = {}
    for q in corpus.queries:
        by_cluster.setdefault(sidecar["query_cluster"][q.text], []).append(q)
    clusters = sorted(by_cluster)
    signatures = sorted(img_vectors)
    right = 0
    for i in rng.choice(len(signatures), size=min(n, len(signatures)), replace=False):
        sig = signatures[int(i)]
        own = sidecar["pin_cluster"][sig]
        other = clusters[(clusters.index(own) + 1 + int(rng.integers(len(clusters) - 1))) % len(clusters)]
        pos = by_cluster[own][int(rng.integers(len(by_cluster[own])))]
        neg = by_cluster[other][int(rng.integers(len(by_cluster[other])))]
        e_pos, e_neg = txt_encoder.encode_batch(np.stack([pos.embedding, neg.embedding]))
        right += float(img_vectors[sig] @ e_pos) > float(img_vectors[sig] @ e_neg)
    return right / min(n, len(signatures))


def jittered(query, tag: str, rng: np.random.Generator, scale: float = 0.15):
    """A new topic near ``query``: same words plus a tag, perturbed embedding."""
    noise = rng.standard_normal(query.embedding.shape) * (scale / np.sqrt(query.embedding.size))
    return core.QueryRecord(
        text=f"{query.text} {tag}",
        category=query.category,
        embedding=core.l2_normalize(query.embedding + noise),
    )


@dataclass
class Served:
    """A trained encoder pair and the corpus encoded into an index."""

    corpus: object
    sidecar: dict
    txt: object
    index: object  # None unless built
    vectors: dict[int, np.ndarray]


def build_served(ctx: Context, n_pins: int, inserts: list[tuple] | None = None) -> Served:
    """Corpus, pinclip towers and encoded pins; with ``inserts``, also the
    index of every pin, appending each insert's operation record to that list."""
    sizes = ctx.sizes
    corpus, sidecar = synth.generate_corpus(
        synth.SynthConfig(n_pins=n_pins, n_clusters=sizes.n_clusters, seed=ctx.seed)
    )
    trained = encoders.train_encoder(
        corpus,
        "pinclip",
        encoders.TrainConfig(
            hidden_dims=[],
            output_dim=48,
            steps=sizes.encoder_steps,
            batch_size=64,
            learning_rate=0.05,
            temperature=0.07,
            seed=core.subseed(ctx.seed, "encoder"),
        ),
    )
    img, txt = trained.encoders["img"], trained.encoders["txt"]
    signatures = sorted(corpus.pins)
    matrix = img.encode_batch(np.stack([corpus.pins[s].visual_embedding for s in signatures]))
    vectors = dict(zip(signatures, matrix))
    index = None
    if inserts is not None:
        index = hnsw.HnswIndex(dim=matrix.shape[1], seed=core.subseed(ctx.seed, "index"))
        for signature, row in zip(signatures, matrix):
            began = ctx.clock.began()
            index.insert(signature, row)
            inserts.append(ctx.clock.ended(began))
    return Served(corpus, sidecar, txt, index, vectors)


def timed_setup(ctx: Context, build, setups: list[tuple[float, float]]):
    """Run ``build`` once, appending its (start, end) to ``setups``."""
    with ctx.request("setup"):
        start = time.perf_counter()
        result = build()
        setups.append((start, time.perf_counter()))
    return result


# ---------------------------------------------------------------- workloads


@contextlib.contextmanager
def index_latency_probes(ctx: Context, inserts: list[tuple], searches: list[tuple]):
    """Record operation records of HnswIndex.insert/search calls made on the
    main thread inside run_pipeline, from a wrapper at the class attribute,
    restored on exit.

    Calls from the build-collections worker pool are not timed: those threads
    take turns holding the GIL, so their wall time is mostly waiting on each
    other and swings with how the host schedules its cores."""
    originals = {"insert": (hnsw.HnswIndex.insert, inserts),
                 "search": (hnsw.HnswIndex.search, searches)}

    def probe(fn, sink):
        def timed(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            began = ctx.clock.began()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(ctx.clock.ended(began))
        return timed

    for name, (fn, sink) in originals.items():
        setattr(hnsw.HnswIndex, name, probe(fn, sink))
    try:
        yield
    finally:
        for name, (fn, _) in originals.items():
            setattr(hnsw.HnswIndex, name, fn)


def import_interval(ctx: Context) -> tuple[float, float]:
    """A fresh interpreter importing the pipeline: what the batch job pays
    before its first stage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ctx.root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import geoforge.pipeline"],
        env=env, cwd=ctx.root, check=True,
    )
    return start, time.perf_counter()


def pipeline_batch(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    out = Outcome(metrics={})
    imports: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    inserts: list[tuple[float, float, float]] = []
    searches: list[tuple[float, float, float]] = []
    first_checksums = None
    evals = []
    with ctx.clock, index_latency_probes(ctx, inserts, searches):
        imports += [import_interval(ctx) for _ in range(sizes.import_samples)]
        budget_start = time.perf_counter()
        while True:
            config = pipeline.PipelineConfig(
                out_dir=ctx.workdir / f"pipeline-{len(passes)}", seed=ctx.seed, **sizes.pipeline
            )
            with ctx.request("pipeline"):
                start = time.perf_counter()
                report, ok = pipeline.run_pipeline(config)
                passes.append((start, time.perf_counter()))
            stages = report["stages"]
            passed = ok and len(stages) == len(pipeline.STAGE_ORDER) and all(
                s["status"] == "ok" for s in stages.values()
            )
            first_checksums = first_checksums or report["checksums"]
            passed = passed and bool(report["checksums"]) and report["checksums"] == first_checksums
            out.attempted += 1
            out.failed += not passed
            if passed:
                evals.append(stages["eval"]["metrics"])
            elapsed = time.perf_counter() - budget_start
            if ctx.fixed or (len(passes) >= 2 and elapsed >= ctx.seconds):
                break
    if not evals:
        out.checks.append("no pipeline pass succeeded")
        evals = [{"recall_at_10": 0.0, "correct_rank": 0.0, "intent_satisfying_rate_mean": 0.0}]
    pipeline_s = float(np.median(ctx.durations(passes)))
    config = pipeline.PipelineConfig(**sizes.pipeline)
    out.metrics = {
        "setup_s": float(np.median(ctx.durations(imports))),
        "pipeline_s": pipeline_s,
        **latency_metrics("search", ctx.op_durations(searches), len(passes)),
        **latency_metrics("insert", ctx.op_durations(inserts), len(passes)),
        "ops_per_s": config.n_pins / pipeline_s,
        "recall_at_10": float(np.median([e["recall_at_10"] for e in evals])),
        "correct_rank": float(np.median([e["correct_rank"] for e in evals])),
        "intent_rate": float(np.median([e["intent_satisfying_rate_mean"] for e in evals])),
    }
    out.info = {
        "passes": len(passes),
        "pins": config.n_pins,
        "clusters": config.n_clusters,
        "index_size": config.n_pins,
        "search_samples": len(searches),
        "insert_samples": len(inserts),
        "insert_to_search": round(len(inserts) / max(1, len(searches)), 3),
        "repeat_share": None,
        "checksums": first_checksums,
    }
    return out


def topic_pool(corpus, variants: int, seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    base = [q for q in corpus.queries if q.embedding is not None]
    return base + [jittered(q, f"v{j}", rng) for j in range(1, variants + 1) for q in base]


def serve_topics(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    out = Outcome(metrics={})
    setups: list[tuple[float, float]] = []
    inserts: list[tuple[float, float, float]] = []
    requests: list[tuple[float, float, float]] = []
    segments: list[tuple[float, float]] = []  # request loops, between batch passes
    passes: list[tuple[float, float]] = []
    seen: set[int] = set()
    repeats = 0
    with ctx.clock:
        served = timed_setup(ctx, lambda: build_served(ctx, sizes.serve_pins, inserts), setups)
        pool = topic_pool(served.corpus, sizes.topic_variants, ctx.seed)
        # Zipf-like popularity over a seeded ranking of the pool
        rng = np.random.default_rng([ctx.seed, 2])
        weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_S
        ranking = rng.permutation(len(pool))
        draws: list[int] = []

        def topic_at(n: int) -> int:
            while n >= len(draws):
                draws.extend(ranking[rng.choice(len(pool), size=4096, p=weights / weights.sum())].tolist())
            return draws[n]

        # The timed phase alternates request loops with batch passes.
        for segment in range(1, sizes.batch_passes + 1):
            start = time.perf_counter()
            deadline = start + ctx.seconds / sizes.batch_passes
            fixed_end = sizes.serve_fixed_requests * segment // sizes.batch_passes
            while (len(requests) < fixed_end) if ctx.fixed else (time.perf_counter() < deadline):
                t = topic_at(len(requests))
                with ctx.request("request"):
                    collection, record = timed_collection(ctx, pool[t], served.txt, served.index)
                requests.append(record)
                out.attempted += 1
                out.failed += not response_ok(collection, K)
                repeats += t in seen
                seen.add(t)
            segments.append((start, time.perf_counter()))

            # batch pass: rebuild every topic's collection once, as the
            # build-collections stage does
            with ctx.request("batch"):
                start = time.perf_counter()
                built = [timed_collection(ctx, topic, served.txt, served.index)[0] for topic in pool]
                passes.append((start, time.perf_counter()))
            if not all(response_ok(c, K) for c in built):
                out.checks.append(f"batch pass {segment} returned a malformed collection")
                built = [c for c in built if c is not None]

        # later set-ups build the same index again: more set-up and insert samples
        for _ in range(0 if ctx.fixed else SERVE_SETUPS - 1):
            timed_setup(ctx, lambda: build_served(ctx, sizes.serve_pins, inserts), setups)

    probes_rng = np.random.default_rng([ctx.seed, 4])
    picks = probes_rng.choice(len(pool), size=min(sizes.probes, len(pool)), replace=False)
    probes = served.txt.encode_batch(np.stack([pool[int(i)].embedding for i in picks]))
    out.metrics = {
        "setup_s": float(np.median(ctx.durations(setups))),
        "pipeline_s": float(np.median(ctx.durations(passes))),
        **latency_metrics("search", ctx.op_durations(requests)),
        **latency_metrics("insert", ctx.op_durations(inserts), len(setups)),
        "ops_per_s": len(requests) / float(ctx.durations(segments).sum()),
        "recall_at_10": recall_at_10(served.index, served.vectors, probes),
        "correct_rank": tower_correct_rank(
            served.corpus, served.sidecar, served.vectors, served.txt, sizes.triplets, ctx.seed
        ),
        "intent_rate": intent_rate(built, served.corpus, served.txt, sizes.judged),
    }
    out.info = {
        "pins": len(served.corpus.pins),
        "clusters": sizes.n_clusters,
        "index_size": len(served.index),
        "topic_pool": len(pool),
        "zipf_s": ZIPF_S,
        "requests": len(requests),
        "distinct_topics": len(seen),
        "repeat_share": round(repeats / max(1, len(requests)), 4),
        "search_samples": len(requests),
        "insert_samples": len(inserts),
        "insert_to_search": 0.0,
        "setups": len(setups),
    }
    return out


def ingest_mixed(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    out = Outcome(metrics={})
    setups: list[tuple[float, float]] = []
    inserts: list[tuple[float, float, float]] = []
    searches: list[tuple[float, float, float]] = []
    rounds: list[tuple[float, float]] = []
    texts: set[str] = set()
    with ctx.clock:
        served = timed_setup(ctx, lambda: build_served(ctx, sizes.ingest_pins), setups)
        base = [q for q in served.corpus.queries if q.embedding is not None]
        signatures = sorted(served.vectors)
        budget_start = time.perf_counter()
        while True:
            round_no = len(rounds)
            rng = np.random.default_rng([ctx.seed, 5, round_no])
            # every corpus query in turn, in a seeded order, so that each
            # round's searches cover the same mix of easy and hard topics
            order = rng.permutation(len(base))
            index = hnsw.HnswIndex(dim=served.txt.output_dim, seed=core.subseed(ctx.seed, "index"))
            round_collections = []
            start = time.perf_counter()
            for i, signature in enumerate(signatures, 1):
                with ctx.request("insert"):
                    began = ctx.clock.began()
                    try:
                        index.insert(signature, served.vectors[signature])
                        inserted = True
                    except Exception:
                        inserted = False
                    inserts.append(ctx.clock.ended(began))
                out.attempted += 1
                out.failed += not inserted
                if i % SEARCH_EVERY == 0:
                    # a topic that never repeats: a fresh perturbation, a fresh tag
                    query = base[order[(i // SEARCH_EVERY - 1) % len(base)]]
                    topic = jittered(query, f"r{round_no} n{i}", rng)
                    texts.add(topic.text)
                    with ctx.request("search"):
                        collection, record = timed_collection(ctx, topic, served.txt, index)
                    searches.append(record)
                    out.attempted += 1
                    out.failed += not response_ok(collection, min(K, len(index)))
                    if collection is not None:
                        round_collections.append(collection)
            rounds.append((start, time.perf_counter()))
            try:
                index.check_invariants()
            except Exception as exc:
                out.checks.append(f"round {round_no}: {exc}")
            if len(index) != len(signatures):
                out.checks.append(f"round {round_no}: {len(index)} elements after {len(signatures)} inserts")
            if ctx.fixed or (len(rounds) >= INGEST_MIN_ROUNDS
                             and time.perf_counter() - budget_start >= ctx.seconds):
                break

        for _ in range(0 if ctx.fixed else sizes.ingest_setups - 1):
            timed_setup(ctx, lambda: build_served(ctx, sizes.ingest_pins), setups)

    probes_rng = np.random.default_rng([ctx.seed, 4])
    picks = probes_rng.choice(len(round_collections), size=min(sizes.probes, len(round_collections)), replace=False)
    probes = served.txt.encode_batch(np.stack([round_collections[int(i)].topic.embedding for i in picks]))
    round_seconds = ctx.durations(rounds)
    out.metrics = {
        "setup_s": float(np.median(ctx.durations(setups))),
        "pipeline_s": float(np.median(round_seconds)),
        **latency_metrics("search", ctx.op_durations(searches)),
        **latency_metrics("insert", ctx.op_durations(inserts), len(rounds)),
        "ops_per_s": (len(inserts) + len(searches)) / float(round_seconds.sum()),
        "recall_at_10": recall_at_10(index, served.vectors, probes),
        "correct_rank": tower_correct_rank(
            served.corpus, served.sidecar, served.vectors, served.txt, sizes.triplets, ctx.seed
        ),
        "intent_rate": intent_rate(round_collections, served.corpus, served.txt, sizes.judged),
    }
    out.info = {
        "pins": len(served.corpus.pins),
        "clusters": sizes.n_clusters,
        "index_size": len(index),
        "rounds": len(rounds),
        "search_samples": len(searches),
        "insert_samples": len(inserts),
        "insert_to_search": float(SEARCH_EVERY),
        "repeat_share": round(1 - len(texts) / max(1, len(searches)), 4),
        "setups": len(setups),
    }
    return out


WORKLOADS = {
    "pipeline_batch": pipeline_batch,
    "serve_topics": serve_topics,
    "ingest_mixed": ingest_mixed,
}

"""Stage orchestration: every stage reads file artifacts, writes file
artifacts plus checksums, and can be re-run in isolation. Within one
run_pipeline call the corpus is loaded once and shared by every stage."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from . import agent as agent_mod
from . import collections_ as coll_mod
from . import curation, encoders, hnsw, linkgraph, ranker, synth
from .core import (
    Corpus,
    CorpusManifest,
    LabeledPair,
    QueryRecord,
    file_checksum,
    load_corpus,
    read_jsonl,
    subseed,
    write_jsonl,
)


STAGE_ORDER = [
    "gen-corpus",
    "curate",
    "train-encoder",
    "build-index",
    "train-ranker",
    "build-collections",
    "link",
    "agent-run",
    "eval",
]

STAGE_DEPS = {
    "gen-corpus": [],
    "curate": ["gen-corpus"],
    "train-encoder": ["gen-corpus"],
    "build-index": ["train-encoder"],
    "train-ranker": ["curate"],
    "build-collections": ["build-index", "train-ranker"],
    "link": ["build-collections"],
    "agent-run": ["build-index"],
    "eval": ["link"],
}


class PipelineError(RuntimeError):
    pass


class DependencyError(PipelineError):
    pass


@dataclass
class PipelineConfig:
    out_dir: Path = Path("geo-out")
    seed: int = 0
    n_pins: int = 1000
    n_clusters: int = 8
    d_v: int = 64
    d_t: int = 48
    encoder_steps: int = 200
    encoder_batch: int = 64
    encoder_dim: int = 48
    encoder_lr: float = 0.05
    temperature: float = 0.07
    ef_construction: int = 200
    ef_search: int = 100
    hnsw_m: int = 16
    ranker_steps: int = 1500
    ranker_batch: int = 64
    ranker_lr: float = 0.1
    ranker_width_mult: float = 0.125
    margin: float = 0.95
    neg_per_pos: int = 2
    annotations_per_pin: int = 3
    annotation_threshold: float = 0.6
    collection_k: int = 10
    judge_threshold: float = 0.5
    base_url: str = "https://example.com"
    agent_min_count: int = 25
    agent_velocity_floor: float = 0.2

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "PipelineConfig":
        """key=value config file; unknown keys are rejected."""
        known = {f.name: f.type for f in fields(cls)}
        kv: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep:
                raise PipelineError(f"{path}:{lineno}: expected key=value")
            if key not in known:
                raise PipelineError(f"{path}:{lineno}: unknown config key {key!r}")
            kv[key] = value.strip()
        config = cls(**overrides)
        for key, raw in kv.items():
            if key in overrides:
                continue
            current = getattr(config, key)
            if isinstance(current, Path):
                setattr(config, key, Path(raw))
            elif isinstance(current, bool):
                setattr(config, key, raw.lower() in ("1", "true", "yes"))
            elif isinstance(current, int):
                setattr(config, key, int(raw))
            elif isinstance(current, float):
                setattr(config, key, float(raw))
            else:
                setattr(config, key, raw)
        return config


@dataclass
class Workspace:
    """Artifact paths under one output directory. The corpus is read from
    disk on first use and kept, so a workspace loads it at most once."""

    out: Path

    def __post_init__(self) -> None:
        self.out = Path(self.out)
        self.corpus: Corpus | None = None

    @property
    def corpus_dir(self) -> Path: return self.out / "corpus"
    @property
    def manifest(self) -> Path: return self.corpus_dir / "manifest.txt"
    @property
    def labeled_pairs(self) -> Path: return self.out / "labeled_pairs.jsonl"
    @property
    def curation_report(self) -> Path: return self.out / "curation_report.json"
    @property
    def encoder_img(self) -> Path: return self.out / "encoder_img.bin"
    @property
    def encoder_txt(self) -> Path: return self.out / "encoder_txt.bin"
    @property
    def encoder_log(self) -> Path: return self.out / "encoder_train_log.csv"
    @property
    def index_file(self) -> Path: return self.out / "index.bin"
    @property
    def ranker_file(self) -> Path: return self.out / "ranker.bin"
    @property
    def ranker_log(self) -> Path: return self.out / "ranker_train_log.csv"
    @property
    def annotations(self) -> Path: return self.out / "annotations.jsonl"
    @property
    def collections(self) -> Path: return self.out / "collections.jsonl"
    @property
    def pages_dir(self) -> Path: return self.out / "pages"
    @property
    def graph_file(self) -> Path: return self.out / "graph.jsonl"
    @property
    def link_report(self) -> Path: return self.out / "link_report.json"
    @property
    def sitemap(self) -> Path: return self.out / "sitemap.xml"
    @property
    def trace(self) -> Path: return self.out / "agent_trace.jsonl"
    @property
    def trend_queries(self) -> Path: return self.out / "trend_queries.jsonl"
    @property
    def long_memory(self) -> Path: return self.out / "long_memory.json"
    @property
    def report(self) -> Path: return self.out / "report.json"


def _require(path: Path, stage: str, produced_by: str) -> None:
    if not path.exists():
        raise DependencyError(
            f"stage {stage!r} needs missing artifact {path} "
            f"(produced by stage {produced_by!r})"
        )


def _load_corpus(ws: Workspace, stage: str) -> Corpus:
    if ws.corpus is None:
        _require(ws.manifest, stage, "gen-corpus")
        ws.corpus = load_corpus(CorpusManifest.load(ws.manifest))
    return ws.corpus


def _load_navboost(ws: Workspace) -> dict[tuple[str, int], float]:
    path = ws.corpus_dir / "navboost.jsonl"
    if not path.exists():
        return {}
    return {
        (obj["query_text"], int(obj["pin_signature"])): float(obj["coverage"])
        for _, obj in read_jsonl(path)
    }


def _load_labeled(ws: Workspace, stage: str) -> list[LabeledPair]:
    _require(ws.labeled_pairs, stage, "curate")
    return [LabeledPair.from_json(obj) for _, obj in read_jsonl(ws.labeled_pairs)]


def stage_gen_corpus(config: PipelineConfig, ws: Workspace) -> dict:
    synth_config = synth.SynthConfig(
        n_pins=config.n_pins,
        n_clusters=config.n_clusters,
        d_v=config.d_v,
        d_t=config.d_t,
        seed=config.seed,
    )
    manifest = synth.write_corpus_bundle(ws.corpus_dir, synth_config)
    corpus = ws.corpus = load_corpus(manifest)
    return {
        "pins": len(corpus.pins),
        "queries": len(corpus.queries),
        "engagement": len(corpus.engagement),
    }


def stage_curate(config: PipelineConfig, ws: Workspace) -> dict:
    corpus = _load_corpus(ws, "curate")
    labeled, report = curation.curate(
        corpus.queries,
        corpus.engagement,
        _load_navboost(ws),
        neg_per_pos=config.neg_per_pos,
        seed=subseed(config.seed, "curation"),
    )
    write_jsonl(ws.labeled_pairs, (p.to_json() for p in labeled))
    ws.curation_report.write_text(json.dumps(report, indent=2), encoding="utf-8")
    return report


def stage_train_encoder(config: PipelineConfig, ws: Workspace) -> dict:
    corpus = _load_corpus(ws, "train-encoder")
    result = encoders.train_encoder(
        corpus,
        "pinclip",
        encoders.TrainConfig(
            hidden_dims=[],
            output_dim=config.encoder_dim,
            steps=config.encoder_steps,
            batch_size=config.encoder_batch,
            learning_rate=config.encoder_lr,
            temperature=config.temperature,
            seed=subseed(config.seed, "encoder"),
        ),
    )
    encoders.save_model(result.encoders["img"], ws.encoder_img)
    encoders.save_model(result.encoders["txt"], ws.encoder_txt)
    encoders.write_train_log(result.log, ws.encoder_log)
    return {
        "initial_loss": result.log[0][1],
        "final_loss": result.log[-1][1],
        "steps": len(result.log),
    }


def stage_build_index(config: PipelineConfig, ws: Workspace) -> dict:
    corpus = _load_corpus(ws, "build-index")
    _require(ws.encoder_img, "build-index", "train-encoder")
    img_encoder = encoders.load_model(ws.encoder_img)
    signatures = sorted(corpus.pins)
    matrix = img_encoder.encode_batch(
        np.stack([corpus.pins[s].visual_embedding for s in signatures])
    )
    index = hnsw.HnswIndex(
        dim=matrix.shape[1],
        params=hnsw.HnswParams(
            M=config.hnsw_m,
            ef_construction=config.ef_construction,
            ef_search=config.ef_search,
        ),
        seed=subseed(config.seed, "index"),
    )
    for signature, row in zip(signatures, matrix):
        index.insert(signature, row)
    index.check_invariants()
    index.save(ws.index_file)
    return {"elements": len(index), "layers": index.max_level + 1}


def _triplets_from_labels(
    corpus: Corpus, labeled: list[LabeledPair]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    by_pin: dict[int, tuple[list[QueryRecord], list[QueryRecord]]] = {}
    for pair in labeled:
        pos, neg = by_pin.setdefault(pair.pin_signature, ([], []))
        (pos if pair.label == 1 else neg).append(pair.query)
    triplets = []
    for signature in sorted(by_pin):
        pos, neg = by_pin[signature]
        if signature not in corpus.pins:
            continue
        feats_pin = ranker.pin_features(corpus.pins[signature])
        for i in range(min(len(pos), len(neg))):
            triplets.append(
                (
                    feats_pin,
                    ranker.query_features(pos[i]),
                    ranker.query_features(neg[i]),
                )
            )
    return triplets


def annotate_pins(
    pin_embeddings: dict[int, np.ndarray],
    queries: list[QueryRecord],
    e_queries: np.ndarray,
    per_pin: int,
) -> list[dict]:
    """Annotation records for the top-per_pin queries of every pin, in
    signature order. A query scores e_queries @ e_pin; ties break on text."""
    records = []
    for signature in sorted(pin_embeddings):
        scores = e_queries @ pin_embeddings[signature]
        order = sorted(range(len(queries)), key=lambda i: (-scores[i], queries[i].text))
        for rank_pos, i in enumerate(order[:per_pin], 1):
            records.append(
                {
                    "pin_signature": signature,
                    "query_text": queries[i].text,
                    "score": float(scores[i]),
                    "rank": rank_pos,
                }
            )
    return records


def stage_train_ranker(config: PipelineConfig, ws: Workspace) -> dict:
    corpus = _load_corpus(ws, "train-ranker")
    labeled = _load_labeled(ws, "train-ranker")
    triplets = _triplets_from_labels(corpus, labeled)
    if not triplets:
        raise PipelineError("no training triplets derivable from labeled pairs")
    tower_config = ranker.TowerConfig(
        d_v=corpus.d_v,
        d_t=corpus.d_t,
        margin=config.margin,
        width_mult=config.ranker_width_mult,
    )
    model, log = ranker.train_ranker(
        triplets,
        tower_config,
        ranker.RankerTrainConfig(
            steps=config.ranker_steps,
            batch_size=config.ranker_batch,
            learning_rate=config.ranker_lr,
            seed=subseed(config.seed, "ranker"),
        ),
    )
    ranker.save_ranker(model, ws.ranker_file)
    with open(ws.ranker_log, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in log:
            fh.write(f"{step},{loss:.10g}\n")

    # annotate every pin with its top-scoring deduped queries
    deduped = curation.dedup_queries(corpus.queries)
    annotations = annotate_pins(
        {
            s: model.embed_pin(ranker.pin_features(pin))[0]
            for s, pin in corpus.pins.items()
        },
        deduped,
        model.embed_query(np.stack([ranker.query_features(q) for q in deduped])),
        config.annotations_per_pin,
    )
    write_jsonl(ws.annotations, annotations)
    return {
        "triplets": len(triplets),
        "final_loss": log[-1][1],
        "correct_rank": ranker.correct_rank(model, triplets),
        "annotations": len(annotations),
    }


def _load_annotations(ws: Workspace, stage: str) -> list[dict]:
    _require(ws.annotations, stage, "train-ranker")
    return [obj for _, obj in read_jsonl(ws.annotations)]


def annotation_map(
    records: list[dict], threshold: float, per_pin: int
) -> dict[int, list[str]]:
    by_pin: dict[int, list[str]] = {}
    for obj in records:
        if obj["score"] >= threshold and obj["rank"] <= per_pin:
            by_pin.setdefault(int(obj["pin_signature"]), []).append(obj["query_text"])
    return by_pin


def build_collections(
    config: PipelineConfig,
    topic_texts: Iterable[str],
    corpus: Corpus,
    txt_encoder: encoders.EncoderModel,
    index: hnsw.HnswIndex,
) -> list[coll_mod.Collection]:
    """One collection per distinct slug, in sorted topic-text order. Texts
    that are not corpus queries with an embedding are skipped. Runs serially:
    the search loop holds the GIL, so a thread pool only slowed it down."""
    by_text = {q.text: q for q in corpus.queries}
    collections = []
    seen = set()
    for text in sorted(topic_texts):
        topic = by_text.get(text)
        if topic is None or topic.embedding is None:
            continue
        collection = coll_mod.build_collection(
            topic, txt_encoder, index, k=config.collection_k,
            ef_search=config.ef_search,
        )
        if collection.slug in seen:
            continue
        seen.add(collection.slug)
        collections.append(collection)
    return collections


def stage_build_collections(config: PipelineConfig, ws: Workspace) -> dict:
    corpus = _load_corpus(ws, "build-collections")
    _require(ws.index_file, "build-collections", "build-index")
    _require(ws.encoder_txt, "build-collections", "train-encoder")
    index = hnsw.HnswIndex.load(ws.index_file)
    txt_encoder = encoders.load_model(ws.encoder_txt)
    records = _load_annotations(ws, "build-collections")
    collections = build_collections(
        config,
        {r["query_text"] for r in records if r["score"] >= config.annotation_threshold},
        corpus,
        txt_encoder,
        index,
    )
    coll_mod.write_collections(collections, ws.collections)
    coll_mod.emit_pages(collections, corpus, ws.pages_dir)
    return {"collections": len(collections)}


def stage_link(config: PipelineConfig, ws: Workspace) -> dict:
    _require(ws.collections, "link", "build-collections")
    collections = coll_mod.load_collections(ws.collections)
    records = _load_annotations(ws, "link")
    annotations = annotation_map(
        records, config.annotation_threshold, config.annotations_per_pin
    )
    graph, dangling = linkgraph.build_link_graph(annotations, collections)
    scores = linkgraph.pagerank(graph)
    report = linkgraph.link_report(graph, scores)
    report["dangling_annotations"] = len(dangling)
    linkgraph.write_graph(graph, ws.graph_file)
    ws.link_report.write_text(json.dumps(report, indent=2), encoding="utf-8")
    ws.sitemap.write_text(
        linkgraph.export_sitemap(graph, config.base_url), encoding="utf-8"
    )
    return {
        "nodes": report["nodes"],
        "edges": report["edges"],
        "orphan_pins": report["orphan_pins"],
        "dangling_annotations": len(dangling),
    }


def stage_agent_run(config: PipelineConfig, ws: Workspace) -> dict:
    corpus = _load_corpus(ws, "agent-run")
    _require(ws.index_file, "agent-run", "build-index")
    _require(ws.encoder_txt, "agent-run", "train-encoder")
    trends_path = ws.corpus_dir / "trends.jsonl"
    _require(trends_path, "agent-run", "gen-corpus")
    index = hnsw.HnswIndex.load(ws.index_file)
    txt_encoder = encoders.load_model(ws.encoder_txt)
    taxonomy = [
        (term, cat)
        for term, cat in zip(synth.CLUSTER_TERMS, synth.CLUSTER_CATEGORIES)
    ][: config.n_clusters]
    agent_config = agent_mod.AgentConfig(
        min_count=config.agent_min_count,
        velocity_floor=config.agent_velocity_floor,
    )
    tools = agent_mod.default_tools(
        corpus, index, txt_encoder, taxonomy, trends_path, agent_config
    )
    memory = agent_mod.load_long_memory(ws.long_memory)
    queries, trace, state = agent_mod.run_episode(
        agent_config, tools, memory, seed=subseed(config.seed, "agent")
    )
    agent_mod.write_trace(trace, ws.trace)
    write_jsonl(ws.trend_queries, (q.to_json() for q in queries))
    agent_mod.save_long_memory(state.long_memory, ws.long_memory)
    return {"emitted_queries": len(queries), "trace_steps": len(trace)}


def ablation_study(
    config: PipelineConfig,
    ws: Workspace,
    corpus: Corpus,
    index: hnsw.HnswIndex,
    img_encoder: encoders.EncoderModel,
    txt_encoder: encoders.EncoderModel,
) -> dict:
    """Directional link-equity comparison across the three linking modes.

    Enabled uses ranker-selected annotations; control selects annotations by
    raw encoder cosine between image- and text-tower outputs; ablation drops
    annotations entirely (base-topic collections only, no pin links).
    """
    records = _load_annotations(ws, "eval")
    deduped = curation.dedup_queries(corpus.queries)

    # control annotations: raw cross-tower cosine, same threshold and budget
    control_records = annotate_pins(
        {s: img_encoder.encode(pin.visual_embedding) for s, pin in corpus.pins.items()},
        deduped,
        txt_encoder.encode_batch(np.stack([q.embedding for q in deduped])),
        config.annotations_per_pin,
    )

    def build_mode(
        annots: dict[int, list[str]], collections: list[coll_mod.Collection]
    ) -> dict:
        # every pin participates even when unlinked
        graph, _ = linkgraph.build_link_graph(
            {sig: annots.get(sig, []) for sig in corpus.pins}, collections
        )
        scores = linkgraph.pagerank(graph)
        coll_scores = [
            v for n, v in scores.scores.items() if n.startswith("collection:")
        ]
        report = linkgraph.link_report(graph, scores)
        return {
            "collections": len(collections),
            "mean_collection_authority": float(np.mean(coll_scores)) if coll_scores else 0.0,
            "orphan_pins": report["orphan_pins"],
        }

    enabled_map = annotation_map(records, config.annotation_threshold, config.annotations_per_pin)
    control_map = annotation_map(control_records, config.annotation_threshold, config.annotations_per_pin)
    # enabled and control share one collection universe so mean authority
    # compares linking quality, not collection counts
    shared = build_collections(
        config,
        {t for texts in enabled_map.values() for t in texts}
        | {t for texts in control_map.values() for t in texts},
        corpus,
        txt_encoder,
        index,
    )
    base = build_collections(
        config, synth.CLUSTER_TERMS[: config.n_clusters], corpus, txt_encoder, index
    )
    return {
        "enabled": build_mode(enabled_map, shared),
        "control": build_mode(control_map, shared),
        "ablation": build_mode({}, base),
    }


def stage_eval(config: PipelineConfig, ws: Workspace) -> dict:
    corpus = _load_corpus(ws, "eval")
    for path, producer in [
        (ws.index_file, "build-index"),
        (ws.ranker_file, "train-ranker"),
        (ws.collections, "build-collections"),
        (ws.link_report, "link"),
    ]:
        _require(path, "eval", producer)
    index = hnsw.HnswIndex.load(ws.index_file)
    img_encoder = encoders.load_model(ws.encoder_img)
    txt_encoder = encoders.load_model(ws.encoder_txt)
    model = ranker.load_ranker(ws.ranker_file)
    labeled = _load_labeled(ws, "eval")

    # recall@10 vs brute force over the indexed embeddings
    signatures = sorted(corpus.pins)
    matrix = img_encoder.encode_batch(
        np.stack([corpus.pins[s].visual_embedding for s in signatures])
    )
    vectors = {s: row for s, row in zip(signatures, matrix)}
    rng = np.random.default_rng(subseed(config.seed, "eval"))
    probes = rng.choice(len(signatures), size=min(50, len(signatures)), replace=False)
    recalls = []
    for i in probes:
        query = matrix[int(i)]
        exact = {s for s, _ in hnsw.brute_force_search(vectors, query, 10)}
        approx = {s for s, _ in index.search(query, 10)}
        recalls.append(len(exact & approx) / len(exact))
    recall_at_10 = float(np.mean(recalls))

    triplets = _triplets_from_labels(corpus, labeled)
    rank_metric = ranker.correct_rank(model, triplets) if triplets else None

    collections = coll_mod.load_collections(ws.collections)
    judge = coll_mod.embedding_judge(txt_encoder, threshold=config.judge_threshold)
    rates = [
        coll_mod.intent_satisfying_rate(c, corpus, judge)[0] for c in collections
    ]
    link_summary = json.loads(ws.link_report.read_text(encoding="utf-8"))
    curation_summary = (
        json.loads(ws.curation_report.read_text(encoding="utf-8"))
        if ws.curation_report.exists()
        else None
    )
    encoder_losses = None
    if ws.encoder_log.exists():
        rows = ws.encoder_log.read_text(encoding="utf-8").strip().splitlines()[1:]
        encoder_losses = {
            "initial": float(rows[0].split(",")[1]),
            "final": float(rows[-1].split(",")[1]),
        }
    report = {
        "recall_at_10": recall_at_10,
        "correct_rank": rank_metric,
        "intent_satisfying_rate_mean": float(np.mean(rates)) if rates else None,
        "retention_branches": curation_summary["retention_branches"] if curation_summary else None,
        "encoder_loss": encoder_losses,
        "pagerank": link_summary["pagerank"],
        "orphan_pins": link_summary["orphan_pins"],
        "ablation": ablation_study(config, ws, corpus, index, img_encoder, txt_encoder),
    }
    return report


STAGE_FUNCS = {
    "gen-corpus": stage_gen_corpus,
    "curate": stage_curate,
    "train-encoder": stage_train_encoder,
    "build-index": stage_build_index,
    "train-ranker": stage_train_ranker,
    "build-collections": stage_build_collections,
    "link": stage_link,
    "agent-run": stage_agent_run,
    "eval": stage_eval,
}

STAGE_ARTIFACTS = {
    "gen-corpus": lambda ws: [ws.manifest, ws.corpus_dir / "pins.jsonl",
                              ws.corpus_dir / "queries.jsonl",
                              ws.corpus_dir / "engagement.jsonl",
                              ws.corpus_dir / "trends.jsonl"],
    "curate": lambda ws: [ws.labeled_pairs, ws.curation_report],
    "train-encoder": lambda ws: [ws.encoder_img, ws.encoder_txt, ws.encoder_log],
    "build-index": lambda ws: [ws.index_file],
    "train-ranker": lambda ws: [ws.ranker_file, ws.annotations],
    "build-collections": lambda ws: [ws.collections],
    "link": lambda ws: [ws.graph_file, ws.link_report, ws.sitemap],
    "agent-run": lambda ws: [ws.trace, ws.trend_queries, ws.long_memory],
    "eval": lambda ws: [],
}


def run_pipeline(
    config: PipelineConfig, stages: list[str] | None = None
) -> tuple[dict, bool]:
    """Run the requested stages in dependency order.

    A stage failure halts its dependents but independent stages continue.
    Returns (report, ok).
    """
    requested = stages or STAGE_ORDER
    for stage in requested:
        if stage not in STAGE_FUNCS:
            raise PipelineError(f"unknown stage {stage!r}")
    requested = [s for s in STAGE_ORDER if s in set(requested)]
    ws = Workspace(config.out_dir)
    ws.out.mkdir(parents=True, exist_ok=True)
    report: dict = {"seed": config.seed, "stages": {}, "checksums": {}}
    failed: set[str] = set()
    ok = True
    for stage in requested:
        blocked = [d for d in STAGE_DEPS[stage] if d in failed]
        if blocked:
            report["stages"][stage] = {"status": "skipped", "blocked_by": blocked}
            failed.add(stage)
            ok = False
            continue
        start = time.perf_counter()
        try:
            metrics = STAGE_FUNCS[stage](config, ws)
        except Exception as exc:
            report["stages"][stage] = {"status": "failed", "error": str(exc)}
            failed.add(stage)
            ok = False
            continue
        elapsed = time.perf_counter() - start
        report["stages"][stage] = {
            "status": "ok",
            "seconds": round(elapsed, 3),
            "metrics": metrics,
        }
        for artifact in STAGE_ARTIFACTS[stage](ws):
            if artifact.exists():
                report["checksums"][str(artifact.relative_to(ws.out))] = file_checksum(
                    artifact
                )
    ws.report.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    return report, ok

"""Stage orchestration: every stage reads file artifacts, writes file
artifacts plus checksums, and can be re-run in isolation. Within one
run_pipeline call each input that several stages read is parsed once."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from . import agent as agent_mod
from . import collections_ as coll_mod
from . import curation, encoders, hnsw, linkgraph, ranker, synth
from .core import (
    Corpus,
    CorpusError,
    CorpusManifest,
    LabeledPair,
    QueryRecord,
    file_checksum,
    load_corpus,
    read_json,
    read_key_values,
    read_records,
    subseed,
    write_jsonl,
    write_text,
    write_train_log,
)


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
        """key=value config file; an unknown key or an unparsable value
        raises PipelineError naming path:line."""
        values = read_key_values(path, CONFIG_KINDS, "config", PipelineError)
        return cls(**{**values, **overrides})


# each config key's type, for the config file and the command-line flags
CONFIG_KINDS = {f.name: type(f.default) for f in fields(PipelineConfig)}


@dataclass
class Workspace:
    """Artifact paths under one output directory, one attribute per
    ARTIFACTS name, and the stage inputs, each parsed from disk on first
    use and kept: a workspace parses an input at most once, and its
    readers must not mutate it."""

    out: Path

    def __post_init__(self) -> None:
        self.out = Path(self.out)

    @cached_property
    def corpus(self) -> Corpus:
        return load_corpus(CorpusManifest.load(self.manifest))

    @cached_property
    def index(self) -> hnsw.HnswIndex:
        return hnsw.HnswIndex.load(self.index_file)

    @cached_property
    def txt_encoder(self) -> encoders.EncoderModel:
        return encoders.load_model(self.encoder_txt)

    @cached_property
    def img_encoder(self) -> encoders.EncoderModel:
        return encoders.load_model(self.encoder_img)

    @cached_property
    def annotation_records(self) -> list[dict]:
        return read_records(self.annotations, _annotation, PipelineError)

    @cached_property
    def published_collections(self) -> list[coll_mod.Collection]:
        return coll_mod.load_collections(self.collections)

    @cached_property
    def triplets(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return _triplets_from_labels(self.corpus, _load_labeled(self, self.corpus))

    def __getattr__(self, name: str) -> Path:
        try:
            return self.out / ARTIFACTS[name][1]
        except KeyError:
            raise AttributeError(name) from None


# Every artifact a workspace names: its producing stage and its path under
# the output directory. A stage's outputs are the artifacts it produces, and
# run_pipeline checksums them after the stage; corpus_dir, pages_dir and
# report have no producer and are never checksummed.
ARTIFACTS = {
    "corpus_dir": (None, "corpus"),
    "manifest": ("gen-corpus", "corpus/manifest.txt"),
    "pins": ("gen-corpus", "corpus/pins.jsonl"),
    "queries": ("gen-corpus", "corpus/queries.jsonl"),
    "engagement": ("gen-corpus", "corpus/engagement.jsonl"),
    "trends": ("gen-corpus", "corpus/trends.jsonl"),
    "navboost": ("gen-corpus", "corpus/navboost.jsonl"),
    "labeled_pairs": ("curate", "labeled_pairs.jsonl"),
    "curation_report": ("curate", "curation_report.json"),
    "encoder_img": ("train-encoder", "encoder_img.bin"),
    "encoder_txt": ("train-encoder", "encoder_txt.bin"),
    "encoder_log": ("train-encoder", "encoder_train_log.csv"),
    "index_file": ("build-index", "index.bin"),
    "ranker_file": ("train-ranker", "ranker.bin"),
    "ranker_log": ("train-ranker", "ranker_train_log.csv"),
    "annotations": ("train-ranker", "annotations.jsonl"),
    "collections": ("build-collections", "collections.jsonl"),
    "pages_dir": (None, "pages"),
    "graph_file": ("link", "graph.jsonl"),
    "link_report": ("link", "link_report.json"),
    "sitemap": ("link", "sitemap.xml"),
    "trace": ("agent-run", "agent_trace.jsonl"),
    "trend_queries": ("agent-run", "trend_queries.jsonl"),
    # the next agent-run reads long_memory back when it is there
    "long_memory": ("agent-run", "long_memory.json"),
    "eval_report": ("eval", "eval_report.json"),
    "report": (None, "report.json"),
}
# What every stage reads, as ARTIFACTS names; run_pipeline checks a stage's
# inputs before it calls the stage.
STAGE_INPUTS = {
    "gen-corpus": [],
    "curate": ["manifest", "navboost"],
    "train-encoder": ["manifest"],
    "build-index": ["manifest", "encoder_img"],
    "train-ranker": ["manifest", "labeled_pairs"],
    "build-collections": ["manifest", "index_file", "encoder_txt", "annotations"],
    "link": ["collections", "annotations"],
    "agent-run": ["manifest", "index_file", "encoder_txt", "trends"],
    "eval": ["manifest", "curation_report", "encoder_txt", "encoder_log", "index_file",
             "ranker_file", "collections", "link_report", "labeled_pairs", "annotations"],
}
STAGE_OUTPUTS = {
    stage: [name for name, (producer, _) in ARTIFACTS.items() if producer == stage]
    for stage in STAGE_INPUTS
}
PRODUCERS = {name: stage for name, (stage, _) in ARTIFACTS.items() if stage}


def _check_inputs(stage: str, ws: Workspace) -> None:
    for name in STAGE_INPUTS[stage]:
        path = getattr(ws, name)
        if not path.exists():
            raise DependencyError(
                f"stage {stage!r} needs missing artifact {path} "
                f"(produced by stage {PRODUCERS[name]!r})"
            )


def _load_labeled(ws: Workspace, corpus: Corpus) -> list[LabeledPair]:
    by_text = {q.text: q for q in corpus.queries}
    return read_records(
        ws.labeled_pairs, lambda obj: LabeledPair.from_json(obj, by_text), CorpusError
    )


def stage_gen_corpus(config: PipelineConfig, ws: Workspace) -> dict:
    """Generate the bundled synthetic corpus."""
    synth_config = synth.SynthConfig(
        n_pins=config.n_pins,
        n_clusters=config.n_clusters,
        d_v=config.d_v,
        d_t=config.d_t,
        seed=config.seed,
    )
    synth.write_corpus_bundle(ws.corpus_dir, synth_config)
    corpus = ws.corpus
    return {
        "pins": len(corpus.pins),
        "queries": len(corpus.queries),
        "engagement": len(corpus.engagement),
    }


def stage_curate(config: PipelineConfig, ws: Workspace) -> dict:
    """Filter engagement, label pairs, and deduplicate queries."""
    corpus = ws.corpus
    navboost = read_records(
        ws.navboost,
        lambda obj: ((obj["query_text"], int(obj["pin_signature"])), float(obj["coverage"])),
        CorpusError,
    )
    labeled, report = curation.curate(
        corpus.queries,
        corpus.engagement,
        dict(navboost),
        neg_per_pos=config.neg_per_pos,
        seed=subseed(config.seed, "curation"),
    )
    write_jsonl(ws.labeled_pairs, (p.to_json() for p in labeled))
    write_text(ws.curation_report, json.dumps(report, indent=2))
    return report


def stage_train_encoder(config: PipelineConfig, ws: Workspace) -> dict:
    """Train the contrastive embedding towers."""
    result = encoders.train_encoder(
        ws.corpus,
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
    write_train_log(ws.encoder_log, ("step", "loss", "grad_norm"), result.log)
    return {
        "initial_loss": result.log[0][1],
        "final_loss": result.log[-1][1],
        "steps": len(result.log),
    }


def stage_build_index(config: PipelineConfig, ws: Workspace) -> dict:
    """Build the ANN index over encoded pins."""
    signatures = sorted(ws.corpus.pins)
    matrix = ws.img_encoder.encode_batch(
        np.stack([ws.corpus.pins[s].visual_embedding for s in signatures])
    )
    params = hnsw.HnswParams(
        M=config.hnsw_m, ef_construction=config.ef_construction, ef_search=config.ef_search
    )
    index = hnsw.build(dict(zip(signatures, matrix)), params, seed=subseed(config.seed, "index"))
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
                (feats_pin, ranker.query_features(pos[i]), ranker.query_features(neg[i]))
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
    text_rank = np.argsort(sorted(range(len(queries)), key=lambda i: queries[i].text))
    records = []
    for signature in sorted(pin_embeddings):
        scores = e_queries @ pin_embeddings[signature]
        order = np.lexsort((text_rank, -scores))[:per_pin].tolist()
        for rank_pos, i in enumerate(order, 1):
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
    """Train the two-tower annotation ranker and emit annotations."""
    corpus, triplets = ws.corpus, ws.triplets
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
    write_train_log(ws.ranker_log, ("step", "loss"), log)

    # annotate every pin with its top-scoring deduped queries
    deduped = curation.dedup_queries(corpus.queries)
    signatures = sorted(corpus.pins)
    e_pins = model.embed_pin(
        np.stack([ranker.pin_features(corpus.pins[s]) for s in signatures])
    )
    annotations = annotate_pins(
        dict(zip(signatures, e_pins)),
        deduped,
        model.embed_query(np.stack([ranker.query_features(q) for q in deduped])),
        config.annotations_per_pin,
    )
    write_jsonl(ws.annotations, annotations)
    return {
        "triplets": len(triplets),
        "final_loss": log[-1][1],
        "annotations": len(annotations),
    }


def _annotation(obj: dict) -> dict:
    return {"pin_signature": int(obj["pin_signature"]), "query_text": obj["query_text"],
            "score": float(obj["score"]), "rank": int(obj["rank"])}


def annotation_map(
    records: list[dict], threshold: float, per_pin: int
) -> dict[int, list[str]]:
    by_pin: dict[int, list[str]] = {}
    for obj in records:
        if obj["score"] >= threshold and obj["rank"] <= per_pin:
            by_pin.setdefault(obj["pin_signature"], []).append(obj["query_text"])
    return by_pin


def build_collections(
    config: PipelineConfig, ws: Workspace, topic_texts: Iterable[str],
    published: Iterable[coll_mod.Collection] = (),
) -> list[coll_mod.Collection]:
    """One collection per distinct slug, in sorted topic-text order: the
    first text wins each slug. Texts that are not corpus queries with an
    embedding are skipped. A text with a collection in `published` takes it
    as published; the others are built in one `build_collections` batch."""
    by_text = {q.text: q for q in ws.corpus.queries}
    reuse = {c.topic.text: c for c in published}
    winners: dict[str, QueryRecord] = {}
    for text in sorted(topic_texts):
        topic = by_text.get(text)
        if topic is not None and topic.embedding is not None:
            winners.setdefault(coll_mod.slugify(text), topic)
    built = iter(coll_mod.build_collections(
        [t for t in winners.values() if t.text not in reuse],
        ws.txt_encoder, ws.index, config.collection_k, config.ef_search))
    return [reuse[t.text] if t.text in reuse else next(built) for t in winners.values()]


def stage_build_collections(config: PipelineConfig, ws: Workspace) -> dict:
    """Build topic collection pages from annotations and the index."""
    records = ws.annotation_records
    collections = build_collections(
        config,
        ws,
        {r["query_text"] for r in records if r["score"] >= config.annotation_threshold},
    )
    coll_mod.write_collections(collections, ws.collections)
    for stale in ws.pages_dir.glob("*.html"):
        stale.unlink()
    coll_mod.emit_pages(collections, ws.corpus, ws.pages_dir)
    return {"collections": len(collections)}


def stage_link(config: PipelineConfig, ws: Workspace) -> dict:
    """Construct the link graph, PageRank scores, report, and sitemap."""
    annotations = annotation_map(
        ws.annotation_records, config.annotation_threshold, config.annotations_per_pin
    )
    graph, dangling = linkgraph.build_link_graph(annotations, ws.published_collections)
    scores = linkgraph.pagerank(graph)
    report = linkgraph.link_report(graph, scores)
    report["dangling_annotations"] = len(dangling)
    linkgraph.write_graph(graph, ws.graph_file)
    write_text(ws.link_report, json.dumps(report, indent=2))
    write_text(ws.sitemap, linkgraph.export_sitemap(graph, config.base_url))
    return {
        "nodes": report["nodes"],
        "edges": report["edges"],
        "orphan_pins": report["orphan_pins"],
        "dangling_annotations": len(dangling),
    }


def stage_agent_run(config: PipelineConfig, ws: Workspace) -> dict:
    """Run one trend-mining agent episode."""
    taxonomy = list(zip(synth.CLUSTER_TERMS, synth.CLUSTER_CATEGORIES))[: config.n_clusters]
    agent_config = agent_mod.AgentConfig(
        min_count=config.agent_min_count,
        velocity_floor=config.agent_velocity_floor,
    )
    tools = agent_mod.default_tools(
        ws.corpus, ws.index, ws.txt_encoder, taxonomy, ws.trends, agent_config
    )
    memory = agent_mod.load_long_memory(ws.long_memory)
    queries, trace, state = agent_mod.run_episode(agent_config, tools, memory)
    agent_mod.write_trace(trace, ws.trace)
    write_jsonl(ws.trend_queries, (q.to_json() for q in queries))
    agent_mod.save_long_memory(state.long_memory, ws.long_memory)
    return {"emitted_queries": len(queries), "trace_steps": len(trace)}


def ablation_study(config: PipelineConfig, ws: Workspace) -> dict:
    """Directional link-equity comparison across the three linking modes.

    Enabled uses ranker-selected annotations; control selects annotations by
    raw cosine between the index's pin vectors (image tower) and text-tower
    query outputs; ablation drops annotations entirely (base-topic
    collections only, no pin links). A topic build-collections published
    takes its collection from `ws.published_collections`, not a rebuild.
    """
    records = ws.annotation_records
    deduped = curation.dedup_queries(ws.corpus.queries)

    # control annotations: raw cross-tower cosine, same threshold and budget
    control_records = annotate_pins(
        ws.index.stored_vectors(),
        deduped,
        ws.txt_encoder.encode_batch(np.stack([q.embedding for q in deduped])),
        config.annotations_per_pin,
    )

    def build_mode(
        annots: dict[int, list[str]], collections: list[coll_mod.Collection]
    ) -> dict:
        # every pin participates even when unlinked
        graph, _ = linkgraph.build_link_graph(
            {sig: annots.get(sig, []) for sig in ws.corpus.pins}, collections
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
        ws,
        {t for texts in enabled_map.values() for t in texts}
        | {t for texts in control_map.values() for t in texts},
        ws.published_collections,
    )
    base = build_collections(
        config, ws, synth.CLUSTER_TERMS[: config.n_clusters], ws.published_collections
    )
    return {
        "enabled": build_mode(enabled_map, shared),
        "control": build_mode(control_map, shared),
        "ablation": build_mode({}, base),
    }


def stage_eval(config: PipelineConfig, ws: Workspace) -> dict:
    """Aggregate metrics across finished stages and write them as the eval report."""
    rows = ws.encoder_log.read_text(encoding="utf-8").strip().splitlines()[1:]
    try:
        encoder_loss = {"initial": float(rows[0].split(",")[1]),
                        "final": float(rows[-1].split(",")[1])}
    except (IndexError, ValueError):
        raise PipelineError(f"{ws.encoder_log}: no readable training rows") from None
    model = ranker.load_ranker(ws.ranker_file)

    # recall@10 of the index's search against brute force over its own rows
    stored = ws.index.stored_vectors()
    signatures = sorted(stored)
    matrix = np.array([stored[s] for s in signatures])
    rng = np.random.default_rng(subseed(config.seed, "eval"))
    probes = rng.choice(len(signatures), size=min(50, len(signatures)), replace=False)
    recalls = []
    for i in probes.tolist():
        exact = {s for s, _ in hnsw.exact_top_k(signatures, matrix, matrix[i], 10)}
        approx = {s for s, _ in ws.index.search(matrix[i], 10)}
        recalls.append(len(exact & approx) / len(exact))
    recall_at_10 = float(np.mean(recalls))

    judge = coll_mod.embedding_judge(ws.txt_encoder, threshold=config.judge_threshold)
    rates = [coll_mod.intent_satisfying_rate(c, ws.corpus, judge)[0]
             for c in ws.published_collections]
    link_summary = read_json(ws.link_report, PipelineError, ("pagerank", "orphan_pins"))
    curation_summary = read_json(ws.curation_report, PipelineError, ("retention_branches",))
    report = {
        "recall_at_10": recall_at_10,
        "correct_rank": ranker.correct_rank(model, ws.triplets) if ws.triplets else None,
        "intent_satisfying_rate_mean": float(np.mean(rates)) if rates else None,
        "retention_branches": curation_summary["retention_branches"],
        "encoder_loss": encoder_loss,
        "pagerank": link_summary["pagerank"],
        "orphan_pins": link_summary["orphan_pins"],
        "ablation": ablation_study(config, ws),
    }
    write_text(ws.eval_report, json.dumps(report, indent=2, sort_keys=True))
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

STAGE_ORDER = list(STAGE_FUNCS)


def run_pipeline(
    config: PipelineConfig, stages: list[str] | None = None
) -> tuple[dict, bool]:
    """Run the requested stages in STAGE_ORDER.

    A stage is skipped when a producer of one of its inputs failed or was
    skipped, and fails with DependencyError when an input is missing; other
    stages continue. The report records a failure's message, exception type
    and traceback. A report.json of the same seed keeps the entries and
    checksums of the stages this run does not run; an unreadable one raises
    PipelineError naming its path.
    Returns (report, ok), where ok covers this run's stages.
    """
    requested = stages or STAGE_ORDER
    for stage in requested:
        if stage not in STAGE_FUNCS:
            raise PipelineError(f"unknown stage {stage!r}")
    requested = [s for s in STAGE_ORDER if s in set(requested)]
    ws = Workspace(config.out_dir)
    ws.out.mkdir(parents=True, exist_ok=True)
    report: dict = {"seed": config.seed, "stages": {}, "checksums": {}}
    if ws.report.exists():
        earlier = read_json(ws.report, PipelineError, ("seed", "stages", "checksums"))
        if type(earlier["stages"]) is not dict or type(earlier["checksums"]) is not dict:
            raise PipelineError(f"{ws.report}: stages and checksums must be JSON objects")
        if earlier["seed"] == config.seed:
            report = earlier
    failed: set[str] = set()
    ok = True
    for stage in requested:
        for name in STAGE_OUTPUTS[stage]:
            report["checksums"].pop(ARTIFACTS[name][1], None)
        producers = {PRODUCERS[name] for name in STAGE_INPUTS[stage]}
        blocked = [s for s in STAGE_ORDER if s in failed & producers]
        if blocked:
            report["stages"][stage] = {"status": "skipped", "blocked_by": blocked}
            failed.add(stage)
            ok = False
            continue
        start = time.perf_counter()
        try:
            _check_inputs(stage, ws)
            metrics = STAGE_FUNCS[stage](config, ws)
        except Exception as exc:
            import traceback  # only a failed run pays for this import

            report["stages"][stage] = {
                "status": "failed",
                "error": str(exc),
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(),
            }
            failed.add(stage)
            ok = False
            continue
        elapsed = time.perf_counter() - start
        report["stages"][stage] = {
            "status": "ok",
            "seconds": round(elapsed, 3),
            "metrics": metrics,
        }
        for name in STAGE_OUTPUTS[stage]:
            artifact = getattr(ws, name)
            if artifact.exists():
                key = str(artifact.relative_to(ws.out))
                report["checksums"][key] = file_checksum(artifact)
    write_text(ws.report, json.dumps(report, indent=2, sort_keys=True))
    return report, ok

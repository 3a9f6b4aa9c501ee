"""Stage orchestration: every stage reads file artifacts and the config
keys of its STAGE_CONFIG row, writes file artifacts plus checksums, and can
be re-run in isolation. Within one run_pipeline call a process parses each
input that several of its stages read once. A run of both BRANCHES forks
after gen-corpus: the child inherits the corpus parsed before the fork, and
the labeled pairs are parsed in both processes, by train-ranker in the
child and by eval in the parent."""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import threading
import time
from dataclasses import dataclass, fields
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable

import numpy as np

from . import agent as agent_mod
from . import collections_ as coll_mod
from . import curation, encoders, hnsw, linkgraph, ranker, synth
from .core import (
    CORPUS_FILES,
    Corpus,
    CorpusError,
    LabeledPair,
    QueryRecord,
    _Record,
    check_json,
    file_checksum,
    load_corpus,
    read_json,
    read_key_values,
    read_records,
    subseed,
    write_jsonl,
    write_text,
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
    encoder_steps: int = 200
    temperature: float = 0.07
    ef_construction: int = 200
    ef_search: int = 100
    hnsw_m: int = 16
    ranker_steps: int = ranker.RankerTrainConfig.steps
    margin: float = 0.95
    neg_per_pos: int = 2
    collection_k: int = 10
    base_url: str = "https://example.com"
    agent_min_count: int = 25

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "PipelineConfig":
        """key=value config file; an unknown key or an unparsable value
        raises PipelineError naming path:line."""
        values = read_key_values(path, CONFIG_KINDS, "config", PipelineError)
        return cls(**{**values, **overrides})


# each config key's type, for the config file and the command-line flags
CONFIG_KINDS = {f.name: type(f.default) for f in fields(PipelineConfig)}
# The config keys each stage reads besides seed (out_dir names the
# workspace); each key is one stage's. A stage's command spells each of its
# keys as a flag, --{key with dashes}, as a config file may.
STAGE_CONFIG = {
    "gen-corpus": ["n_pins", "n_clusters"],
    "curate": ["neg_per_pos"],
    "train-encoder": ["encoder_steps", "temperature"],
    "build-index": ["ef_search", "ef_construction", "hnsw_m"],
    "train-ranker": ["ranker_steps", "margin"],
    "build-collections": ["collection_k"],
    "link": ["base_url"],
    "agent-run": ["agent_min_count"],
    "eval": [],
}
# train-ranker annotates each pin with its top ANNOTATIONS_PER_PIN queries;
# build-collections, link and the ablation keep those scoring at least
# ANNOTATION_THRESHOLD.
ANNOTATIONS_PER_PIN = 3
ANNOTATION_THRESHOLD = 0.6


@dataclass(frozen=True, slots=True)
class Annotation(_Record):
    """One line of annotations.jsonl: a pin's rank-th query and its score."""

    pin_signature: int
    query_text: str
    score: float
    rank: int

    def to_json(self) -> dict:  # the score at full precision, not through float32
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self) -> None:
        if self.rank < 1:
            raise CorpusError(f"pin {self.pin_signature}: rank {self.rank} is below 1")


@dataclass
class Workspace:
    """Artifact paths under one output directory, one property per
    ARTIFACTS name, and the stage inputs, each parsed from disk (or derived
    from one) on first use and kept: a workspace parses an input at most
    once, and its readers must not mutate it."""

    out: Path

    def __post_init__(self) -> None:
        self.out = Path(self.out)

    @cached_property
    def corpus(self) -> Corpus:
        return load_corpus(self.corpus_dir)

    @cached_property
    def deduped_queries(self) -> list[QueryRecord]:
        return curation.dedup_queries(self.corpus.queries)

    @cached_property
    def deduped_rows(self) -> list[int]:
        """The corpus rows of `deduped_queries`."""
        return [self.corpus.query_row[q.text] for q in self.deduped_queries]

    @cached_property
    def pin_features(self) -> np.ndarray:
        return ranker.pin_features(self.corpus)

    @cached_property
    def query_features(self) -> np.ndarray:
        return ranker.query_features(self.corpus)

    @cached_property
    def index(self) -> hnsw.HnswIndex:
        return hnsw.HnswIndex.load(self.index_file)

    @cached_property
    def encoders(self) -> dict[str, encoders.EncoderModel]:
        """The `encoders.ENCODER_NETS` towers by name."""
        return encoders.load_encoders(self.encoder_file)

    @cached_property
    def annotation_records(self) -> list[Annotation]:
        return read_records(self.annotations, Annotation.from_json, PipelineError, "annotation")

    @cached_property
    def published_collections(self) -> list[coll_mod.Collection]:
        return coll_mod.load_collections(self.collections, self.corpus)

    @cached_property
    def triplets(self) -> ranker.Triplets:
        labeled = read_records(self.labeled_pairs, partial(LabeledPair.from_json, corpus=self.corpus),
                               CorpusError)
        triplets = _triplets_from_labels(self.corpus, self.pin_features, self.query_features, labeled)
        if not len(triplets):
            raise PipelineError(f"{self.labeled_pairs}: no ranker triplets derivable from its pairs")
        return triplets


# Every artifact a workspace names: its producing stage and its path under
# the output directory. A stage's outputs are the artifacts it produces, and
# run_pipeline checksums them after the stage, a directory (pages_dir) file
# by file, each under its own path; corpus_dir and report have no producer
# and are never checksummed.
ARTIFACTS = {
    "corpus_dir": (None, "corpus"),
    **{name: ("gen-corpus", f"corpus/{file}") for name, file in CORPUS_FILES.items()},
    "trends": ("gen-corpus", "corpus/trends.jsonl"),
    "labeled_pairs": ("curate", "labeled_pairs.jsonl"),
    "curation_report": ("curate", "curation_report.json"),
    "encoder_file": ("train-encoder", "encoders.bin"),
    "encoder_log": ("train-encoder", "encoder_train_log.jsonl"),
    "index_file": ("build-index", "index.bin"),
    "ranker_file": ("train-ranker", "ranker.bin"),
    "ranker_log": ("train-ranker", "ranker_train_log.jsonl"),
    "annotations": ("train-ranker", "annotations.jsonl"),
    "collections": ("build-collections", "collections.jsonl"),
    "pages_dir": ("build-collections", "pages"),
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
for _name, (_, _relpath) in ARTIFACTS.items():
    setattr(Workspace, _name, property(lambda ws, relpath=_relpath: ws.out / relpath))
# What every stage reads, as ARTIFACTS names; run_pipeline checks a stage's
# inputs before it calls the stage.
STAGE_INPUTS = {
    "gen-corpus": [],
    "curate": [*CORPUS_FILES],
    "train-encoder": [*CORPUS_FILES],
    "build-index": [*CORPUS_FILES, "encoder_file"],
    "train-ranker": [*CORPUS_FILES, "labeled_pairs"],
    "build-collections": [*CORPUS_FILES, "index_file", "encoder_file", "annotations"],
    "link": [*CORPUS_FILES, "collections", "annotations"],
    "agent-run": [*CORPUS_FILES, "index_file", "encoder_file", "trends"],
    "eval": [*CORPUS_FILES, "curation_report", "encoder_file", "encoder_log", "index_file",
             "ranker_file", "ranker_log", "collections", "link_report", "labeled_pairs",
             "annotations"],
}
STAGE_OUTPUTS = {
    stage: [name for name, (producer, _) in ARTIFACTS.items() if producer == stage]
    for stage in STAGE_INPUTS
}
PRODUCERS = {name: stage for name, (stage, _) in ARTIFACTS.items() if stage}

# one line of encoder_train_log.jsonl, keys in the order of TrainResult.log rows
ENCODER_LOG_KINDS = {"step": int, "loss": float, "grad_norm": float}
# one line of ranker_train_log.jsonl, keys in the order of train_ranker's log rows
RANKER_LOG_KINDS = {"step": int, "loss": float}
# The JSON files read whole, as stage_link, curate and run_pipeline write
# them; the keys eval copies come first, so a file lacking them names them.
REPORT_KINDS = {
    "link_report": {
        "pagerank": {"damping": float, "iterations": int, "residual": float, "converged": bool},
        "orphan_pins": int, "nodes": int, "edges": int,
        "crawl_order": [{"node": str, "authority": float}],
        "in_degree_histogram": {str: int}, "out_degree_histogram": {str: int},
        "dangling_annotations": int,
    },
    "curation_report": {"retention_branches": {str: int}, "category_histogram": {str: int},
                        "dedup_merged": int, "positives": int, "negatives": int},
    "report": {"seed": int, "stages": {str: dict}, "checksums": {str: str}},
}


def _check_inputs(stage: str, ws: Workspace) -> None:
    for name in STAGE_INPUTS[stage]:
        path = getattr(ws, name)
        if not path.exists():
            raise DependencyError(
                f"stage {stage!r} needs missing artifact {path} "
                f"(produced by stage {PRODUCERS[name]!r})"
            )


def stage_gen_corpus(config: PipelineConfig, ws: Workspace) -> dict:
    """Generate the bundled synthetic corpus."""
    synth.write_corpus_bundle(ws.corpus_dir, synth.SynthConfig(
        n_pins=config.n_pins, n_clusters=config.n_clusters, seed=config.seed,
    ))
    corpus = ws.corpus
    return {
        "pins": len(corpus.pins),
        "queries": len(corpus.queries),
        "engagement": len(corpus.engagement),
    }


def stage_curate(config: PipelineConfig, ws: Workspace) -> dict:
    """Filter engagement, label pairs, and deduplicate queries."""
    labeled, report = curation.curate(
        ws.corpus,
        ws.deduped_queries,
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
            steps=config.encoder_steps,
            batch_size=64,
            temperature=config.temperature,
            seed=subseed(config.seed, "encoder"),
        ),
    )
    encoders.save_encoders(result.encoders, ws.encoder_file)
    write_jsonl(ws.encoder_log, (dict(zip(ENCODER_LOG_KINDS, row)) for row in result.log))
    return {
        "initial_loss": result.log[0][1],
        "final_loss": result.log[-1][1],
        "steps": len(result.log),
    }


def stage_build_index(config: PipelineConfig, ws: Workspace) -> dict:
    """Build the ANN index over encoded pins."""
    matrix = ws.encoders["img"].encode_batch(ws.corpus.visual)
    params = hnsw.HnswParams(
        M=config.hnsw_m, ef_construction=config.ef_construction, ef_search=config.ef_search
    )
    index = hnsw.build(dict(zip(ws.corpus.pins, matrix)), params, seed=subseed(config.seed, "index"))
    index.check_invariants()
    index.save(ws.index_file)
    return {"elements": len(index), "layers": index.max_level + 1}


def _triplets_from_labels(
    corpus: Corpus, pins: np.ndarray, queries: np.ndarray, labeled: list[LabeledPair]
) -> ranker.Triplets:
    """Each pin's i-th positive and i-th negative as one triplet, pins in
    signature order, over ``pins`` and ``queries``, the corpus's
    `ranker.pin_features` and `ranker.query_features` rows."""
    by_pin: dict[int, tuple[list[int], list[int]]] = {}
    for pair in labeled:
        pos, neg = by_pin.setdefault(pair.pin_signature, ([], []))
        (pos if pair.label == 1 else neg).append(corpus.query_row[pair.query.text])
    signatures = sorted(by_pin)
    pin_rows = np.searchsorted(corpus.signatures, signatures).tolist()
    index = np.array([(row, p, n) for row, s in zip(pin_rows, signatures) for p, n in zip(*by_pin[s])],
                     dtype=np.intp)
    return ranker.Triplets(pins, queries, *index.reshape(-1, 3).T)


def annotate_pins(
    signatures: Iterable[int],
    e_pins: np.ndarray,
    queries: list[QueryRecord],
    e_queries: np.ndarray,
    per_pin: int,
) -> list[Annotation]:
    """Annotations of the top-per_pin queries of each pin, in the order of
    ``signatures``, whose embeddings are the rows of ``e_pins``. A query
    scores e_queries @ e_pin; ties break on text."""
    text_rank = curation.text_ranks(queries)
    records = []
    for signature, e_pin in zip(signatures, e_pins):
        scores = e_queries @ e_pin
        order = np.lexsort((text_rank, -scores))[:per_pin].tolist()
        records += [Annotation(signature, queries[i].text, float(scores[i]), rank)
                    for rank, i in enumerate(order, 1)]
    return records


def stage_train_ranker(config: PipelineConfig, ws: Workspace) -> dict:
    """Train the two-tower annotation ranker and annotate every pin with
    its top ANNOTATIONS_PER_PIN queries."""
    corpus, triplets = ws.corpus, ws.triplets
    model, log = ranker.train_ranker(
        triplets,
        ranker.TowerConfig(d_v=corpus.d_v, d_t=corpus.d_t, margin=config.margin),
        ranker.RankerTrainConfig(steps=config.ranker_steps, seed=subseed(config.seed, "ranker")),
    )
    ranker.save_ranker(model, ws.ranker_file)
    write_jsonl(ws.ranker_log, (dict(zip(RANKER_LOG_KINDS, row)) for row in log))

    # annotate every pin with its top-scoring deduped queries
    e_pins = ranker.in_blocks(len(corpus.pins), lambda block: model.embed_pin(ws.pin_features[block]))
    annotations = annotate_pins(
        corpus.signatures.tolist(),
        e_pins,
        ws.deduped_queries,
        model.embed_query(ws.query_features[ws.deduped_rows]),
        ANNOTATIONS_PER_PIN,
    )
    write_jsonl(ws.annotations, (a.to_json() for a in annotations))
    return {
        "triplets": len(triplets),
        "final_loss": log[-1][1],
        "annotations": len(annotations),
    }


def annotation_map(records: list[Annotation], threshold: float) -> dict[int, list[str]]:
    """Each pin's annotated query texts that score at least ``threshold``;
    the records hold the budget train-ranker annotated with."""
    by_pin: dict[int, list[str]] = {}
    for record in records:
        if record.score >= threshold:
            by_pin.setdefault(record.pin_signature, []).append(record.query_text)
    return by_pin


def build_collections(
    ws: Workspace, topic_texts: Iterable[str], k: int,
    published: Iterable[coll_mod.Collection] = (),
) -> list[coll_mod.Collection]:
    """One collection per distinct slug, in sorted topic-text order: the
    first text wins each slug. Texts that are not corpus queries are
    skipped. A text with a collection in `published` takes it as
    published; the others are built as top-k in one `build_collections` batch."""
    reuse = {c.topic.text: c for c in published}
    winners: dict[str, QueryRecord] = {}
    for text in sorted(topic_texts):
        if text in ws.corpus.query_row:
            winners.setdefault(coll_mod.slugify(text), ws.corpus.query(text))
    built = iter(coll_mod.build_collections(
        [t for t in winners.values() if t.text not in reuse],
        ws.encoders["txt"], ws.index, k))
    return [reuse[t.text] if t.text in reuse else next(built) for t in winners.values()]


def stage_build_collections(config: PipelineConfig, ws: Workspace) -> dict:
    """Build topic collection pages from annotations and the index; no
    collection fails the stage before it writes."""
    topics = annotation_map(ws.annotation_records, ANNOTATION_THRESHOLD).values()
    collections = build_collections(ws, {t for texts in topics for t in texts}, config.collection_k)
    if not collections:
        raise PipelineError(f"{ws.annotations}: no annotated corpus query scores at least "
                            f"ANNOTATION_THRESHOLD {ANNOTATION_THRESHOLD}")
    coll_mod.write_collections(collections, ws.collections)
    for stale in ws.pages_dir.glob("*.html"):
        stale.unlink()
    coll_mod.emit_pages(collections, ws.corpus, ws.pages_dir)
    return {"collections": len(collections)}


def stage_link(config: PipelineConfig, ws: Workspace) -> dict:
    """Construct the link graph, PageRank scores, report, and sitemap."""
    annotations = annotation_map(ws.annotation_records, ANNOTATION_THRESHOLD)
    graph, dangling = linkgraph.build_link_graph(annotations, ws.published_collections)
    scores = linkgraph.pagerank(graph)
    report = linkgraph.link_report(graph, scores)
    report["dangling_annotations"] = len(dangling)
    linkgraph.write_graph(graph, ws.graph_file)
    write_text(ws.link_report, json.dumps(report, indent=2))
    write_text(ws.sitemap, linkgraph.export_sitemap(graph, config.base_url))
    return {key: report[key] for key in ("nodes", "edges", "orphan_pins", "dangling_annotations")}


def stage_agent_run(config: PipelineConfig, ws: Workspace) -> dict:
    """Run one trend-mining agent episode over the cluster terms the corpus queries."""
    taxonomy = [term for term in synth.CLUSTER_TERMS if term in ws.corpus.query_row]
    tools = agent_mod.default_tools(
        ws.corpus, ws.index, ws.encoders["txt"], taxonomy, ws.trends, config.agent_min_count
    )
    memory = agent_mod.load_long_memory(ws.long_memory)
    queries, trace, state = agent_mod.run_episode(tools, memory)
    agent_mod.write_trace(trace, ws.trace)
    write_jsonl(ws.trend_queries, (q.to_json() for q in queries))
    agent_mod.save_long_memory(state.long_memory, ws.long_memory)
    return {"emitted_queries": len(queries), "trace_steps": len(trace)}


def ablation_study(ws: Workspace) -> dict:
    """Directional link-equity comparison across the three linking modes.

    Enabled uses ranker-selected annotations; control selects annotations by
    raw cosine between the index's pin vectors (image tower) and text-tower
    query outputs; ablation drops annotations entirely (base-topic
    collections only, no pin links). A topic build-collections published
    takes its collection from `ws.published_collections`, not a rebuild,
    and the rest are built at the size of its largest collection.
    """
    records = ws.annotation_records

    # control annotations: raw cross-tower cosine, same threshold and budget
    control_records = annotate_pins(
        *ws.index.stored_vectors(),
        ws.deduped_queries,
        ws.encoders["txt"].encode_batch(ws.corpus.query_embeddings[ws.deduped_rows]),
        max(r.rank for r in records),
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

    k = max(len(c.members) for c in ws.published_collections)
    enabled_map = annotation_map(records, ANNOTATION_THRESHOLD)
    control_map = annotation_map(control_records, ANNOTATION_THRESHOLD)
    # enabled and control share one collection universe so mean authority
    # compares linking quality, not collection counts
    topic_texts = {t for by_pin in (enabled_map, control_map) for texts in by_pin.values() for t in texts}
    shared = build_collections(ws, topic_texts, k, ws.published_collections)
    base = build_collections(ws, synth.CLUSTER_TERMS, k, ws.published_collections)
    return {
        "enabled": build_mode(enabled_map, shared),
        "control": build_mode(control_map, shared),
        "ablation": build_mode({}, base),
    }


def _loss_ends(path: Path, kinds: dict) -> dict:
    """The first and last loss of a training log whose lines are ``kinds``."""
    rows = read_records(path, partial(check_json, kinds=kinds), PipelineError, "training log")
    return {"initial": float(rows[0]["loss"]), "final": float(rows[-1]["loss"])}


def stage_eval(config: PipelineConfig, ws: Workspace) -> dict:
    """Aggregate metrics across finished stages and write them as the eval report."""
    encoder_loss = _loss_ends(ws.encoder_log, ENCODER_LOG_KINDS)
    ranker_loss = _loss_ends(ws.ranker_log, RANKER_LOG_KINDS)
    model = ranker.load_ranker(ws.ranker_file)

    # recall@10 of the index's search against brute force over its own rows
    signatures, matrix = ws.index.stored_vectors()
    rng = np.random.default_rng(subseed(config.seed, "eval"))
    probes = rng.choice(len(signatures), size=min(50, len(signatures)), replace=False)
    recalls = []
    for i in probes.tolist():
        exact = {s for s, _ in hnsw.exact_top_k(signatures, matrix, matrix[i], 10)}
        approx = {s for s, _ in ws.index.search(matrix[i], 10)}
        recalls.append(len(exact & approx) / len(exact))
    recall_at_10 = float(np.mean(recalls))

    judge = coll_mod.embedding_judge(ws.encoders["txt"])
    rates = [coll_mod.intent_satisfying_rate(c, ws.corpus, judge)[0]
             for c in ws.published_collections]
    link_summary = read_json(ws.link_report, PipelineError, REPORT_KINDS["link_report"])
    curation_summary = read_json(ws.curation_report, PipelineError, REPORT_KINDS["curation_report"])
    report = {
        "recall_at_10": recall_at_10,
        "correct_rank": ranker.correct_rank(model, ws.triplets),
        "intent_satisfying_rate_mean": float(np.mean(rates)),
        "retention_branches": curation_summary["retention_branches"],
        "encoder_loss": encoder_loss,
        "ranker_loss": ranker_loss,
        "pagerank": link_summary["pagerank"],
        "orphan_pins": link_summary["orphan_pins"],
        "ablation": ablation_study(ws),
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
# The two stage branches between gen-corpus and build-collections: neither
# reads an output of the other. A run that requests stages of both runs the
# first in a forked child (see _BranchProcess) beside the second.
BRANCHES = (["curate", "train-ranker"], ["train-encoder", "build-index"])


def _peak_rss_mb() -> float:
    """The larger high-water mark of this process and of the largest child
    it has reaped, in MB (ru_maxrss is in KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def _failure(exc: BaseException) -> dict:
    import traceback  # only a failed run pays for this import

    return {"status": "failed", "error": str(exc), "error_type": type(exc).__name__,
            "traceback": "".join(traceback.format_exception(exc))}


def _blocked_by(stage: str, failed: set[str]) -> list[str]:
    """The producers of the stage's inputs that failed or were skipped."""
    producers = {PRODUCERS[name] for name in STAGE_INPUTS[stage]}
    return [s for s in STAGE_ORDER if s in failed & producers]


def _run_stage(stage: str, config: PipelineConfig, ws: Workspace, failed: set[str]) -> tuple[dict, dict]:
    """Run one stage unless it is blocked by ``failed``: its report entry,
    which holds the values of its STAGE_CONFIG keys when it ran, and the
    checksums of the files it wrote."""
    blocked = _blocked_by(stage, failed)
    if blocked:
        return {"status": "skipped", "blocked_by": blocked}, {}
    start = time.perf_counter()
    try:
        _check_inputs(stage, ws)
        metrics = STAGE_FUNCS[stage](config, ws)
    except Exception as exc:
        return _failure(exc), {}
    entry = {"status": "ok", "seconds": round(time.perf_counter() - start, 3),
             "peak_rss_mb": _peak_rss_mb(), "metrics": metrics,
             "config": {key: getattr(config, key) for key in STAGE_CONFIG[stage]}}
    checksums = {}
    for name in STAGE_OUTPUTS[stage]:
        artifact = getattr(ws, name)
        for path in sorted(artifact.iterdir()) if artifact.is_dir() else [artifact]:
            if path.is_file():
                checksums[str(path.relative_to(ws.out))] = file_checksum(path)
    return entry, checksums


def _drop_downstream(report: dict, stages: list[str]) -> None:
    """Take the entries of ``stages`` and of every stage that reads an output
    of one, transitively, out of the report, with the checksums of their
    outputs and of the files in their directories."""
    dropped: set[str] = set()
    for stage in STAGE_ORDER:  # a producer comes before its readers
        if stage in stages or _blocked_by(stage, dropped):
            dropped.add(stage)
    outputs = {ARTIFACTS[name][1] for stage in dropped for name in STAGE_OUTPUTS[stage]}
    report["checksums"] = {key: value for key, value in report["checksums"].items()
                           if not {key, key.rpartition("/")[0]} & outputs}
    report["stages"] = {stage: entry for stage, entry in report["stages"].items() if stage not in dropped}


def _record(report: dict, failed: set[str], stage: str, entry: dict, checksums: dict) -> None:
    """Put the entry and checksums of a stage `_drop_downstream` dropped in
    the report."""
    report["checksums"].update(checksums)
    report["stages"][stage] = entry
    if entry["status"] != "ok":
        failed.add(stage)


def _write_report(ws: Workspace, report: dict) -> None:
    write_text(ws.report, json.dumps(report, indent=2, sort_keys=True))


def _openblas_threads():
    """numpy's OpenBLAS (get, set) thread-count functions, or None where
    numpy links no OpenBLAS that exports them."""
    import ctypes  # here, not at module import: only a forked run needs it

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:  # dlsym on the extension's handle also searches the libraries it links
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_", "openblas{}"):
        get, set_ = (getattr(lib, name.format(f"_{verb}_num_threads"), None) for verb in ("get", "set"))
        if get and set_:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _cap_blas_threads():
    """Cap numpy's OpenBLAS at one thread; returns the function that
    restores its count."""
    functions = _openblas_threads()
    if functions is None:
        return lambda: None
    get, set_ = functions
    threads = get()
    set_(1)
    return partial(set_, threads)


class _BranchProcess:
    """``stages`` run in a forked child beside the parent's stages.

    The child inherits the workspace and what it has parsed, runs each stage
    through `_run_stage`, streams its entry and checksums as one JSON line
    over a pipe, and ends in os._exit: no caller code (a finally block, an
    atexit hook) runs in it, and it never writes report.json. numpy's
    OpenBLAS runs one thread in both processes from the fork until the
    parent joins or closes the child: two processes of threaded BLAS
    oversubscribe the cores."""

    def __init__(self, stages: list[str], config: PipelineConfig, ws: Workspace, failed: set[str]):
        self.stages = stages
        self.beside: list[str] = []  # the parent's stages run while the child runs
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            self._child(config, ws, failed, read_fd, write_fd)
        os.close(write_fd)
        self._stream = os.fdopen(read_fd, encoding="utf-8")
        self._restore = _cap_blas_threads()

    def _child(self, config: PipelineConfig, ws: Workspace, failed: set[str],
               read_fd: int, write_fd: int):
        """The child's body; it exits with status 0 after its last stage,
        1 on any exception, and never returns."""
        status = 1
        try:
            os.close(read_fd)
            _cap_blas_threads()
            with os.fdopen(write_fd, "w", encoding="utf-8") as stream:
                for stage in self.stages:
                    entry, checksums = _run_stage(stage, config, ws, failed)
                    if entry["status"] != "ok":
                        failed.add(stage)
                    stream.write(json.dumps([stage, entry, checksums]) + "\n")
                    stream.flush()
            status = 0
        except BaseException:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)

    @property
    def running(self) -> bool:
        return self.pid is not None

    def reads_from(self, stage: str) -> bool:
        return any(PRODUCERS[name] in self.stages for name in STAGE_INPUTS[stage])

    def join(self, report: dict, failed: set[str]) -> None:
        """Wait for the child and record its stages. A stage it did not
        finish fails with PipelineError naming how the child ended, and each
        later one is skipped when that blocks it. Every ok entry of the
        overlap then holds the high-water mark of both processes."""
        lines = self._stream.readlines()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        self.close()
        received = set()
        for line in lines:
            if line.endswith("\n"):  # a child killed mid-write leaves a partial line
                stage, entry, checksums = json.loads(line)
                _record(report, failed, stage, entry, checksums)
                received.add(stage)
        code = os.waitstatus_to_exitcode(status)
        ended = f"was killed by signal {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"
        for stage in self.stages:
            if stage not in received:
                blocked = _blocked_by(stage, failed)
                entry = {"status": "skipped", "blocked_by": blocked} if blocked else _failure(
                    PipelineError(f"stage {stage!r} did not finish: its branch process {ended}"))
                _record(report, failed, stage, entry, {})
        peak = _peak_rss_mb()
        for stage in [*self.stages, *self.beside]:
            if report["stages"][stage]["status"] == "ok":
                report["stages"][stage]["peak_rss_mb"] = peak

    def close(self) -> None:
        """Kill and reap a child that was not joined, and restore numpy's
        OpenBLAS thread count."""
        if self.running:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self._stream.close()
        self._restore()


def run_pipeline(
    config: PipelineConfig, stages: list[str] | None = None
) -> tuple[dict, bool]:
    """Run the requested stages, every stage when ``stages`` is None, in
    STAGE_ORDER; an empty list raises PipelineError.

    A stage is skipped when a producer of one of its inputs failed or was
    skipped, and fails with DependencyError when an input is missing; other
    stages continue. The report records a failure's message, exception type
    and traceback. A report.json of the same seed keeps the entries and
    checksums of the stages this run neither runs nor feeds (see
    `_drop_downstream`); an unreadable one raises PipelineError naming its
    path. report.json is rewritten, atomically, before the first stage and
    after every stage the calling process records.

    When the run requests stages of both BRANCHES and the calling process
    has one thread, the first branch runs in a forked child from its first
    stage on, and the parent joins it before the first stage that reads its
    outputs (or at the end); an exception leaving the run kills and reaps
    the child first.
    Returns (report, ok), where ok covers this run's stages.
    """
    requested = STAGE_ORDER if stages is None else stages
    if not requested:
        raise PipelineError("no stages requested")
    for stage in requested:
        if stage not in STAGE_FUNCS:
            raise PipelineError(f"unknown stage {stage!r}")
    requested = [s for s in STAGE_ORDER if s in set(requested)]
    ws = Workspace(config.out_dir)
    ws.out.mkdir(parents=True, exist_ok=True)
    report: dict = {"seed": config.seed, "stages": {}, "checksums": {}}
    if ws.report.exists():
        earlier = read_json(ws.report, PipelineError, REPORT_KINDS["report"])
        if earlier["seed"] == config.seed:
            report = earlier
    _drop_downstream(report, requested)
    _write_report(ws, report)
    side, other = ([s for s in branch if s in requested] for branch in BRANCHES)
    if not other or threading.active_count() > 1:
        side = []
    failed: set[str] = set()
    child: _BranchProcess | None = None
    try:
        for stage in requested:
            if stage in side:
                child = child or _BranchProcess(side, config, ws, failed)
                continue
            if child and child.running and child.reads_from(stage):
                child.join(report, failed)
                _write_report(ws, report)
            _record(report, failed, stage, *_run_stage(stage, config, ws, failed))
            if child and child.running:
                child.beside.append(stage)
            _write_report(ws, report)
        if child and child.running:
            child.join(report, failed)
            _write_report(ws, report)
    finally:
        if child and child.running:
            child.close()
    return report, all(report["stages"][s]["status"] == "ok" for s in requested)

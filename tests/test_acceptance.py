"""Acceptance gate: thirteen numbered criteria, each printing one
pass/fail line. Tolerances and runtime budgets are asserted exactly as
stated; the heavy artifacts (10k HNSW index, full pipeline run) come from
session-scoped fixtures shared across criteria."""

from __future__ import annotations

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np

from geoforge import curation, encoders, hnsw, mlp, ranker, synth
from geoforge.agent import (
    FILTER_THRESHOLD,
    LOW_FIT_CATEGORIES,
    VELOCITY_FLOOR,
    default_tools,
    replay_trace,
    run_episode,
)
from geoforge.collections_ import build_collection, embedding_judge, intent_satisfying_rate, load_collections
from geoforge.core import Engagement, LabeledPair, QueryRecord, load_corpus
from geoforge.encoders import pinclip_loss, searchsage_loss, softmax_contrastive_loss
from geoforge.hnsw import HnswIndex
from geoforge.linkgraph import LinkGraph, pagerank
from geoforge.pipeline import _triplets_from_labels, run_pipeline

from _oracles import dense_pagerank, finite_difference, rel_error, retention_oracle, unit_rows


def _verdict(announce, number: int, name: str, ok: bool, detail: str) -> None:
    announce(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# --------------------------------------------------------------------------
# 1. Retention filter equivalence against an independent boolean oracle
# --------------------------------------------------------------------------

def test_criterion_01_retention_truth_table(announce):
    start = time.perf_counter()
    cells = [
        (impressions, ctr, min(impressions, int(round(ctr * impressions))), position)
        for impressions in (0, 5, 10, 11, 50, 1000, 1001)
        for ctr in (0.0, 0.5, 0.79, 0.8, 1.0)
        for position in (1.0, 10.0, 10.5, 50.0)
    ]
    impressions, _, clicks, positions = (list(column) for column in zip(*cells))
    rows = np.zeros(len(cells), dtype=np.int64)  # one pin and one query
    kept = curation.retain(Engagement(rows, rows, impressions, clicks, positions)).tolist()
    mismatches = [
        (shown, ctr, position, got, want)
        for (shown, ctr, clicked, position), got in zip(cells, kept)
        if got != (want := retention_oracle(shown, clicked, position))
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    _verdict(
        announce, 1, "retention-filter-truth-table", ok,
        f"{len(cells)} cells, {len(mismatches)} mismatches, {elapsed:.3f}s",
    )


# --------------------------------------------------------------------------
# 2. Gradient fidelity vs central finite differences
# --------------------------------------------------------------------------

def _contrastive_errors(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    errors = []

    # single softmax contrastive batch
    x = rng.standard_normal((5, 7))
    y = rng.standard_normal((5, 7))
    _, d_x, d_y = softmax_contrastive_loss(x, y, 0.07)
    fd = finite_difference(lambda: softmax_contrastive_loss(x, y, 0.07)[0], [x, y])
    errors += [rel_error(d_x, fd[0]), rel_error(d_y, fd[1])]

    # PinCLIP two-term sum over the block outputs (vis, a, b, txt)
    arrays = [rng.standard_normal((4, 6)) for _ in range(4)]
    _, grads = pinclip_loss(arrays, 0.07)
    fd = finite_difference(lambda: pinclip_loss(arrays, 0.07)[0], arrays)
    errors += [rel_error(g, numeric) for g, numeric in zip(grads, fd)]

    # SearchSAGE multi-task sum
    tasks_arrays = [rng.standard_normal((3, 5)) for _ in range(4)]
    tasks = {"QueryPin": (tasks_arrays[0], tasks_arrays[1]), "QueryBoard": (tasks_arrays[2], tasks_arrays[3])}
    _, grads = searchsage_loss(tasks, 0.07)
    fd = finite_difference(lambda: searchsage_loss(tasks, 0.07)[0], tasks_arrays)
    errors += [
        rel_error(grads["QueryPin"][0], fd[0]),
        rel_error(grads["QueryPin"][1], fd[1]),
        rel_error(grads["QueryBoard"][0], fd[2]),
        rel_error(grads["QueryBoard"][1], fd[3]),
    ]
    return errors


def _ranker_end_to_end_errors(seed: int) -> list[float] | None:
    """Gradient errors for one seed, or None when the probe lands too close
    to a ReLU or hinge kink for finite differences to be trustworthy."""
    rng = np.random.default_rng(seed)
    config = ranker.TowerConfig(
        d_v=5, d_t=4, hidden=[6], output_dim=3, dropout_rate=0.0, margin=0.95
    )
    model = ranker.RankerModel.init(config, seed=seed)
    b_pin = rng.standard_normal((3, config.pin_input_dim))
    b_pos = rng.standard_normal((3, config.query_input_dim))
    b_neg = rng.standard_normal((3, config.query_input_dim))

    # the training pass: the pin rows, and the positive rows over the negative rows
    blocks = [(model.pin_tower, b_pin), (model.query_tower, np.concatenate([b_pos, b_neg]))]
    try:
        (e_pin, e_query), cache = mlp.forward_blocks(blocks, ranker.RankerError)
    except ranker.RankerError:
        # a fully dead ReLU layer zeroes the tower output; normalization is
        # undefined there, so the probe is rejected like any other kink
        return None
    e_pos, e_neg = np.split(e_query, 2)
    gaps = np.sum(e_pin * e_neg, axis=1) - np.sum(e_pin * e_pos, axis=1) + config.margin
    for layer in cache["layers"][:-1]:
        if float(np.min(np.abs(layer["z"]))) < 1e-4:
            return None
    if float(np.min(np.abs(gaps))) < 1e-4:
        return None

    _, d_pin, d_query = ranker.margin_loss_batch(e_pin, e_query, config.margin)
    grads = mlp.backward_blocks(cache, [d_pin, d_query])

    params = model.pin_tower.parameters() + model.query_tower.parameters()

    def loss():
        (e1, e2), _ = mlp.forward_blocks(blocks, ranker.RankerError)
        return ranker.margin_loss_batch(e1, e2, config.margin)[0]

    try:
        numeric = finite_difference(loss, params)
    except ranker.RankerError:
        return None
    analytic = [g for (net, _), grad in zip(blocks, grads) for layer in net.layered(grad) for g in layer]
    return [rel_error(a, n) for a, n in zip(analytic, numeric)]


def test_criterion_02_gradient_fidelity(announce):
    start = time.perf_counter()
    contrastive_worst = 0.0
    for seed in range(20):
        contrastive_worst = max(contrastive_worst, max(_contrastive_errors(seed)))

    ranker_worst = 0.0
    accepted = 0
    seed = 1000
    while accepted < 20:
        errors = _ranker_end_to_end_errors(seed)
        seed += 1
        if errors is None:
            continue
        accepted += 1
        ranker_worst = max(ranker_worst, max(errors))
    elapsed = time.perf_counter() - start
    ok = contrastive_worst <= 1e-4 and ranker_worst <= 1e-3 and elapsed < 30.0
    _verdict(
        announce, 2, "gradient-fidelity", ok,
        f"contrastive worst {contrastive_worst:.2e} (tol 1e-4), "
        f"ranker worst {ranker_worst:.2e} (tol 1e-3), 20+20 seeds, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 3. Uniform-logit identity: loss = ln(B)
# --------------------------------------------------------------------------

def test_criterion_03_uniform_logit_identity(announce):
    rng = np.random.default_rng(5)
    anchor = unit_rows(rng, 1, 16)[0]
    positive = unit_rows(rng, 1, 16)[0]
    worst = 0.0
    for batch_size in (2, 4, 8, 128):
        loss, _, _ = softmax_contrastive_loss(
            np.tile(anchor, (batch_size, 1)), np.tile(positive, (batch_size, 1)), 0.07
        )
        worst = max(worst, abs(loss - math.log(batch_size)))
    ok = worst <= 1e-12
    _verdict(
        announce, 3, "uniform-logit-identity", ok,
        f"max |loss - ln(B)| = {worst:.2e} over B in {{2,4,8,128}} (tol 1e-12)",
    )


# --------------------------------------------------------------------------
# 4 + 5. HNSW recall and sub-linearity on the shared 10k index
# --------------------------------------------------------------------------

def test_criterion_04_hnsw_recall(announce, hnsw_10k):
    index, vectors, queries = hnsw_10k["index"], hnsw_10k["vectors"], hnsw_10k["queries"]
    start = time.perf_counter()
    exact_sets = [
        {i for i, _ in hnsw.brute_force_search(vectors, query, 10)} for query in queries
    ]
    recalls = {}
    for ef in (10, 50, 100, 500):
        per_query = []
        for query, exact in zip(queries, exact_sets):
            approx = {i for i, _ in index.search(query, 10, ef_search=ef)}
            per_query.append(len(exact & approx) / len(exact))
        recalls[ef] = float(np.mean(per_query))
    elapsed = hnsw_10k["build_seconds"] + (time.perf_counter() - start)
    ordered = [recalls[ef] for ef in (10, 50, 100, 500)]
    monotone = all(a <= b for a, b in zip(ordered, ordered[1:]))
    ok = recalls[100] >= 0.95 and monotone and elapsed < 60.0
    _verdict(
        announce, 4, "hnsw-recall", ok,
        f"recall@10 {recalls[100]:.3f} at defaults (>= 0.95), "
        f"ef sweep {[round(r, 3) for r in ordered]} monotone={monotone}, {elapsed:.1f}s",
    )


def test_criterion_05_hnsw_sublinearity(announce, hnsw_10k):
    index, vectors, queries = hnsw_10k["index"], hnsw_10k["vectors"], hnsw_10k["queries"]
    before = index.distance_count
    for query in queries:
        index.search(query, 10)
    per_query_10k = (index.distance_count - before) / len(queries)

    small = hnsw.build({i: vectors[i] for i in range(1000)}, seed=3)
    before = small.distance_count
    for query in queries:
        small.search(query, 10)
    per_query_1k = (small.distance_count - before) / len(queries)
    ratio = per_query_10k / per_query_1k
    ok = ratio < 3.0
    _verdict(
        announce, 5, "hnsw-sublinearity", ok,
        f"distance comps/query: {per_query_10k:.0f} at 10k vs {per_query_1k:.0f} at 1k, "
        f"ratio {ratio:.2f} (< 3)",
    )


# --------------------------------------------------------------------------
# 6. Margin-loss hinge property
# --------------------------------------------------------------------------

def test_criterion_06_margin_hinge(announce):
    rng = np.random.default_rng(17)
    margin = 0.95
    counterexamples = 0
    for _ in range(10_000):
        pin, pos, neg = unit_rows(rng, 3, 8)
        # the training hinge on a one-row batch: the positive over the negative
        loss, _, _ = ranker.margin_loss_batch(pin[None], np.stack([pos, neg]), margin)
        separation = float(np.sum(pin * pos) - np.sum(pin * neg))
        if (loss == 0.0) != (separation >= margin):
            counterexamples += 1
    ok = counterexamples == 0
    _verdict(
        announce, 6, "margin-hinge-property", ok,
        f"10000 random unit triplets, {counterexamples} counterexamples to "
        f"loss=0 <=> separation >= {margin}",
    )


# --------------------------------------------------------------------------
# 7. Ranker training on the separable synthetic triplet set
# --------------------------------------------------------------------------

def test_criterion_07_ranker_training(announce):
    start = time.perf_counter()
    config = synth.SynthConfig(
        seed=7, n_pins=1200, queries_per_cluster=30, engagement_per_pin=6
    )
    corpus, _ = synth.generate_corpus(config)
    labeled, _ = curation.curate(corpus, curation.dedup_queries(corpus.queries), seed=0)
    triplets = _triplets_from_labels(
        corpus, ranker.pin_features(corpus), ranker.query_features(corpus), labeled
    )
    perm = np.random.default_rng(3).permutation(len(triplets))
    half = len(triplets) // 2
    train_set, eval_set = triplets[perm[:half]], triplets[perm[half:]]
    assert len(eval_set) >= 2000, f"only {len(eval_set)} eval triplets"

    tower = ranker.TowerConfig(d_v=corpus.d_v, d_t=corpus.d_t)
    untrained = ranker.correct_rank(ranker.RankerModel.init(tower, seed=5), eval_set)
    model, _ = ranker.train_ranker(
        train_set, tower,
        ranker.RankerTrainConfig(steps=1500, learning_rate=0.1, seed=5),
    )
    trained = ranker.correct_rank(model, eval_set)
    elapsed = time.perf_counter() - start
    ok = trained >= 0.97 and 0.4 <= untrained <= 0.6 and elapsed < 120.0
    _verdict(
        announce, 7, "ranker-correct-rank", ok,
        f"{len(eval_set)} eval triplets, trained {trained:.3f} (>= 0.97), "
        f"untrained {untrained:.3f} (in [0.4, 0.6]), {elapsed:.1f}s at x0.125 width",
    )


# --------------------------------------------------------------------------
# 8. Stratified 30/30/40 sampling
# --------------------------------------------------------------------------

def test_criterion_08_stratified_sampling(announce):
    rng = np.random.default_rng(29)
    pool = []
    for category in ("Description", "StyleDetail", "UseCase"):
        for i in range(5000):
            pool.append(
                LabeledPair(
                    pin_signature=i,
                    query=QueryRecord(text=f"{category} {i}", category=category),
                    label=+1,
                )
            )
    rng.shuffle(pool)
    mix = curation.CategoryMix()
    total = 10_000
    sampled, report = curation.stratify_sample(pool, mix, total, seed=31)
    drawn = {c: 0 for c in ("Description", "StyleDetail", "UseCase")}
    for pair in sampled:
        drawn[pair.query.category] += 1
    exact = {
        cat: int(round(total * frac)) for cat, frac in mix.as_dict().items()
    }
    deviations = {cat: abs(drawn[cat] - exact[cat]) for cat in exact}
    ok = len(sampled) == total and max(deviations.values()) <= 1 and not report.with_replacement
    _verdict(
        announce, 8, "stratified-sampling", ok,
        f"10k draw, counts {drawn} vs exact {exact}, max deviation "
        f"{max(deviations.values())} (<= 1)",
    )


# --------------------------------------------------------------------------
# 9. PageRank: mass, ring uniformity, dense oracle
# --------------------------------------------------------------------------

def test_criterion_09_pagerank(announce):
    # 4-ring uniformity
    ring = LinkGraph()
    for i in range(4):
        ring.add_edge(f"n{i}", f"n{(i + 1) % 4}")
    scores = pagerank(ring, tol=1e-12)
    ring_dev = max(abs(v - 0.25) for v in scores.scores.values())
    mass_dev = abs(sum(scores.scores.values()) - 1.0)

    # random digraphs up to 8 nodes vs the dense oracle
    rng = np.random.default_rng(41)
    oracle_worst = 0.0
    for trial in range(30):
        n = int(rng.integers(2, 9))
        nodes = [f"v{i}" for i in range(n)]
        graph = LinkGraph()
        for node in nodes:
            graph.add_node(node)
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.35:
                    graph.add_edge(nodes[i], nodes[j])
        got = pagerank(graph, tol=1e-13)
        mass_dev = max(mass_dev, abs(sum(got.scores.values()) - 1.0))
        want = dense_pagerank(nodes, graph.edges)
        oracle_worst = max(
            oracle_worst, max(abs(got.scores[v] - want[v]) for v in nodes)
        )
    ok = mass_dev <= 1e-9 and ring_dev <= 1e-9 and oracle_worst <= 1e-9
    _verdict(
        announce, 9, "pagerank", ok,
        f"mass dev {mass_dev:.1e}, 4-ring dev {ring_dev:.1e}, dense-oracle dev "
        f"{oracle_worst:.1e} over 30 digraphs (all <= 1e-9)",
    )


# --------------------------------------------------------------------------
# 10. Link-equity ablation direction
# --------------------------------------------------------------------------

def test_criterion_10_ablation_direction(announce, pipeline_run):
    ablation = pipeline_run["report"]["stages"]["eval"]["metrics"]["ablation"]
    enabled = ablation["enabled"]
    control = ablation["control"]
    dropped = ablation["ablation"]
    authority_ok = (
        enabled["mean_collection_authority"]
        >= control["mean_collection_authority"]
        >= dropped["mean_collection_authority"]
    )
    orphan_ok = (
        dropped["orphan_pins"] > enabled["orphan_pins"]
        and dropped["orphan_pins"] > control["orphan_pins"]
    )
    ok = authority_ok and orphan_ok
    _verdict(
        announce, 10, "link-equity-ablation", ok,
        "mean collection authority "
        f"{enabled['mean_collection_authority']:.5f} >= "
        f"{control['mean_collection_authority']:.5f} >= "
        f"{dropped['mean_collection_authority']:.5f}; orphan pins "
        f"{enabled['orphan_pins']}/{control['orphan_pins']}/{dropped['orphan_pins']}",
    )


# --------------------------------------------------------------------------
# 11. Intent-satisfying rate, in-cluster vs off-cluster topics
# --------------------------------------------------------------------------

def test_criterion_11_intent_satisfying_rate(announce, pipeline_run):
    ws = pipeline_run["ws"]
    config = pipeline_run["config"]
    corpus = load_corpus(ws.corpus_dir)
    index = HnswIndex.load(ws.index_file)
    txt_encoder = encoders.load_encoders(ws.encoder_file)["txt"]
    judge = embedding_judge(txt_encoder, threshold=config.judge_threshold)

    collections = load_collections(ws.collections)
    in_rates = [
        intent_satisfying_rate(c, corpus, judge)[0] for c in collections
    ]
    in_mean = float(np.mean(in_rates))

    rng = np.random.default_rng(23)
    off_rates = []
    for i, embedding in enumerate(unit_rows(rng, 8, corpus.d_t)):
        topic = QueryRecord(
            text=f"off cluster topic {i}", category="Description", embedding=embedding
        )
        collection = build_collection(topic, txt_encoder, index, k=config.collection_k)
        off_rates.append(intent_satisfying_rate(collection, corpus, judge)[0])
    off_mean = float(np.mean(off_rates))
    ok = in_mean >= 0.85 and off_mean <= 0.3
    _verdict(
        announce, 11, "intent-satisfying-rate", ok,
        f"in-cluster mean {in_mean:.3f} (>= 0.85) over {len(in_rates)} collections, "
        f"off-cluster mean {off_mean:.3f} (<= 0.3) over 8 topics, k=10",
    )


# --------------------------------------------------------------------------
# 12. Agent determinism and constraint enforcement
# --------------------------------------------------------------------------

def test_criterion_12_agent_determinism(announce, pipeline_run, tmp_path):
    ws = pipeline_run["ws"]
    corpus = load_corpus(ws.corpus_dir)
    index = HnswIndex.load(ws.index_file)
    txt_encoder = encoders.load_encoders(ws.encoder_file)["txt"]
    taxonomy = synth.CLUSTER_TERMS[: pipeline_run["config"].n_clusters]
    min_count = pipeline_run["config"].agent_min_count
    trends_path = ws.trends
    tools = default_tools(corpus, index, txt_encoder, taxonomy, trends_path, min_count)

    emitted_1, trace_1, state_1 = run_episode(tools, {})
    emitted_2, trace_2, _ = run_episode(tools, {})
    bytes_1 = json.dumps(trace_1, sort_keys=True).encode()
    bytes_2 = json.dumps(trace_2, sort_keys=True).encode()
    deterministic = bytes_1 == bytes_2 and [q.to_json() for q in emitted_1] == [
        q.to_json() for q in emitted_2
    ]

    # constraint checks against the trace observations
    term_category = {}
    with open(trends_path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            term_category[obj["term"]] = obj["category"]
    filter_ok = all(
        step["observation"]["p"] >= FILTER_THRESHOLD
        for step in trace_1
        if step["node"] == "filtering"
        and step["action"].get("tool") == "semantic_filter"
        and step["observation"].get("keep")
    )
    expansion_terms = [
        step["action"]["term"]
        for step in trace_1
        if step["node"] == "expansion" and step["action"].get("tool") == "expand_query"
    ]
    low_fit_blocked = all(
        term_category.get(term, "") not in LOW_FIT_CATEGORIES for term in expansion_terms
    )
    lookups = {
        step["observation"]["query"]: step["observation"]
        for step in trace_1
        if step["node"] == "validation"
        and step["action"].get("tool") == "content_lookup"
    }
    outcomes = next(
        step["observation"]["outcomes"]
        for step in trace_1
        if step["action"].get("tool") == "validate"
    )
    constraints_ok = emitted_1 and all(
        outcome["velocity"] >= VELOCITY_FLOOR
        and lookups[outcome["query"]]["sufficient"]
        and lookups[outcome["query"]]["count"] > min_count
        for outcome in outcomes
        if outcome["accepted"]
    )
    emitted_match = [q.text for q in emitted_1] == [
        o["query"] for o in outcomes if o["accepted"]
    ]

    replayed = replay_trace(trace_1, {})
    replay_ok = (
        replayed.cursor == state_1.cursor
        and replayed.long_memory == state_1.long_memory
        and [q.to_json() for q in replayed.emitted]
        == [q.to_json() for q in state_1.emitted]
    )
    ok = bool(
        deterministic and filter_ok and low_fit_blocked and constraints_ok
        and emitted_match and replay_ok
    )
    _verdict(
        announce, 12, "agent-determinism", ok,
        f"{len(emitted_1)} emitted queries, byte-identical traces={deterministic}, "
        f"constraints={bool(constraints_ok)}, low-fit blocked={low_fit_blocked}, "
        f"replay={replay_ok}",
    )


# --------------------------------------------------------------------------
# 13. End-to-end pipeline: runtime, sitemap, report, reproducibility
# --------------------------------------------------------------------------

def test_criterion_13_pipeline_end_to_end(announce, pipeline_run, tmp_path):
    report = pipeline_run["report"]
    ws = pipeline_run["ws"]
    elapsed = pipeline_run["elapsed"]
    stages_ok = all(
        result["status"] == "ok" for result in report["stages"].values()
    )

    root = ET.fromstring(ws.sitemap.read_text(encoding="utf-8"))
    ns = "{http://www.sitemaps.org/schemas/sitemap/0.9}"
    sitemap_ok = root.tag == f"{ns}urlset" and all(
        url.find(f"{ns}loc") is not None and url.find(f"{ns}loc").text
        for url in root
    ) and len(root) > 0

    metrics = report["stages"]["eval"]["metrics"]
    report_complete = all(
        metrics.get(key) is not None
        for key in (
            "recall_at_10", "correct_rank", "intent_satisfying_rate_mean",
            "retention_branches", "pagerank", "ablation",
        )
    )

    rerun_config = pipeline_run["config"].__class__(
        out_dir=tmp_path / "rerun", seed=pipeline_run["config"].seed
    )
    rerun_report, rerun_ok = run_pipeline(rerun_config)
    checksums_match = rerun_ok and rerun_report["checksums"] == report["checksums"]

    ok = stages_ok and elapsed < 60.0 and sitemap_ok and report_complete and checksums_match
    _verdict(
        announce, 13, "pipeline-end-to-end", ok,
        f"all stages ok={stages_ok} in {elapsed:.1f}s (< 60), sitemap valid={sitemap_ok}, "
        f"report complete={report_complete}, rerun checksums identical={checksums_match}",
    )

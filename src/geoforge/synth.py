"""Synthetic clustered corpus generator.

Emits pins, queries, engagement, navboost scores, and a trend feed so the
whole pipeline is runnable without proprietary data. Pins and queries are
drawn around per-topic centroids in embedding space, so retrieval, ranking,
and collection quality are all measurable against known cluster membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Corpus,
    CorpusManifest,
    EngagementRecord,
    PinRecord,
    QueryRecord,
    l2_normalize,
    rng_for,
    save_corpus,
    write_jsonl,
)

CLUSTER_TERMS = [
    "sage green decor",
    "fall nails",
    "capsule wardrobe",
    "modern office outfit",
    "cottage garden",
    "minimalist kitchen",
    "boho bedroom",
    "street style",
    "rustic wedding",
    "cozy reading nook",
]

CLUSTER_CATEGORIES = [
    "home",
    "beauty",
    "fashion",
    "fashion",
    "garden",
    "home",
    "home",
    "fashion",
    "wedding",
    "home",
]

QUERY_TEMPLATES = {
    "Description": ["{term}", "{term} ideas", "{term} photos"],
    "StyleDetail": ["{term} color palette", "{term} aesthetic", "{term} details"],
    "UseCase": [
        "{term} for small spaces",
        "how to style {term}",
        "{term} on a budget",
        "{term} for beginners",
    ],
}

OFF_TOPIC_TRENDS = [
    ("election results", "news"),
    ("playoff scores", "sports"),
    ("senate hearing", "politics"),
]


@dataclass
class SynthConfig:
    n_pins: int = 1000
    n_clusters: int = 8
    d_v: int = 64
    d_t: int = 48
    noise: float = 0.45
    queries_per_cluster: int = 24
    engagement_per_pin: int = 4
    seed: int = 0


def _jitter(centroid: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    # scale per-dimension so the expected noise norm equals `noise` regardless
    # of dimensionality; noise=0.45 puts within-cluster cosine near 0.83
    scale = noise / np.sqrt(centroid.shape[0])
    return l2_normalize(centroid + scale * rng.standard_normal(centroid.shape))


def generate_corpus(config: SynthConfig) -> tuple[Corpus, dict]:
    """Build a clustered corpus plus sidecar data (cluster map, navboost, trends)."""
    if config.n_clusters > len(CLUSTER_TERMS):
        raise ValueError(f"at most {len(CLUSTER_TERMS)} clusters supported")
    rng = rng_for(config.seed, "corpus")

    centroids_v = [
        l2_normalize(rng.standard_normal(config.d_v)) for _ in range(config.n_clusters)
    ]
    centroids_t = [
        l2_normalize(rng.standard_normal(config.d_t)) for _ in range(config.n_clusters)
    ]

    pins: dict[int, PinRecord] = {}
    pin_cluster: dict[int, int] = {}
    for i in range(config.n_pins):
        cluster = i % config.n_clusters
        term = CLUSTER_TERMS[cluster]
        signature = 1_000_000 + i
        pins[signature] = PinRecord(
            signature=signature,
            visual_embedding=_jitter(centroids_v[cluster], config.noise, rng),
            text_embedding=_jitter(centroids_t[cluster], config.noise, rng),
            perception_score=float(rng.uniform(0.3, 1.0)),
            title=f"{term} look {i}",
            description=f"inspiration for {term}",
            board_id=int(cluster * 10 + rng.integers(0, 3)),
            category=CLUSTER_CATEGORIES[cluster],
            language="en",
        )
        pin_cluster[signature] = cluster

    queries: list[QueryRecord] = []
    query_cluster: dict[str, int] = {}
    for cluster in range(config.n_clusters):
        term = CLUSTER_TERMS[cluster]
        emitted = 0
        variant = 0
        while emitted < config.queries_per_cluster:
            for category, templates in QUERY_TEMPLATES.items():
                if emitted >= config.queries_per_cluster:
                    break
                template = templates[variant % len(templates)]
                text = template.format(term=term)
                if variant >= len(templates):
                    text = f"{text} {variant}"
                if text in query_cluster:
                    emitted += 1
                    continue
                queries.append(
                    QueryRecord(
                        text=text,
                        category=category,
                        embedding=_jitter(centroids_t[cluster], config.noise, rng),
                    )
                )
                query_cluster[text] = cluster
                emitted += 1
            variant += 1

    # Engagement covers every branch of the retention filter plus records
    # that fail it, and a sprinkling of cross-cluster noise pairs.
    engagement: list[EngagementRecord] = []
    navboost: dict[tuple[str, int], float] = {}
    cluster_queries: dict[int, list[QueryRecord]] = {}
    for q in queries:
        cluster_queries.setdefault(query_cluster[q.text], []).append(q)

    for signature, pin in pins.items():
        cluster = pin_cluster[signature]
        own = cluster_queries[cluster]
        picks = rng.choice(len(own), size=min(config.engagement_per_pin, len(own)), replace=False)
        for j, qi in enumerate(picks):
            query = own[int(qi)]
            branch = int(rng.integers(0, 4))
            if branch == 0:  # high impressions
                impressions = int(rng.integers(1001, 50000))
                clicks = int(rng.integers(0, impressions // 10 + 1))
                position = float(rng.uniform(1, 40))
            elif branch == 1:  # high CTR
                impressions = int(rng.integers(11, 1000))
                clicks = int(np.ceil(impressions * rng.uniform(0.8, 1.0)))
                clicks = min(clicks, impressions)
                position = float(rng.uniform(11, 40))
            elif branch == 2:  # strong position
                impressions = int(rng.integers(11, 1000))
                clicks = int(rng.integers(0, impressions // 2 + 1))
                position = float(rng.uniform(1, 10))
            else:  # fails retention
                impressions = int(rng.integers(0, 10))
                clicks = int(rng.integers(0, impressions + 1)) if impressions else 0
                position = float(rng.uniform(11, 60))
            engagement.append(
                EngagementRecord(
                    query_text=query.text,
                    pin_signature=signature,
                    impressions=impressions,
                    clicks=clicks,
                    avg_position=position,
                )
            )
            if j == 0:
                navboost[(query.text, signature)] = float(rng.uniform(0.0, 1.0))
        # one cross-cluster record per pin, always weak
        other = cluster_queries[(cluster + 1) % config.n_clusters]
        query = other[int(rng.integers(0, len(other)))]
        engagement.append(
            EngagementRecord(
                query_text=query.text,
                pin_signature=signature,
                impressions=int(rng.integers(0, 10)),
                clicks=0,
                avg_position=float(rng.uniform(20, 80)),
            )
        )

    corpus = Corpus(
        pins=pins,
        queries=queries,
        engagement=engagement,
        labels=[],
        d_v=config.d_v,
        d_t=config.d_t,
        seed=config.seed,
    )
    sidecar = {
        "pin_cluster": pin_cluster,
        "query_cluster": query_cluster,
        "centroids_v": centroids_v,
        "centroids_t": centroids_t,
        "navboost": navboost,
        "terms": CLUSTER_TERMS[: config.n_clusters],
    }
    return corpus, sidecar


def generate_trends(config: SynthConfig, n_per_cluster: int = 2) -> list[dict]:
    """Trend feed mixing on-taxonomy terms with always-rejected categories."""
    rng = rng_for(config.seed, "agent")
    trends: list[dict] = []
    for cluster in range(config.n_clusters):
        term = CLUSTER_TERMS[cluster]
        for k in range(n_per_cluster):
            trends.append(
                {
                    "term": term if k == 0 else f"{term} trend {k}",
                    "region": "US",
                    "timespan": "7d",
                    "velocity": float(np.round(rng.uniform(0.25, 3.0), 4)),
                    "category": CLUSTER_CATEGORIES[cluster],
                }
            )
    for term, category in OFF_TOPIC_TRENDS:
        trends.append(
            {
                "term": term,
                "region": "US",
                "timespan": "7d",
                "velocity": float(np.round(rng.uniform(0.5, 3.0), 4)),
                "category": category,
            }
        )
    return trends


def write_corpus_bundle(out_dir: str | Path, config: SynthConfig) -> CorpusManifest:
    """Generate and persist the full synthetic bundle; returns its manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus, sidecar = generate_corpus(config)

    manifest = CorpusManifest(
        pins_path=out / "pins.jsonl",
        queries_path=out / "queries.jsonl",
        engagement_path=out / "engagement.jsonl",
        labels_path=None,
        d_v=config.d_v,
        d_t=config.d_t,
        seed=config.seed,
    )
    save_corpus(corpus, manifest)
    write_jsonl(
        out / "navboost.jsonl",
        (
            {"query_text": q, "pin_signature": s, "coverage": c}
            for (q, s), c in sidecar["navboost"].items()
        ),
    )
    write_jsonl(
        out / "clusters.jsonl",
        (
            {"pin_signature": s, "cluster": c, "term": CLUSTER_TERMS[c]}
            for s, c in sidecar["pin_cluster"].items()
        ),
    )
    write_jsonl(out / "trends.jsonl", generate_trends(config))
    manifest.save(out / "manifest.txt")
    return manifest

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
    CorpusError,
    EngagementRecord,
    PinRecord,
    QueryRecord,
    l2_normalize,
    read_only,
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

# the expected norm of the jitter around a cluster centroid: 0.45 puts
# within-cluster cosine near 0.83
NOISE = 0.45
TRENDS_PER_CLUSTER = 2
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
    queries_per_cluster: int = 24
    engagement_per_pin: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_pins", "d_v", "d_t", "queries_per_cluster"):
            if getattr(self, name) < 1:
                raise CorpusError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 1 <= self.n_clusters <= len(CLUSTER_TERMS):
            raise CorpusError(f"n_clusters must be in [1, {len(CLUSTER_TERMS)}], got {self.n_clusters}")
        if self.engagement_per_pin < 0:
            raise CorpusError(f"engagement_per_pin must be at least 0, got {self.engagement_per_pin}")


def _jitter(centroid: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # scale per-dimension so the jitter's expected norm is NOISE at any dimension
    scale = NOISE / np.sqrt(centroid.shape[0])
    return l2_normalize(centroid + scale * rng.standard_normal(centroid.shape))


def generate_corpus(config: SynthConfig) -> tuple[Corpus, dict]:
    """Build a clustered corpus plus sidecar data: the pin and query cluster
    maps and the navboost coverage of (query text, pin signature) pairs."""
    rng = rng_for(config.seed, "corpus")

    centroids_v = [
        l2_normalize(rng.standard_normal(config.d_v)) for _ in range(config.n_clusters)
    ]
    centroids_t = [
        l2_normalize(rng.standard_normal(config.d_t)) for _ in range(config.n_clusters)
    ]

    visual = np.empty((config.n_pins, config.d_v))
    pin_text = np.empty((config.n_pins, config.d_t))
    pin_fields: list[dict] = []  # each pin's other fields
    pin_cluster: dict[int, int] = {}
    for i in range(config.n_pins):
        cluster = i % config.n_clusters
        term = CLUSTER_TERMS[cluster]
        signature = 1_000_000 + i
        visual[i] = _jitter(centroids_v[cluster], rng)
        pin_text[i] = _jitter(centroids_t[cluster], rng)
        pin_fields.append(dict(
            signature=signature, perception_score=float(rng.uniform(0.3, 1.0)),
            title=f"{term} look {i}", description=f"inspiration for {term}",
            board_id=int(cluster * 10 + rng.integers(0, 3)), category=CLUSTER_CATEGORIES[cluster],
        ))
        pin_cluster[signature] = cluster
    visual, pin_text = read_only(visual), read_only(pin_text)
    pins = {f["signature"]: PinRecord(visual_embedding=v, text_embedding=t, **f)
            for f, v, t in zip(pin_fields, visual, pin_text)}

    query_texts: list[tuple[str, str]] = []  # (text, category)
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
                query_texts.append((text, category))
                query_cluster[text] = cluster
                emitted += 1
            variant += 1
    query_embeddings = read_only(
        [_jitter(centroids_t[query_cluster[t]], rng) for t, _ in query_texts]
    )
    queries = [QueryRecord(t, c, embedding=e) for (t, c), e in zip(query_texts, query_embeddings)]

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

    corpus = Corpus(pins=pins, queries=queries, engagement=engagement, visual=visual,
                    text=pin_text, query_embeddings=query_embeddings)
    sidecar = {
        "pin_cluster": pin_cluster,
        "query_cluster": query_cluster,
        "navboost": navboost,
    }
    return corpus, sidecar


def generate_trends(config: SynthConfig) -> list[dict]:
    """Trend feed mixing on-taxonomy terms, TRENDS_PER_CLUSTER each, with
    always-rejected categories, whose velocities start higher."""
    rng = rng_for(config.seed, "agent")
    on_topic = [(term if k == 0 else f"{term} trend {k}", category, 0.25)
                for term, category in zip(CLUSTER_TERMS[: config.n_clusters], CLUSTER_CATEGORIES)
                for k in range(TRENDS_PER_CLUSTER)]
    return [{"term": term, "region": "US", "timespan": "7d",
             "velocity": float(np.round(rng.uniform(low, 3.0), 4)), "category": category}
            for term, category, low in on_topic + [(*trend, 0.5) for trend in OFF_TOPIC_TRENDS]]


def write_corpus_bundle(out_dir: str | Path, config: SynthConfig) -> None:
    """Generate the full synthetic bundle and write it to ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus, sidecar = generate_corpus(config)
    save_corpus(corpus, out)
    write_jsonl(
        out / "navboost.jsonl",
        (
            {"query_text": q, "pin_signature": s, "coverage": c}
            for (q, s), c in sidecar["navboost"].items()
        ),
    )
    write_jsonl(out / "trends.jsonl", generate_trends(config))

"""Synthetic clustered corpus generator.

Emits pins, queries, engagement, and a trend feed so the whole pipeline is
runnable without proprietary data. Pins and queries are drawn around
per-topic centroids in embedding space, so retrieval, ranking, and
collection quality are all measurable against known cluster membership.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Corpus,
    CorpusError,
    Engagement,
    PinRecord,
    QueryRecord,
    l2_normalize_rows,
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


# The engagement record kinds, one row each: impressions in [low, high),
# clicks in 0..impressions // divisor, and avg_position in [low, high). The
# high-CTR kind takes its clicks from a click-through rate in [0.8, 1)
# instead; the cross-cluster kind's fewer than 10 impressions give no clicks.
# The first four are the branches of the retention filter, drawn uniformly.
RECORD_KINDS = np.array([
    # impressions  divisor  position
    [1001, 50000, 10, 1, 40],  # high impressions
    [11, 1000, 1, 11, 40],  # high CTR
    [11, 1000, 2, 1, 10],  # strong position
    [0, 10, 1, 11, 60],  # fails retention
    [0, 10, 10, 20, 80],  # one weak cross-cluster record per pin
])
HIGH_CTR, CROSS_CLUSTER = 1, 4


def _query_texts(term: str, count: int) -> list[tuple[str, str]]:
    """A cluster's first ``count`` (text, category) queries: each variant
    takes one template per category, in QUERY_TEMPLATES order, and a variant
    past a category's templates reuses them with its number appended."""
    queries: list[tuple[str, str]] = []
    for variant in itertools.count():
        for category, templates in QUERY_TEMPLATES.items():
            if len(queries) == count:
                return queries
            text = templates[variant % len(templates)].format(term=term)
            queries.append((f"{text} {variant}" if variant >= len(templates) else text, category))


def _around(centroids: np.ndarray, clusters: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A read-only unit row around the centroid of each entry of
    ``clusters``, its jitter scaled per dimension so that the jitter's
    expected norm is NOISE at any width."""
    rows = rng.standard_normal((len(clusters), centroids.shape[1]))
    rows *= NOISE / np.sqrt(centroids.shape[1])
    rows += centroids[clusters]
    return read_only(l2_normalize_rows(rows))


def _engagement_fields(kinds: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Impressions, clicks and avg_position for records of RECORD_KINDS
    ``kinds``, each a flat array in row order."""
    low, high, divisor, first, last = RECORD_KINDS[kinds].transpose(2, 0, 1)
    impressions = rng.integers(low, high)
    clicks = rng.integers(0, impressions // divisor + 1)
    high_ctr = kinds == HIGH_CTR
    ctr = rng.uniform(0.8, 1.0, np.count_nonzero(high_ctr))
    clicks[high_ctr] = np.ceil(impressions[high_ctr] * ctr)
    return [impressions.ravel(), clicks.ravel(), rng.uniform(first, last).ravel()]


def generate_corpus(config: SynthConfig) -> tuple[Corpus, dict]:
    """Build a clustered corpus plus sidecar data, the pin and query cluster maps.

    Each random field is one array draw from the corpus stream. Pin i has
    signature 1_000_000 + i and cluster i % n_clusters; its vectors, and
    each query's, lie around the cluster's centroids. A pin's engagement is
    ``min(engagement_per_pin, queries_per_cluster)`` distinct own-cluster
    queries in random order, each of a RECORD_KINDS branch drawn uniformly,
    then one weak record for a query of the next cluster."""
    rng = rng_for(config.seed, "corpus")
    n_pins, n_clusters, per_cluster = config.n_pins, config.n_clusters, config.queries_per_cluster
    centroids_v = l2_normalize_rows(rng.standard_normal((n_clusters, config.d_v)))
    centroids_t = l2_normalize_rows(rng.standard_normal((n_clusters, config.d_t)))

    pin_clusters = np.arange(n_pins) % n_clusters
    visual = _around(centroids_v, pin_clusters, rng)
    pin_text = _around(centroids_t, pin_clusters, rng)
    pins = {
        signature: PinRecord(
            signature=signature, visual_embedding=v, text_embedding=t, perception_score=score,
            title=f"{CLUSTER_TERMS[cluster]} look {i}",
            description=f"inspiration for {CLUSTER_TERMS[cluster]}", board_id=board,
            category=CLUSTER_CATEGORIES[cluster],
        )
        for i, (signature, cluster, v, t, score, board) in enumerate(zip(
            range(1_000_000, 1_000_000 + n_pins), pin_clusters.tolist(), visual, pin_text,
            rng.uniform(0.3, 1.0, n_pins).tolist(),
            (pin_clusters * 10 + rng.integers(0, 3, n_pins)).tolist(),
        ))
    }

    # queries come cluster by cluster, per_cluster each
    query_texts = [query for term in CLUSTER_TERMS[:n_clusters]
                   for query in _query_texts(term, per_cluster)]
    query_embeddings = _around(centroids_t, np.arange(len(query_texts)) // per_cluster, rng)
    queries = [QueryRecord(t, c, embedding=e) for (t, c), e in zip(query_texts, query_embeddings)]

    # Row i holds pin i's records in order: its own-cluster picks, then the
    # cross-cluster record.
    per_pin = min(config.engagement_per_pin, per_cluster)
    first_row = per_cluster * pin_clusters[:, None]  # of the pin's cluster's queries
    query_rows = np.hstack([
        first_row + rng.random((n_pins, per_cluster)).argsort(axis=1)[:, :per_pin],
        (first_row + per_cluster) % len(queries) + rng.integers(0, per_cluster, (n_pins, 1)),
    ])
    kinds = np.full((n_pins, per_pin + 1), CROSS_CLUSTER)
    kinds[:, :per_pin] = rng.integers(0, CROSS_CLUSTER, (n_pins, per_pin))
    impressions, clicks, positions = _engagement_fields(kinds, rng)
    engagement = Engagement(np.repeat(np.arange(n_pins), per_pin + 1), query_rows.ravel(),
                            impressions, clicks, positions)

    corpus = Corpus(pins=pins, queries=queries, engagement=engagement, visual=visual,
                    text=pin_text, query_embeddings=query_embeddings)
    sidecar = {
        "pin_cluster": dict(zip(pins, pin_clusters.tolist())),
        "query_cluster": {text: row // per_cluster for row, (text, _) in enumerate(query_texts)},
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
    corpus, _ = generate_corpus(config)
    save_corpus(corpus, out)
    write_jsonl(out / "trends.jsonl", generate_trends(config))

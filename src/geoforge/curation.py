"""Training-data curation: retention filter, top-query selection, stratified
sampling, label assignment with navboost promotion, and near-duplicate
query merging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    EngagementRecord,
    LabeledPair,
    QueryRecord,
    cosine,
    rng_for,
)

NAVBOOST_PROMOTION = 0.54  # strictly-greater promotion threshold
RELATEDNESS_CEILING = 0.5  # hard negatives must be below this cosine
DEDUP_THRESHOLD = 0.9


class CurationError(ValueError):
    pass


def retain(record: EngagementRecord) -> bool:
    """Retention filter for demonstrated search performance.

    True iff impressions > 1000, or impressions > 10 with CTR >= 0.8, or
    impressions > 10 with average position <= 10. CTR is never evaluated
    for zero-impression records (the impressions gate fails first).
    """
    return bool(retention_branches(record))


def retention_branches(record: EngagementRecord) -> list[str]:
    """Which filter branches a record satisfies; used for curation reports."""
    branches = []
    if record.impressions > 1000:
        branches.append("impressions")
    if record.impressions > 10 and record.ctr() >= 0.8:
        branches.append("ctr")
    if record.impressions > 10 and record.avg_position <= 10:
        branches.append("position")
    return branches


def select_top_queries(
    records: list[EngagementRecord], n: int = 30
) -> list[EngagementRecord]:
    """Top-n retained queries for one pin, by impressions then position.

    Ties break on impressions desc, then avg_position asc, then query text,
    so the ordering is fully deterministic.
    """
    if n < 1:
        raise CurationError(f"n must be >= 1, got {n}")
    signatures = {r.pin_signature for r in records}
    if len(signatures) > 1:
        raise CurationError(f"records span multiple pins: {sorted(signatures)}")
    kept = [r for r in records if retain(r)]
    kept.sort(key=lambda r: (-r.impressions, r.avg_position, r.query_text))
    return kept[:n]


@dataclass(frozen=True)
class CategoryMix:
    description_frac: float = 0.3
    style_frac: float = 0.3
    usecase_frac: float = 0.4

    def __post_init__(self) -> None:
        fracs = (self.description_frac, self.style_frac, self.usecase_frac)
        if any(f < 0 or f > 1 for f in fracs):
            raise CurationError(f"fractions must lie in [0, 1]: {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise CurationError(f"fractions must sum to 1: {fracs}")

    def as_dict(self) -> dict[str, float]:
        return {
            "Description": self.description_frac,
            "StyleDetail": self.style_frac,
            "UseCase": self.usecase_frac,
        }


def category_counts(mix: CategoryMix, total: int) -> dict[str, int]:
    """Integer per-category counts: round each share, hand the remainder to
    the largest fractional parts."""
    exact = {cat: total * frac for cat, frac in mix.as_dict().items()}
    counts = {cat: int(np.floor(x)) for cat, x in exact.items()}
    remainder = total - sum(counts.values())
    by_fraction = sorted(
        exact, key=lambda cat: (exact[cat] - counts[cat], cat), reverse=True
    )
    for cat in by_fraction[:remainder]:
        counts[cat] += 1
    return counts


@dataclass
class SampleReport:
    counts: dict[str, int] = field(default_factory=dict)
    with_replacement: list[str] = field(default_factory=list)


def stratify_sample(
    pairs: list[LabeledPair], mix: CategoryMix, total: int, seed: int
) -> tuple[list[LabeledPair], SampleReport]:
    """Draw `total` pairs matching the category mix.

    Sampling is without replacement per category when the pool suffices,
    with replacement otherwise (flagged in the report).
    """
    pools: dict[str, list[LabeledPair]] = {}
    for pair in pairs:
        pools.setdefault(pair.query.category, []).append(pair)
    counts = category_counts(mix, total)
    rng = np.random.default_rng(seed)
    out: list[LabeledPair] = []
    report = SampleReport(counts=dict(counts))
    for cat in ("Description", "StyleDetail", "UseCase"):
        want = counts[cat]
        if want == 0:
            continue
        pool = pools.get(cat, [])
        if not pool:
            raise CurationError(f"empty pool for required category {cat}")
        replace = len(pool) < want
        if replace:
            report.with_replacement.append(cat)
        idx = rng.choice(len(pool), size=want, replace=replace)
        out.extend(pool[int(i)] for i in idx)
    return out, report


def label_pairs(
    positives: list[LabeledPair],
    pool: list[QueryRecord],
    navboost: dict[tuple[str, int], float],
    neg_per_pos: int,
    seed: int,
) -> list[LabeledPair]:
    """Assign ranker labels: positives stay +1 (navboost > 0.54 promotes),
    and each positive draws `neg_per_pos` unrelated hard negatives.

    A pool query qualifies as a negative only when its embedding cosine to
    the positive query is below the relatedness ceiling.
    """
    rng = np.random.default_rng(seed)
    out: list[LabeledPair] = []
    starved: list[str] = []
    for positive in positives:
        coverage = navboost.get(
            (positive.query.text, positive.pin_signature), positive.navboost_coverage
        )
        label = +1 if (positive.label == +1 or coverage > NAVBOOST_PROMOTION) else positive.label
        out.append(
            LabeledPair(
                pin_signature=positive.pin_signature,
                query=positive.query,
                label=label,
                navboost_coverage=coverage,
                source=positive.source,
            )
        )
        if positive.query.embedding is None:
            raise CurationError(f"positive {positive.query.text!r} lacks an embedding")
        unrelated = [
            q
            for q in pool
            if q.embedding is not None
            and q.text != positive.query.text
            and cosine(q.embedding, positive.query.embedding) < RELATEDNESS_CEILING
        ]
        if len(unrelated) < neg_per_pos:
            starved.append(positive.query.text)
            continue
        idx = rng.choice(len(unrelated), size=neg_per_pos, replace=False)
        for i in idx:
            negative = unrelated[int(i)]
            out.append(
                LabeledPair(
                    pin_signature=positive.pin_signature,
                    query=negative,
                    label=-1,
                    navboost_coverage=0.0,
                    source="HardNegative",
                )
            )
    if starved:
        raise CurationError(
            f"not enough unrelated negatives for {len(starved)} positives: "
            f"{starved[:5]}"
        )
    return out


def dedup_queries(
    queries: list[QueryRecord], threshold: float = DEDUP_THRESHOLD
) -> list[QueryRecord]:
    """Greedy single-pass merge: drop a query whose cosine to any already
    retained query reaches the threshold. Retained order is input order."""
    retained: list[QueryRecord] = []
    for query in queries:
        if query.embedding is None:
            raise CurationError(f"query {query.text!r} lacks an embedding")
        if all(cosine(query.embedding, kept.embedding) < threshold for kept in retained):
            retained.append(query)
    return retained


def curate(
    corpus_queries: list[QueryRecord],
    engagement: list[EngagementRecord],
    navboost: dict[tuple[str, int], float],
    neg_per_pos: int = 2,
    top_n: int = 30,
    dedup_threshold: float = DEDUP_THRESHOLD,
    seed: int = 0,
) -> tuple[list[LabeledPair], dict]:
    """Full curation pass: filter engagement, pick top queries per pin,
    label with hard negatives, and report per-branch counts."""
    by_query = {q.text: q for q in corpus_queries}
    deduped = dedup_queries(corpus_queries, dedup_threshold)

    branch_counts = {"impressions": 0, "ctr": 0, "position": 0, "rejected": 0}
    by_pin: dict[int, list[EngagementRecord]] = {}
    for record in engagement:
        branches = retention_branches(record)
        if branches:
            for b in branches:
                branch_counts[b] += 1
            by_pin.setdefault(record.pin_signature, []).append(record)
        else:
            branch_counts["rejected"] += 1

    positives: list[LabeledPair] = []
    for signature in sorted(by_pin):
        for record in select_top_queries(by_pin[signature], n=top_n):
            query = by_query.get(record.query_text)
            if query is None:
                continue
            positives.append(
                LabeledPair(
                    pin_signature=signature,
                    query=query,
                    label=+1,
                    navboost_coverage=navboost.get((record.query_text, signature), 0.0),
                    source="SearchConsole",
                )
            )

    labeled = label_pairs(
        positives, deduped, navboost, neg_per_pos=neg_per_pos, seed=seed
    )
    histogram: dict[str, int] = {}
    for pair in labeled:
        histogram[pair.query.category] = histogram.get(pair.query.category, 0) + 1
    report = {
        "retention_branches": branch_counts,
        "category_histogram": histogram,
        "dedup_merged": len(corpus_queries) - len(deduped),
        "positives": sum(1 for p in labeled if p.label == +1),
        "negatives": sum(1 for p in labeled if p.label == -1),
    }
    return labeled, report

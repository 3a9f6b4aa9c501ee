"""Training-data curation: retention filter, top-query selection, stratified
sampling, hard-negative labelling, and near-duplicate query merging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Corpus, Engagement, LabeledPair, QueryRecord, ZeroNormError, l2_normalize_rows,
)

RELATEDNESS_CEILING = 0.5  # hard negatives must be below this cosine
DEDUP_THRESHOLD = 0.9
TOP_QUERIES = 30  # retained queries kept per pin


class CurationError(ValueError):
    pass


def retain(engagement: Engagement) -> np.ndarray:
    """Retention filter for demonstrated search performance, as a boolean
    mask over the engagement rows.

    A row is kept iff impressions > 1000, or impressions > 10 with CTR >=
    0.8, or impressions > 10 with average position <= 10. CTR is never
    evaluated for rows of 10 impressions or fewer, zero among them.
    """
    return np.logical_or.reduce(list(retention_branches(engagement).values()))


def retention_branches(engagement: Engagement) -> dict[str, np.ndarray]:
    """Which filter branches each engagement row satisfies, as one boolean
    mask per branch; used for curation reports."""
    shown = engagement.impressions
    seen = shown > 10
    ctr = np.divide(engagement.clicks, shown, out=np.zeros(len(shown)), where=seen)
    return {"impressions": shown > 1000, "ctr": seen & (ctr >= 0.8),
            "position": seen & (engagement.avg_position <= 10)}


@dataclass(frozen=True)
class CategoryMix:
    description_frac: float = 0.3
    style_frac: float = 0.3
    usecase_frac: float = 0.4

    def __post_init__(self) -> None:
        fracs = (self.description_frac, self.style_frac, self.usecase_frac)
        if not all(0 <= f <= 1 for f in fracs):  # NaN too
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
    if total < 0:
        raise CurationError(f"total must be at least 0, got {total}")
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


def _embedding_units(queries: list[QueryRecord]) -> np.ndarray:
    """The queries' embeddings as a matrix of unit rows (`l2_normalize_rows`);
    a query without an embedding, or with one that has no unit vector, is
    fatal."""
    for query in queries:
        if query.embedding is None:
            raise CurationError(f"query {query.text!r} lacks an embedding")
    try:
        return l2_normalize_rows(np.array([q.embedding for q in queries], dtype=np.float64))
    except ZeroNormError as exc:
        raise CurationError(f"query {queries[exc.row].text!r} has a zero-norm embedding") from exc


def label_pairs(
    positives: list[LabeledPair], pool: list[QueryRecord], neg_per_pos: int, seed: int
) -> list[LabeledPair]:
    """Label each positive, which must carry label +1, with `neg_per_pos`
    unrelated hard negatives of label -1, each after its positive.

    Every positive and pool query needs an embedding. A pool query with
    another text qualifies as a negative when its cosine to the positive,
    clipped to [-1, 1], is strictly below RELATEDNESS_CEILING. The pool is
    fixed, so the qualifying list depends only on the positive's text: it is
    built once per distinct text from one product of unit-normalised pool
    rows against the unit positive, and keeps pool order. The RNG draws one
    index set per positive in input order. The output equals that of a
    cosine computed for each pair alone unless a cosine lies within rounding
    (about 1e-15) of the ceiling, where the two roundings may disagree.
    """
    if neg_per_pos < 0:
        raise CurationError(f"neg_per_pos must be at least 0, got {neg_per_pos}")
    rng = np.random.default_rng(seed)
    pool_units = _embedding_units(pool) if pool else None
    unrelated_by_text: dict[str, list[QueryRecord]] = {}
    out: list[LabeledPair] = []
    starved: list[str] = []
    for positive in positives:
        text = positive.query.text
        if positive.label != +1:
            raise CurationError(f"positive {text!r} has label {positive.label}, not +1")
        out.append(positive)
        unrelated = unrelated_by_text.get(text)
        if unrelated is None:
            unit = _embedding_units([positive.query])[0]
            sims = np.clip(pool_units @ unit, -1.0, 1.0).tolist() if pool else []
            unrelated_by_text[text] = unrelated = [
                q for q, sim in zip(pool, sims) if q.text != text and sim < RELATEDNESS_CEILING
            ]
        if len(unrelated) < neg_per_pos:
            starved.append(text)
            continue
        idx = rng.choice(len(unrelated), size=neg_per_pos, replace=False)
        out.extend(LabeledPair(positive.pin_signature, unrelated[i], -1) for i in idx.tolist())
    if starved:
        raise CurationError(
            f"not enough unrelated negatives for {len(starved)} positives: "
            f"{starved[:5]}"
        )
    return out


def dedup_queries(
    queries: list[QueryRecord], threshold: float = DEDUP_THRESHOLD
) -> list[QueryRecord]:
    """Greedy single-pass merge over input order: a query is retained iff its
    clipped cosine to every already retained query is strictly below the
    threshold, so a query at or above it merges into the earliest retained
    neighbour. The cosines come from one Gram matrix of unit rows, which
    matches per-pair cosines up to rounding (about 1e-15); the greedy pass
    reads its rows in input order. Retained order is input order."""
    if not queries:
        return []
    units = _embedding_units(queries)
    gram = np.clip(units @ units.T, -1.0, 1.0)
    kept: list[int] = []
    for i in range(len(queries)):
        if not kept or bool((gram[i, kept] < threshold).all()):
            kept.append(i)
    return [queries[i] for i in kept]


def text_ranks(queries: list[QueryRecord]) -> np.ndarray:
    """Each query's place in the order of the texts, the tie-break of every
    ranking of queries."""
    return np.argsort(sorted(range(len(queries)), key=lambda row: queries[row].text))


def curate(
    corpus: Corpus, deduped: list[QueryRecord], neg_per_pos: int = 2, seed: int = 0
) -> tuple[list[LabeledPair], dict]:
    """Full curation pass: filter the corpus's engagement, pick each pin's
    TOP_QUERIES retained queries (by impressions descending, then average
    position ascending, then query text) as positives, label with hard
    negatives drawn from ``deduped``, the corpus queries' `dedup_queries`,
    and report per-branch counts."""
    engagement = corpus.engagement
    kept = retain(engagement)
    branch_counts = {name: int(np.count_nonzero(mask))
                     for name, mask in retention_branches(engagement).items()}
    branch_counts["rejected"] = len(kept) - int(np.count_nonzero(kept))

    queries, pin_row, query_row = corpus.queries, engagement.pin_row, engagement.query_row
    text_rank = text_ranks(queries)
    # one stable sort of the kept rows: by pin, then by the pin's preference
    rows = np.flatnonzero(kept)
    rows = rows[np.lexsort((text_rank[query_row[rows]], engagement.avg_position[rows],
                            -engagement.impressions[rows], pin_row[rows]))]
    # a row's place among its pin's is its place less that of the pin's first
    top = rows[np.arange(len(rows)) - np.searchsorted(pin_row[rows], pin_row[rows]) < TOP_QUERIES]
    positives = [LabeledPair(signature, queries[row], +1) for signature, row in zip(
        corpus.signatures[pin_row[top]].tolist(), query_row[top].tolist())]

    labeled = label_pairs(positives, deduped, neg_per_pos=neg_per_pos, seed=seed)
    histogram: dict[str, int] = {}
    for pair in labeled:
        histogram[pair.query.category] = histogram.get(pair.query.category, 0) + 1
    report = {
        "retention_branches": branch_counts,
        "category_histogram": histogram,
        "dedup_merged": len(corpus.queries) - len(deduped),
        "positives": sum(1 for p in labeled if p.label == +1),
        "negatives": sum(1 for p in labeled if p.label == -1),
    }
    return labeled, report

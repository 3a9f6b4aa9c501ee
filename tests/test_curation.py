"""Retention filter, top-query selection, stratified sampling, labeling,
and query dedup."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoforge.core import ENGAGEMENT_ARRAYS, Engagement, LabeledPair, QueryRecord
from geoforge.curation import (
    DEDUP_THRESHOLD,
    RELATEDNESS_CEILING,
    TOP_QUERIES,
    CategoryMix,
    CurationError,
    category_counts,
    curate,
    dedup_queries,
    label_pairs,
    retain,
    retention_branches,
    stratify_sample,
)

from _oracles import cosine, curation_oracle, retention_oracle


def _engagement(impressions, clicks, positions, pins=None, queries=None) -> Engagement:
    """Engagement columns; each row is of pin row 0 and query row 0 unless
    ``pins`` and ``queries`` say otherwise."""
    zeros = np.zeros(len(impressions), dtype=np.int64)
    return Engagement(zeros if pins is None else pins, zeros if queries is None else queries,
                      impressions, clicks, positions)


class TestRetention:
    @given(st.lists(st.tuples(st.integers(0, 5000), st.floats(0.0, 1.0), st.floats(1.0, 100.0)),
                    max_size=40))
    @settings(max_examples=150)
    def test_matches_independent_oracle(self, rows):
        impressions = [n for n, _, _ in rows]
        clicks = [min(n, int(frac * n)) for n, frac, _ in rows]
        positions = [float(np.float32(p)) for _, _, p in rows]  # as the column holds them
        kept = retain(_engagement(impressions, clicks, positions))
        assert kept.dtype == bool and kept.tolist() == [
            retention_oracle(*row) for row in zip(impressions, clicks, positions)]

    @pytest.mark.filterwarnings("error")
    def test_ctr_not_evaluated_at_or_below_ten_impressions(self):
        # a division by zero impressions would warn, and the warning fail
        assert retain(_engagement([0, 10], [0, 10], [50.0, 50.0])).tolist() == [False, False]

    def test_branches_consistent_with_retain(self):
        engagement = _engagement([2000, 100, 100, 5, 2000], [0, 90, 0, 5, 1900],
                                 [50.0, 30.0, 5.0, 1.0, 5.0])
        branches = retention_branches(engagement)
        assert np.array_equal(np.logical_or.reduce(list(branches.values())), retain(engagement))
        assert {name: mask.tolist() for name, mask in branches.items()} == {
            "impressions": [True, False, False, False, True],
            "ctr": [False, True, False, False, True],
            "position": [False, False, True, False, True],
        }


def _random_engagement(rng: np.random.Generator, n: int) -> Engagement:
    """80 + ``n`` engagement rows over a corpus's first 12 pins and first 8
    queries, of few distinct values so that impressions, positions and
    texts tie, with pin row 0 retained in every one of its 60 rows and pin
    row 1 in none of them."""
    pins = np.concatenate([np.zeros(60, np.int64), np.ones(20, np.int64), rng.integers(2, 12, n)])
    impressions = np.concatenate([np.full(60, 2000), np.full(20, 5), rng.choice([0, 5, 11, 50, 1001, 2000], n)])
    clicks = (impressions * rng.choice([0.0, 0.5, 0.79, 0.8, 1.0], len(pins))).astype(np.int64)
    return Engagement(pins, rng.integers(0, 8, len(pins)), impressions, clicks,
                      rng.choice([1.0, 5.0, 10.0, 10.5, 40.0], len(pins)))


class TestTopQueries:
    @pytest.mark.parametrize("seed", range(5))
    def test_curate_matches_the_record_at_a_time_oracle(self, small_synth, seed):
        corpus, _, _ = small_synth
        rng = np.random.default_rng(seed)
        engagement = _random_engagement(rng, 400)
        tied = dataclasses.replace(corpus, engagement=engagement)
        signatures, texts = corpus.signatures.tolist(), [q.text for q in corpus.queries]
        columns = (getattr(engagement, name).tolist() for name in ENGAGEMENT_ARRAYS)
        records = [(signatures[pin], texts[query], *fields) for pin, query, *fields in zip(*columns)]
        positives, counts = curation_oracle(records, TOP_QUERIES)
        labeled, report = curate(tied, [], neg_per_pos=0)
        assert [(p.pin_signature, p.query.text) for p in labeled] == positives
        assert all(p.label == +1 for p in labeled)
        assert report["retention_branches"] == counts
        # the oracle saw the cases the table is built for
        per_pin = Counter(signature for signature, *_ in positives)
        assert per_pin[signatures[0]] == TOP_QUERIES and signatures[1] not in per_pin

    def test_order_breaks_ties_on_position_then_text(self, small_synth):
        corpus, _, _ = small_synth
        texts = [q.text for q in corpus.queries[:3]]
        a, b, c = sorted(range(3), key=texts.__getitem__)
        engagement = _engagement([100, 100, 200, 100, 5], [0] * 5, [5.0, 5.0, 5.0, 4.0, 50.0],
                                 queries=[b, a, c, c, a])
        labeled, _ = curate(dataclasses.replace(corpus, engagement=engagement), [], neg_per_pos=0)
        assert [p.query.text for p in labeled] == [texts[c], texts[c], texts[a], texts[b]]


class TestStratification:
    def test_mix_validation(self):
        with pytest.raises(CurationError, match="sum to 1"):
            CategoryMix(0.5, 0.5, 0.5)
        with pytest.raises(CurationError, match="lie in"):
            CategoryMix(-0.1, 0.5, 0.6)
        for fracs in [(float("nan"), 0.5, 0.5), (0.3, 0.3, float("nan")), (float("inf"), 0.0, 0.0)]:
            with pytest.raises(CurationError, match="lie in"):
                CategoryMix(*fracs)

    def test_negative_total_rejected(self):
        with pytest.raises(CurationError, match="^total must be at least 0, got -1$"):
            stratify_sample(self._pool(10), CategoryMix(), -1, seed=0)

    @given(total=st.integers(0, 5000))
    def test_counts_sum_to_total(self, total):
        counts = category_counts(CategoryMix(), total)
        assert sum(counts.values()) == total
        assert all(v >= 0 for v in counts.values())

    def _pool(self, per_category: int):
        pool = []
        for category in ("Description", "StyleDetail", "UseCase"):
            for i in range(per_category):
                pool.append(
                    LabeledPair(
                        pin_signature=i,
                        query=QueryRecord(text=f"{category} {i}", category=category),
                        label=+1,
                    )
                )
        return pool

    def test_exact_counts_without_replacement(self):
        sampled, report = stratify_sample(self._pool(100), CategoryMix(), 100, seed=0)
        drawn = {}
        for pair in sampled:
            drawn[pair.query.category] = drawn.get(pair.query.category, 0) + 1
        assert drawn == {"Description": 30, "StyleDetail": 30, "UseCase": 40}
        assert report.with_replacement == []

    def test_replacement_flagged_when_pool_small(self):
        _, report = stratify_sample(self._pool(10), CategoryMix(), 100, seed=0)
        assert set(report.with_replacement) == {
            "Description", "StyleDetail", "UseCase",
        }

    def test_empty_pool_rejected(self):
        pool = [
            p for p in self._pool(10) if p.query.category != "UseCase"
        ]
        with pytest.raises(CurationError, match="empty pool"):
            stratify_sample(pool, CategoryMix(), 30, seed=0)


class TestLabeling:
    def _query(self, text, direction):
        return QueryRecord(text=text, category="UseCase", embedding=np.array(direction, dtype=float))

    def test_negatives_unrelated_and_labeled(self):
        base = self._query("pos", [1.0, 0.0])
        related = self._query("related", [0.9, 0.1])
        unrelated = [self._query(f"neg {i}", [0.0, 1.0]) for i in range(4)]
        positives = [LabeledPair(pin_signature=1, query=base, label=+1)]
        out = label_pairs(positives, [base, related] + unrelated, neg_per_pos=2, seed=3)
        assert out[0] == positives[0] and [p.label for p in out] == [+1, -1, -1]
        assert all(p.pin_signature == 1 and p.query.text.startswith("neg") for p in out[1:])

    def test_positive_text_never_its_own_negative(self):
        base = self._query("pos", [1.0, 0.0])
        same_text = self._query("pos", [0.0, 1.0])  # unrelated embedding
        others = [self._query(f"neg {i}", [0.0, 1.0]) for i in range(2)]
        positives = [LabeledPair(pin_signature=1, query=base, label=+1)]
        for seed in range(5):
            out = label_pairs(positives, [same_text] + others, neg_per_pos=2, seed=seed)
            assert sorted(p.query.text for p in out[1:]) == ["neg 0", "neg 1"]

    def test_starved_negatives_fatal(self):
        base = self._query("pos", [1.0, 0.0])
        positives = [LabeledPair(pin_signature=1, query=base, label=+1)]
        with pytest.raises(CurationError, match="not enough unrelated"):
            label_pairs(positives, [base], neg_per_pos=2, seed=0)

    def test_missing_embedding_fatal(self):
        bare = QueryRecord(text="pos", category="UseCase")
        positives = [LabeledPair(pin_signature=1, query=bare, label=+1)]
        with pytest.raises(CurationError, match="lacks an embedding"):
            label_pairs(positives, [], neg_per_pos=0, seed=0)

    def test_positive_not_labelled_plus_one_fatal_naming_it(self):
        base = self._query("pos", [1.0, 0.0])
        unrelated = [self._query(f"neg {i}", [0.0, 1.0]) for i in range(3)]
        positives = [LabeledPair(1, base, +1), LabeledPair(2, base, -1)]
        with pytest.raises(CurationError, match=r"^positive 'pos' has label -1, not \+1$"):
            label_pairs(positives, unrelated, neg_per_pos=2, seed=0)

    def test_negative_neg_per_pos_fatal_naming_it(self):
        base = self._query("pos", [1.0, 0.0])
        positives = [LabeledPair(pin_signature=1, query=base, label=+1)]
        with pytest.raises(CurationError, match=r"^neg_per_pos must be at least 0, got -1$"):
            label_pairs(positives, [self._query("neg", [0.0, 1.0])], neg_per_pos=-1, seed=0)


class TestDedup:
    def test_near_duplicates_merged_input_order(self):
        a = QueryRecord("a", "UseCase", embedding=np.array([1.0, 0.0]))
        dup = QueryRecord("a again", "UseCase", embedding=np.array([0.99, 0.01]))
        b = QueryRecord("b", "UseCase", embedding=np.array([0.0, 1.0]))
        kept = dedup_queries([a, dup, b], threshold=0.9)
        assert [q.text for q in kept] == ["a", "b"]

    def test_missing_embedding_fatal(self):
        with pytest.raises(CurationError, match="lacks an embedding"):
            dedup_queries([QueryRecord("a", "UseCase")])

    def test_zero_norm_embedding_fatal(self):
        zero = QueryRecord("z", "UseCase", embedding=np.zeros(2))
        with pytest.raises(CurationError, match="zero-norm"):
            dedup_queries([zero])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_embedding_fatal_naming_the_query(self, bad):
        ok = QueryRecord("ok", "UseCase", embedding=np.array([1.0, 0.0]))
        broken = QueryRecord("broken", "UseCase", embedding=np.array([bad, 1.0]))
        with pytest.raises(CurationError, match=r"^query 'broken' has a zero-norm embedding$"):
            dedup_queries([ok, broken])

    def test_empty(self):
        assert dedup_queries([]) == []


# --- equivalence of the vectorised rules with the per-pair scalar rule ---
#
# Pairs are drawn either at random or at a cosine within 1e-12 of a
# threshold (but at least 1e-14 from it).  Both rules round the cosine
# differently at the last few ulps (~1e-16), so closer pairs are not
# decided by the data and are left out.

DIM = st.integers(min_value=2, max_value=12)


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _at_cosine(rng, anchor, cos):
    """A unit vector whose cosine to the unit `anchor` is `cos` up to rounding."""
    w = rng.standard_normal(anchor.size)
    w -= (w @ anchor) * anchor
    w /= np.linalg.norm(w)
    return cos * anchor + np.sqrt(1.0 - cos * cos) * w


def _near(threshold):
    """Cosines 1e-14 to 1e-12 either side of `threshold`."""
    return st.tuples(st.floats(1e-14, 1e-12), st.sampled_from([-1.0, 1.0])).map(
        lambda t: threshold + t[0] * t[1]
    )


@st.composite
def pairs(draw, threshold):
    """(a, b) unit embeddings: random, or within 1e-12 of `threshold`."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _unit(rng, draw(DIM))
    if draw(st.booleans()):
        return a, _unit(rng, a.size)
    return a, _at_cosine(rng, a, draw(_near(threshold)))


@st.composite
def query_lists(draw, threshold, min_size=1):
    """Queries whose embeddings mix random rows with rows sitting within
    1e-12 of `threshold` to an earlier row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(DIM)
    rows = []
    for _ in range(draw(st.integers(min_size, 14))):
        if rows and draw(st.booleans()):
            anchor = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(_at_cosine(rng, anchor, draw(_near(threshold))))
        else:
            rows.append(_unit(rng, dim))
    return [QueryRecord(f"q{i}", "UseCase", embedding=r) for i, r in enumerate(rows)]


def _scalar_label_pairs(positives, pool, neg_per_pos, seed):
    """Per-pair reference: one oracle `cosine` call per (positive, pool) pair."""
    rng = np.random.default_rng(seed)
    out = []
    for positive in positives:
        out.append(positive)
        unrelated = [
            q for q in pool
            if q.embedding is not None
            and q.text != positive.query.text
            and cosine(q.embedding, positive.query.embedding) < RELATEDNESS_CEILING
        ]
        if len(unrelated) < neg_per_pos:
            raise CurationError("starved")
        for i in rng.choice(len(unrelated), size=neg_per_pos, replace=False):
            out.append(LabeledPair(positive.pin_signature, unrelated[int(i)], -1))
    return out


def _scalar_dedup(queries, threshold):
    retained = []
    for query in queries:
        if all(cosine(query.embedding, kept.embedding) < threshold for kept in retained):
            retained.append(query)
    return retained


class TestVectorisedEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(pairs(RELATEDNESS_CEILING))
    def test_label_pairs_decision_matches_scalar_cosine(self, pair):
        a, b = pair
        positive = LabeledPair(1, QueryRecord("pos", "UseCase", embedding=a), +1)
        candidate = QueryRecord("cand", "UseCase", embedding=b)
        related = not cosine(b, a) < RELATEDNESS_CEILING
        try:
            out = label_pairs([positive], [candidate], neg_per_pos=1, seed=0)
        except CurationError:
            kept = False
        else:
            kept = [p.query.text for p in out] == ["pos", "cand"]
        assert kept == (not related)

    @settings(max_examples=150, deadline=None)
    @given(
        query_lists(RELATEDNESS_CEILING, min_size=3),
        st.data(),
    )
    def test_label_pairs_output_matches_scalar_reference(self, pool, data):
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
        positives = [LabeledPair(pin_signature=k, query=pool[i], label=+1) for k, i in enumerate(picks)]
        neg_per_pos = data.draw(st.integers(0, 2))
        seed = data.draw(st.integers(0, 1000))
        try:
            want = _scalar_label_pairs(positives, pool, neg_per_pos, seed)
        except CurationError:
            with pytest.raises(CurationError, match="not enough unrelated"):
                label_pairs(positives, pool, neg_per_pos, seed)
            return
        assert label_pairs(positives, pool, neg_per_pos, seed) == want

    def test_label_pairs_empty_pool_starves(self):
        positive = LabeledPair(1, QueryRecord("pos", "UseCase", embedding=np.array([1.0, 0.0])), +1)
        with pytest.raises(CurationError, match="not enough unrelated"):
            label_pairs([positive], [], neg_per_pos=1, seed=0)
        # a pool query without an embedding fails, as in dedup_queries
        bare = [QueryRecord("bare", "UseCase")]
        with pytest.raises(CurationError, match=r"^query 'bare' lacks an embedding$"):
            label_pairs([positive], bare, neg_per_pos=1, seed=0)
        assert len(label_pairs([positive], [], neg_per_pos=0, seed=0)) == 1

    @settings(max_examples=300, deadline=None)
    @given(pairs(DEDUP_THRESHOLD))
    def test_dedup_decision_matches_scalar_cosine(self, pair):
        a, b = pair
        queries = [
            QueryRecord("a", "UseCase", embedding=a),
            QueryRecord("b", "UseCase", embedding=b),
        ]
        merged = not cosine(b, a) < DEDUP_THRESHOLD
        assert [q.text for q in dedup_queries(queries)] == (["a"] if merged else ["a", "b"])

    @settings(max_examples=200, deadline=None)
    @given(query_lists(DEDUP_THRESHOLD))
    def test_dedup_output_matches_scalar_reference(self, queries):
        assert dedup_queries(queries) == _scalar_dedup(queries, DEDUP_THRESHOLD)


class TestCurate:
    def test_end_to_end_report(self, small_synth):
        corpus, _, _ = small_synth
        labeled, report = curate(corpus, dedup_queries(corpus.queries), seed=0)
        assert labeled
        assert report["positives"] + report["negatives"] == len(labeled)
        assert report["negatives"] == 2 * report["positives"]
        branches = report["retention_branches"]
        assert set(branches) == {"impressions", "ctr", "position", "rejected"}
        assert branches["rejected"] > 0
        assert sum(report["category_histogram"].values()) == len(labeled)

    def test_deterministic(self, small_synth):
        corpus, _, _ = small_synth
        deduped = dedup_queries(corpus.queries)
        first, _ = curate(corpus, deduped, seed=5)
        second, _ = curate(corpus, deduped, seed=5)
        assert [p.to_json() for p in first] == [p.to_json() for p in second]

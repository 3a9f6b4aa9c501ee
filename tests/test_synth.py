"""The synthetic corpus generator, checked by the statistics of its model
rather than by its bytes: engagement picks and branches, their ranges, the
spread of vectors around the cluster centroids, determinism, edge sizes, a
fixed number of draws and its memory peak."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from geoforge import synth
from geoforge.core import ENGAGEMENT_ARRAYS, rng_for

# tracemalloc peak of generate_corpus(SynthConfig(n_pins=2000, seed=3)) when
# it drew per pin (CPython 3.11, numpy 2.4); whole-array draws may not add
# more than a quarter to it
PER_PIN_PEAK_BYTES = 5_279_208


def _generate(**fields):
    return synth.generate_corpus(synth.SynthConfig(**fields))


@pytest.fixture(scope="module")
def corpus_1200():
    config = synth.SynthConfig(n_pins=1200, seed=5)
    corpus, sidecar = synth.generate_corpus(config)
    return corpus, sidecar, config


def _per_pin(corpus, per_pin: int) -> list[list[tuple]]:
    """Engagement as (query text, impressions, clicks, avg_position) rows
    grouped by pin, asserting each pin's rows are adjacent, pins in order."""
    columns = [getattr(corpus.engagement, name).tolist() for name in ENGAGEMENT_ARRAYS]
    assert columns[0] == [pin for pin in range(len(corpus.pins)) for _ in range(per_pin + 1)]
    texts = [q.text for q in corpus.queries]
    rows = [(texts[query], *fields) for query, *fields in zip(*columns[1:])]
    return [rows[i:i + per_pin + 1] for i in range(0, len(rows), per_pin + 1)]


def _branch(row) -> int:
    """The retention branch a row was drawn in, from its ranges."""
    _, impressions, _, position = row
    if impressions > 1000:
        return 0
    if impressions < 10:
        return 3
    return 2 if position < 10 else 1


class TestModel:
    def test_pins_fields(self, corpus_1200):
        corpus, sidecar, config = corpus_1200
        assert corpus.signatures.tolist() == list(range(1_000_000, 1_000_000 + config.n_pins))
        boards = Counter()
        for i, pin in enumerate(corpus.pins.values()):
            cluster = i % config.n_clusters
            term = synth.CLUSTER_TERMS[cluster]
            assert sidecar["pin_cluster"][pin.signature] == cluster
            assert pin.title == f"{term} look {i}"
            assert 0.3 <= pin.perception_score < 1.0
            boards[pin.board_id - cluster * 10] += 1
        assert sorted(boards) == [0, 1, 2] and min(boards.values()) > 300

    def test_records_per_pin_and_distinct_own_cluster_picks(self, corpus_1200):
        corpus, sidecar, config = corpus_1200
        clusters = sidecar["query_cluster"]
        for signature, records in zip(corpus.pins, _per_pin(corpus, config.engagement_per_pin)):
            own = sidecar["pin_cluster"][signature]
            picks = [text for text, *_ in records[:-1]]
            assert len(set(picks)) == config.engagement_per_pin
            assert {clusters[text] for text in picks} == {own}
            assert clusters[records[-1][0]] == (own + 1) % config.n_clusters
        # in random order, 4 picks ascend by corpus row for 1 pin in 24
        rows = [[corpus.query_row[text] for text, *_ in records[:-1]]
                for records in _per_pin(corpus, config.engagement_per_pin)]
        assert sum(r == sorted(r) for r in rows) / len(rows) < 0.1

    def test_branch_shares_near_a_quarter(self, corpus_1200):
        corpus, _, config = corpus_1200
        branches = Counter(_branch(e) for records in _per_pin(corpus, config.engagement_per_pin)
                           for e in records[:-1])
        total = config.n_pins * config.engagement_per_pin
        # 4,800 picks: a share's standard deviation is about 0.006
        assert all(abs(branches[b] / total - 0.25) < 0.03 for b in range(4)), branches

    def test_branch_ranges(self, corpus_1200):
        corpus, _, config = corpus_1200
        seen = {b: [] for b in range(4)}
        for records in _per_pin(corpus, config.engagement_per_pin):
            for row in records[:-1]:
                seen[_branch(row)].append(row[1:4])
            _, impressions, clicks, position = records[-1]  # the cross-cluster record
            assert 0 <= impressions <= 9 and clicks == 0
            assert 20 <= position < 80
        ranges = {  # impressions, clicks as a function of them, position
            0: ((1001, 49999), lambda n: (0, n // 10), (1, 40)),
            1: ((11, 999), lambda n: (np.ceil(0.8 * n), n), (11, 40)),
            2: ((11, 999), lambda n: (0, n // 2), (1, 10)),
            3: ((0, 9), lambda n: (0, n), (11, 60)),
        }
        for branch, ((low, high), clicks, (first, last)) in ranges.items():
            for impressions, clicked, position in seen[branch]:
                assert low <= impressions <= high, (branch, impressions)
                least, most = clicks(impressions)
                assert least <= clicked <= most <= impressions, (branch, impressions, clicked)
                assert first <= position < last, (branch, position)
        assert {n for n, _, _ in seen[3]} == set(range(10))
        assert all(c == 0 for n, c, _ in seen[3] if n == 0)

    def test_within_cluster_cosine_near_the_noise_promise(self, corpus_1200):
        """NOISE = 0.45 puts within-cluster cosine near 1 / (1 + 0.45**2) = 0.83."""
        corpus, sidecar, _ = corpus_1200
        clusters = np.array(list(sidecar["pin_cluster"].values()))
        same = clusters[:, None] == clusters[None, :]
        np.fill_diagonal(same, False)
        for vectors in (corpus.visual, corpus.text):
            assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=0, atol=1e-12)
            cosines = vectors @ vectors.T
            assert abs(cosines[same].mean() - 0.83) < 0.02
            assert abs(cosines[~same & ~np.eye(len(clusters), dtype=bool)].mean()) < 0.2
        query_clusters = np.array(list(sidecar["query_cluster"].values()))
        to_pins = corpus.query_embeddings @ corpus.text.T
        assert abs(to_pins[query_clusters[:, None] == clusters[None, :]].mean() - 0.83) < 0.02


class TestDeterminism:
    @staticmethod
    def _state(corpus, sidecar):
        pins = [(p.signature, p.perception_score, p.title, p.board_id) for p in corpus.pins.values()]
        arrays = [corpus.visual.tobytes(), corpus.text.tobytes(), corpus.query_embeddings.tobytes()]
        engagement = [getattr(corpus.engagement, name).tobytes() for name in ENGAGEMENT_ARRAYS]
        return pins, arrays, engagement, [(q.text, q.category) for q in corpus.queries], sidecar

    def test_same_seed_same_corpus_other_seed_another(self):
        first = self._state(*_generate(n_pins=200, seed=4))
        assert self._state(*_generate(n_pins=200, seed=4)) == first
        other = self._state(*_generate(n_pins=200, seed=5))
        for kind in range(3):  # pins, arrays, engagement
            assert other[kind] != first[kind]
        assert other[3] == first[3]  # query texts are deterministic


class TestEdgeSizes:
    def test_no_engagement_per_pin_leaves_cross_cluster_records_only(self):
        corpus, sidecar = _generate(n_pins=30, n_clusters=3, engagement_per_pin=0, seed=2)
        for signature, [(text, _, clicks, _)] in zip(corpus.pins, _per_pin(corpus, 0)):
            own = sidecar["pin_cluster"][signature]
            assert sidecar["query_cluster"][text] == (own + 1) % 3 and clicks == 0

    def test_fewer_pins_than_clusters(self):
        corpus, sidecar = _generate(n_pins=3, n_clusters=8, seed=2)
        assert list(sidecar["pin_cluster"].values()) == [0, 1, 2]
        assert len(corpus.queries) == 8 * 24 and corpus.visual.shape == (3, 64)
        assert len(corpus.engagement) == 3 * 5

    def test_more_engagement_than_own_queries_picks_each_once(self):
        corpus, sidecar = _generate(n_pins=20, n_clusters=2, queries_per_cluster=3,
                                    engagement_per_pin=5, seed=2)
        for signature, records in zip(corpus.pins, _per_pin(corpus, 3)):
            own = sidecar["pin_cluster"][signature]
            assert sorted(text for text, *_ in records[:-1]) == sorted(
                t for t, c in sidecar["query_cluster"].items() if c == own)


class CountingGenerator:
    """A Generator whose method calls are counted."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestCost:
    def test_draw_count_does_not_grow_with_the_pins(self, monkeypatch):
        generators = []

        def counting_rng_for(seed, stage):
            assert stage == "corpus"
            generators.append(CountingGenerator(rng_for(seed, stage)))
            return generators[-1]

        monkeypatch.setattr(synth, "rng_for", counting_rng_for)
        _generate(n_pins=120, seed=1)
        _generate(n_pins=1200, seed=1)
        small, large = (g.calls for g in generators)
        assert small == large < 20

    def test_memory_peak(self):
        config = synth.SynthConfig(n_pins=2000, seed=3)
        synth.generate_corpus(synth.SynthConfig(n_pins=50))  # first-call set-up
        tracemalloc.start()
        try:
            synth.generate_corpus(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * PER_PIN_PEAK_BYTES

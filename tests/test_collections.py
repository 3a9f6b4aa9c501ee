"""Collection pages: slugs, retrieval-backed membership, judges, and
page emission."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from geoforge import hnsw
from geoforge.collections_ import (
    Collection,
    CollectionError,
    build_collection,
    build_collections,
    embedding_judge,
    intent_satisfying_rate,
    load_collections,
    slugify,
    write_collections,
    emit_pages,
)
from geoforge.core import QueryRecord
from geoforge.encoders import EncoderModel
from geoforge.hnsw import HnswIndex
from geoforge.mlp import Mlp

from _oracles import cosine


def _identity_encoder(dim: int) -> EncoderModel:
    return EncoderModel(Mlp([(np.eye(dim), np.zeros(dim))]))


@pytest.fixture(scope="module")
def corpus_and_index(request):
    corpus, _, config = request.getfixturevalue("small_synth")
    encoder = _identity_encoder(config.d_t)
    vectors = {
        sig: encoder.encode(pin.text_embedding) for sig, pin in corpus.pins.items()
    }
    index = hnsw.build(vectors, seed=2)
    return corpus, encoder, index


class TestSlugify:
    def test_basic_rules(self):
        assert slugify("Sage Green Decor!") == "sage-green-decor"
        assert slugify("  fall   nails  ") == "fall-nails"
        assert slugify("a/b_c") == "a-b-c"

    def test_idempotent(self):
        assert slugify(slugify("Boho Bedroom Ideas")) == "boho-bedroom-ideas"

    def test_empty_slug_rejected(self):
        with pytest.raises(CollectionError, match="empty slug"):
            slugify("!!!")


class TestBuildCollection:
    def test_members_from_index(self, corpus_and_index):
        corpus, encoder, index = corpus_and_index
        topic = corpus.queries[0]
        collection = build_collection(topic, encoder, index, k=10)
        assert collection.slug == slugify(topic.text)
        assert len(collection.members) == 10
        sims = [s for _, s in collection.members]
        assert sims == sorted(sims, reverse=True)
        assert all(sig in corpus.pins for sig, _ in collection.members)

    def test_empty_index_rejected(self, corpus_and_index):
        corpus, encoder, _ = corpus_and_index
        empty = HnswIndex(dim=corpus.d_t)
        with pytest.raises(CollectionError, match="empty index"):
            build_collection(corpus.queries[0], encoder, empty)

    def test_topic_without_embedding_rejected(self, corpus_and_index):
        _, encoder, index = corpus_and_index
        bare = QueryRecord("bare topic", "UseCase")
        with pytest.raises(CollectionError, match="lacks an embedding"):
            build_collection(bare, encoder, index)


class TestBuildCollections:
    def test_batch_equals_one_topic_builds(self, corpus_and_index):
        """One batch encode gives every topic the members and f32
        similarities that building it alone gives."""
        corpus, encoder, index = corpus_and_index
        topics = corpus.queries[:12]
        batch = build_collections(topics, encoder, index, k=10)
        single = [build_collection(t, encoder, index, k=10) for t in topics]
        assert [c.topic for c in batch] == topics
        assert [c.to_json() for c in batch] == [c.to_json() for c in single]

    def test_empty_topic_list(self, corpus_and_index):
        corpus, encoder, index = corpus_and_index
        assert build_collections([], encoder, index) == []
        assert build_collections([], encoder, HnswIndex(dim=corpus.d_t)) == []

    def test_empty_index_rejected(self, corpus_and_index):
        corpus, encoder, _ = corpus_and_index
        with pytest.raises(CollectionError, match="empty index"):
            build_collections(corpus.queries[:2], encoder, HnswIndex(dim=corpus.d_t))

    def test_topic_without_embedding_rejected(self, corpus_and_index):
        corpus, encoder, index = corpus_and_index
        topics = [corpus.queries[0], QueryRecord("bare topic", "UseCase")]
        with pytest.raises(CollectionError, match="'bare topic' lacks an embedding"):
            build_collections(topics, encoder, index)


class TestJudges:
    def test_embedding_judge_thresholds(self, corpus_and_index):
        corpus, encoder, _ = corpus_and_index
        topic = corpus.queries[0]
        pin = corpus.pins[sorted(corpus.pins)[0]]
        always = embedding_judge(encoder, threshold=-1.0)([pin], topic)[0]
        never = embedding_judge(encoder, threshold=1.0)([pin], topic)[0]
        assert always.satisfied and not never.satisfied
        assert always.score == never.score < 1.0

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 2.0, 1.01, -1.01])
    def test_embedding_judge_rejects_a_threshold_outside_the_cosine_range(
        self, corpus_and_index, threshold
    ):
        _, encoder, _ = corpus_and_index
        with pytest.raises(CollectionError, match=rf"judge threshold {threshold} is not"):
            embedding_judge(encoder, threshold=threshold)

    def test_embedding_judge_missing_topic_embedding(self, corpus_and_index):
        corpus, encoder, _ = corpus_and_index
        pin = corpus.pins[sorted(corpus.pins)[0]]
        with pytest.raises(CollectionError, match="lacks an embedding"):
            embedding_judge(encoder)([pin], QueryRecord("bare", "UseCase"))


class TestIntentRate:
    def test_empty_members(self, corpus_and_index):
        corpus, encoder, _ = corpus_and_index
        empty = Collection(
            topic=corpus.queries[0], slug="x", embedding_kind="pinclip", members=[]
        )
        rate, verdicts = intent_satisfying_rate(
            empty, corpus, embedding_judge(encoder)
        )
        assert rate == 0.0 and verdicts == []

    def test_rate_counts_verdicts(self, corpus_and_index):
        corpus, encoder, index = corpus_and_index
        topic = corpus.queries[0]
        collection = build_collection(topic, encoder, index, k=10)
        rate, verdicts = intent_satisfying_rate(
            collection, corpus, embedding_judge(encoder, threshold=0.5)
        )
        assert len(verdicts) == len(collection.members)
        assert rate == sum(v.satisfied for v in verdicts) / len(verdicts)

    def test_one_batch_per_collection_matches_single_row_cosines(
        self, corpus_and_index, monkeypatch
    ):
        corpus, encoder, index = corpus_and_index
        topic = corpus.queries[0]
        collection = build_collection(topic, encoder, index, k=10)
        assert len(collection.members) == 10
        judge_encoder = EncoderModel(Mlp.init([encoder.output_dim, 16, 8], np.random.default_rng(4)))
        calls = []
        for method in ("encode", "encode_batch"):
            fn = getattr(judge_encoder, method)
            monkeypatch.setattr(
                judge_encoder, method, lambda x, fn=fn, method=method: calls.append(method) or fn(x)
            )
        _, verdicts = intent_satisfying_rate(
            collection, corpus, embedding_judge(judge_encoder, threshold=0.5)
        )
        assert sorted(calls) == ["encode", "encode_batch"]
        topic_vec = judge_encoder.encode(topic.embedding)
        for (signature, _), verdict in zip(collection.members, verdicts):
            expected = cosine(judge_encoder.encode(corpus.pins[signature].text_embedding), topic_vec)
            assert verdict.pin_signature == signature
            assert abs(verdict.score - expected) <= 1e-12
            assert verdict.satisfied == (verdict.score >= 0.5)


class TestPersistenceAndPages:
    def test_collections_roundtrip(self, corpus_and_index, tmp_path):
        corpus, encoder, index = corpus_and_index
        collections = [
            build_collection(q, encoder, index, k=5) for q in corpus.queries[:3]
        ]
        path = tmp_path / "collections.jsonl"
        write_collections(collections, path)
        loaded = load_collections(path, corpus)
        assert [c.slug for c in loaded] == [c.slug for c in collections]
        assert all(a.topic is b.topic for a, b in zip(loaded, collections, strict=True))
        assert [
            [sig for sig, _ in c.members] for c in loaded
        ] == [[sig for sig, _ in c.members] for c in collections]

    def test_malformed_line_names_path_and_line(self, corpus_and_index, tmp_path):
        corpus, encoder, index = corpus_and_index
        path = tmp_path / "collections.jsonl"
        write_collections([build_collection(corpus.queries[0], encoder, index, k=5)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(CollectionError, match=r"collections\.jsonl:2: malformed JSON"):
            load_collections(path, corpus)

    def test_emit_pages_links_members(self, corpus_and_index, tmp_path):
        corpus, encoder, index = corpus_and_index
        collection = build_collection(corpus.queries[0], encoder, index, k=5)
        paths = emit_pages([collection], corpus, tmp_path / "pages")
        assert len(paths) == 1
        html = paths[0].read_text(encoding="utf-8")
        for sig, _ in collection.members:
            assert f'href="/pin/{sig}"' in html

    def test_emit_pages_escapes_topic_and_titles(self, tmp_path):
        topic = QueryRecord("<b>& co", "UseCase")
        corpus = SimpleNamespace(pin=lambda sig: SimpleNamespace(title=f"Tea & <cakes> {sig}"))
        collection = Collection(topic, slugify(topic.text), "pinclip", [(3, 0.9)])
        (path,) = emit_pages([collection], corpus, tmp_path)
        html = path.read_text(encoding="utf-8")
        assert path.name == "b-co.html"
        assert "<title>&lt;b&gt;&amp; co</title>" in html
        assert "<h1>&lt;b&gt;&amp; co</h1>" in html
        assert '<a href="/pin/3">Tea &amp; &lt;cakes&gt; 3</a>' in html
        assert "<b>" not in html and "<cakes>" not in html

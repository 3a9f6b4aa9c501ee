"""Collection pages: slugs, retrieval-backed membership, judges, and
page emission."""

from __future__ import annotations

import json

import numpy as np
import pytest

from geoforge import hnsw
from geoforge.collections_ import (
    Collection,
    CollectionError,
    build_collection,
    embedding_judge,
    file_judge,
    intent_satisfying_rate,
    load_collections,
    slugify,
    write_collections,
    emit_pages,
)
from geoforge.core import CorpusError, QueryRecord
from geoforge.encoders import EncoderModel
from geoforge.hnsw import HnswIndex


def _identity_encoder(dim: int) -> EncoderModel:
    return EncoderModel(weights=[np.eye(dim)], biases=[np.zeros(dim)])


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


class TestJudges:
    def test_embedding_judge_thresholds(self, corpus_and_index):
        corpus, encoder, _ = corpus_and_index
        topic = corpus.queries[0]
        pin = corpus.pins[sorted(corpus.pins)[0]]
        always = embedding_judge(encoder, threshold=-1.0)(pin, topic)
        never = embedding_judge(encoder, threshold=1.01)(pin, topic)
        assert always.satisfied and not never.satisfied
        assert always.score == never.score

    def test_embedding_judge_missing_topic_embedding(self, corpus_and_index):
        corpus, encoder, _ = corpus_and_index
        pin = corpus.pins[sorted(corpus.pins)[0]]
        with pytest.raises(CollectionError, match="lacks an embedding"):
            embedding_judge(encoder)(pin, QueryRecord("bare", "UseCase"))

    def test_file_judge(self, corpus_and_index, tmp_path):
        corpus, _, _ = corpus_and_index
        topic = corpus.queries[0]
        sig = sorted(corpus.pins)[0]
        path = tmp_path / "verdicts.jsonl"
        path.write_text(
            json.dumps(
                {
                    "topic_slug": slugify(topic.text),
                    "pin_signature": sig,
                    "satisfied": True,
                    "score": 0.9,
                }
            )
            + "\n\n"
        )
        judge = file_judge(path)
        verdict = judge(corpus.pins[sig], topic)
        assert verdict.satisfied and verdict.score == 0.9
        other = sorted(corpus.pins)[1]
        with pytest.raises(CollectionError, match="no external verdict"):
            judge(corpus.pins[other], topic)


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


class TestPersistenceAndPages:
    def test_collections_roundtrip(self, corpus_and_index, tmp_path):
        corpus, encoder, index = corpus_and_index
        collections = [
            build_collection(q, encoder, index, k=5) for q in corpus.queries[:3]
        ]
        path = tmp_path / "collections.jsonl"
        write_collections(collections, path)
        loaded = load_collections(path)
        assert [c.slug for c in loaded] == [c.slug for c in collections]
        assert [
            [sig for sig, _ in c.members] for c in loaded
        ] == [[sig for sig, _ in c.members] for c in collections]

    def test_malformed_line_names_path_and_line(self, corpus_and_index, tmp_path):
        corpus, encoder, index = corpus_and_index
        path = tmp_path / "collections.jsonl"
        write_collections([build_collection(corpus.queries[0], encoder, index, k=5)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(CorpusError, match=r"collections\.jsonl:2:"):
            load_collections(path)

    def test_emit_pages_links_members(self, corpus_and_index, tmp_path):
        corpus, encoder, index = corpus_and_index
        collection = build_collection(corpus.queries[0], encoder, index, k=5)
        paths = emit_pages([collection], corpus, tmp_path / "pages")
        assert len(paths) == 1
        html = paths[0].read_text(encoding="utf-8")
        for sig, _ in collection.members:
            assert f'href="/pin/{sig}"' in html

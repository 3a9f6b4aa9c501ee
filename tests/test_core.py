"""Domain types, vector math, seeded RNG streams, and corpus IO."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geoforge.core import (
    SEED_OFFSETS,
    CorpusError,
    CorpusManifest,
    EngagementRecord,
    LabeledPair,
    PinRecord,
    QueryRecord,
    ZeroNormError,
    cosine,
    file_checksum,
    hashed_bag_of_tokens,
    is_unit,
    l2_normalize,
    load_corpus,
    read_jsonl,
    rng_for,
    save_corpus,
    subseed,
)


class TestVectorMath:
    def test_l2_normalize_unit_norm(self):
        v = l2_normalize(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])
        assert is_unit(v)

    def test_l2_normalize_zero_vector(self):
        with pytest.raises(ZeroNormError):
            l2_normalize(np.zeros(4))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "values, direction",
        [([2.42e-160], [1.0]), ([1e-151, -3e-151], [1.0, -3.0]),
         ([1e200], [1.0]), ([1e200, -2e200], [1.0, -2.0])],
    )
    def test_l2_normalize_extreme_magnitudes(self, values, direction):
        v = l2_normalize(np.array(values))
        assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-15
        assert np.allclose(v, np.array(direction) / np.linalg.norm(direction), rtol=0, atol=1e-15)

    def test_l2_normalize_underflowing_squares_count_as_zero(self):
        # its float64 norm is 0.0, which test_l2_normalize_property treats
        # as a zero vector
        assert np.linalg.norm([1e-170, 3e-170]) == 0.0
        with pytest.raises(ZeroNormError):
            l2_normalize(np.array([1e-170, 3e-170]))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    def test_l2_normalize_property(self, values):
        v = np.array(values)
        if np.linalg.norm(v) == 0.0:
            with pytest.raises(ZeroNormError):
                l2_normalize(v)
        else:
            assert is_unit(l2_normalize(v))

    def test_cosine_symmetric_and_clipped(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1e-12])
        assert cosine(a, b) == cosine(b, a)
        assert -1.0 <= cosine(a, -a) <= 1.0
        assert cosine(a, a) == 1.0

    def test_cosine_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    def test_cosine_zero_vector(self):
        with pytest.raises(ZeroNormError):
            cosine(np.zeros(3), np.ones(3))


class TestSeeds:
    def test_subseed_offsets_are_distinct(self):
        seeds = {subseed(42, stage) for stage in SEED_OFFSETS}
        assert len(seeds) == len(SEED_OFFSETS)

    def test_rng_for_unknown_stage(self):
        with pytest.raises(KeyError):
            rng_for(0, "nonexistent-stage")

    def test_rng_for_reproducible(self):
        a = rng_for(7, "corpus").standard_normal(4)
        b = rng_for(7, "corpus").standard_normal(4)
        assert np.array_equal(a, b)


class TestRecordValidation:
    def _pin(self, **overrides):
        defaults = dict(
            signature=1,
            visual_embedding=np.ones(4),
            text_embedding=np.ones(3),
            perception_score=0.5,
        )
        defaults.update(overrides)
        return PinRecord(**defaults)

    def test_pin_dim_mismatch(self):
        with pytest.raises(CorpusError, match="visual_embedding"):
            self._pin().validate(8, 3)
        with pytest.raises(CorpusError, match="text_embedding"):
            self._pin().validate(4, 8)

    def test_pin_perception_range(self):
        with pytest.raises(CorpusError, match="perception_score"):
            self._pin(perception_score=1.5).validate(4, 3)

    def test_query_category(self):
        with pytest.raises(CorpusError, match="category"):
            QueryRecord(text="x", category="Bogus").validate()
        QueryRecord(text="x", category="UseCase").validate()

    def test_query_empty_text(self):
        with pytest.raises(CorpusError, match="empty"):
            QueryRecord(text="  ", category="UseCase").validate()

    def test_engagement_clicks_exceed_impressions(self):
        record = EngagementRecord("q", 1, impressions=5, clicks=6, avg_position=2.0)
        with pytest.raises(CorpusError, match="exceed"):
            record.validate()

    def test_engagement_ctr_zero_impressions(self):
        record = EngagementRecord("q", 1, impressions=0, clicks=0, avg_position=2.0)
        with pytest.raises(ValueError, match="zero impressions"):
            record.ctr()

    def test_labeled_pair_label_and_source(self):
        query = QueryRecord(text="x", category="UseCase")
        with pytest.raises(CorpusError, match="label"):
            LabeledPair(1, query, label=0).validate()
        with pytest.raises(CorpusError, match="source"):
            LabeledPair(1, query, label=1, source="Mystery").validate()


class TestCorpusIO:
    def test_roundtrip(self, small_synth, tmp_path):
        corpus, _, config = small_synth
        manifest = CorpusManifest(
            pins_path=tmp_path / "pins.jsonl",
            queries_path=tmp_path / "queries.jsonl",
            engagement_path=tmp_path / "engagement.jsonl",
            labels_path=None,
            d_v=config.d_v,
            d_t=config.d_t,
            seed=config.seed,
        )
        save_corpus(corpus, manifest)
        manifest.save(tmp_path / "manifest.txt")
        loaded = load_corpus(CorpusManifest.load(tmp_path / "manifest.txt"))
        assert sorted(loaded.pins) == sorted(corpus.pins)
        assert len(loaded.queries) == len(corpus.queries)
        assert len(loaded.engagement) == len(corpus.engagement)
        # persistence rounds through f32
        sig = sorted(corpus.pins)[0]
        assert np.allclose(
            loaded.pins[sig].visual_embedding,
            corpus.pins[sig].visual_embedding,
            atol=1e-6,
        )

    def test_manifest_missing_key(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("pins=pins.jsonl\n")
        with pytest.raises(CorpusError, match="missing manifest key"):
            CorpusManifest.load(path)

    def test_manifest_missing_file(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text(
            "pins=pins.jsonl\nqueries=q.jsonl\nengagement=e.jsonl\n"
        )
        with pytest.raises(CorpusError, match="does not exist"):
            CorpusManifest.load(path)

    def test_manifest_malformed_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("pins\n")
        with pytest.raises(CorpusError, match="key=value"):
            CorpusManifest.load(path)

    def test_duplicate_signature(self, tmp_path):
        pin = PinRecord(
            signature=1,
            visual_embedding=np.ones(2),
            text_embedding=np.ones(2),
            perception_score=0.5,
        )
        import json

        (tmp_path / "pins.jsonl").write_text(
            json.dumps(pin.to_json()) + "\n" + json.dumps(pin.to_json()) + "\n"
        )
        (tmp_path / "q.jsonl").write_text("")
        (tmp_path / "e.jsonl").write_text("")
        (tmp_path / "manifest.txt").write_text(
            "pins=pins.jsonl\nqueries=q.jsonl\nengagement=e.jsonl\nd_v=2\nd_t=2\n"
        )
        with pytest.raises(CorpusError, match="duplicate signature"):
            load_corpus(CorpusManifest.load(tmp_path / "manifest.txt"))

    def test_read_jsonl_skips_blank_lines_and_names_bad_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"a": 2})]
        path.write_text('{"a": 1}\n{"a": \n')
        with pytest.raises(CorpusError, match=r"rows\.jsonl:2: malformed JSON"):
            list(read_jsonl(path))

    def test_unknown_pin_lookup(self, small_synth):
        corpus, _, _ = small_synth
        with pytest.raises(CorpusError, match="unknown pin"):
            corpus.pin(-1)


class TestHashing:
    def test_hashed_bag_deterministic_unit(self):
        a = hashed_bag_of_tokens("sage green decor", 64)
        b = hashed_bag_of_tokens("sage green decor", 64)
        assert np.array_equal(a, b)
        assert is_unit(a)

    def test_hashed_bag_empty(self):
        assert np.all(hashed_bag_of_tokens("   ", 16) == 0.0)

    def test_file_checksum_stable(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(b"abc" * 1000)
        b.write_bytes(b"abc" * 1000)
        assert file_checksum(a) == file_checksum(b)
        b.write_bytes(b"abd" * 1000)
        assert file_checksum(a) != file_checksum(b)

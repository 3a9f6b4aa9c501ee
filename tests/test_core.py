"""Domain types, vector math, seeded RNG streams, and corpus IO."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import re
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import geoforge
from geoforge.core import (
    ARRAYS_MAGIC,
    CORPUS_FILES,
    ENGAGEMENT_ARRAYS,
    SEED_OFFSETS,
    VECTOR_ARRAYS,
    CorpusError,
    LabeledPair,
    PinRecord,
    QueryRecord,
    ZeroNormError,
    file_checksum,
    hashed_bag_of_tokens,
    l2_normalize,
    l2_normalize_rows,
    load_arrays,
    load_corpus,
    read_jsonl,
    read_records,
    rng_for,
    save_arrays,
    save_corpus,
    subseed,
    write_jsonl,
)

from _oracles import cosine


class TestVectorMath:
    def test_l2_normalize_unit_norm(self):
        v = l2_normalize(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])
        assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-6

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_l2_normalize_non_finite(self, bad):
        with pytest.raises(ZeroNormError, match="no unit vector exists"):
            l2_normalize(np.array([bad, 1.0]))

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
            assert abs(float(np.linalg.norm(l2_normalize(v))) - 1.0) <= 1e-6

    def test_l2_normalize_rows_in_place_with_the_bits_of_a_norm_division(self):
        matrix = np.random.default_rng(0).standard_normal((50, 7)) * 3.0
        want = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        out = l2_normalize_rows(matrix)
        assert out is matrix and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_l2_normalize_rows_names_a_row_without_a_unit_vector(self, bad):
        matrix = np.ones((4, 3))
        matrix[2] = [bad, 0.0, 0.0]
        with pytest.raises(ZeroNormError, match=r"^row 2 has no unit vector$") as caught:
            l2_normalize_rows(matrix)
        assert caught.value.row == 2

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

    def test_pin_perception_range(self):
        with pytest.raises(CorpusError, match="perception_score"):
            self._pin(perception_score=1.5).validate()

    def test_query_category(self):
        with pytest.raises(CorpusError, match="category"):
            QueryRecord(text="x", category="Bogus").validate()
        QueryRecord(text="x", category="UseCase").validate()

    def test_query_empty_text(self):
        with pytest.raises(CorpusError, match="empty"):
            QueryRecord(text="  ", category="UseCase").validate()

    def test_labeled_pair_label(self):
        query = QueryRecord(text="x", category="UseCase")
        with pytest.raises(CorpusError, match="label"):
            LabeledPair(1, query, label=0).validate()
        assert [f.name for f in dataclasses.fields(LabeledPair)] == ["pin_signature", "query", "label"]

    def test_labeled_pair_resolves_through_the_corpus(self, small_synth):
        corpus = small_synth[0]
        pair = LabeledPair(int(corpus.signatures[5]), corpus.queries[3], +1)
        loaded = LabeledPair.from_json(pair.to_json(), corpus)
        assert loaded.query is corpus.queries[3] and loaded.to_json() == pair.to_json()
        for edit, match in [({"query_text": "absent"}, "unknown query text 'absent'"),
                            ({"pin_signature": -1}, "unknown pin signature -1")]:
            with pytest.raises(CorpusError, match=match):
                LabeledPair.from_json({**pair.to_json(), **edit}, corpus)

    def test_query_lookup_by_text_and_row(self, small_synth):
        corpus = small_synth[0]
        for row, query in enumerate(corpus.queries):
            assert corpus.query_row[query.text] == row and corpus.query(query.text) is query
        with pytest.raises(CorpusError, match="unknown query text 'absent'"):
            corpus.query("absent")


def _save_edited(corpus, directory, name, index, edit):
    """Save ``corpus`` to ``directory`` with ``edit`` merged into record
    ``index`` of file ``name``; a key set to None is dropped."""
    save_corpus(corpus, directory)
    lines = (directory / name).read_text(encoding="utf-8").splitlines()
    record = {**json.loads(lines[index]), **edit}
    lines[index] = json.dumps({k: v for k, v in record.items() if v is not None})
    (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _save_arrays_edited(corpus, directory, edit):
    """Save ``corpus`` to ``directory``, then rewrite its array file with
    the arrays that ``edit`` returns from a dict of writable copies of its
    arrays."""
    save_corpus(corpus, directory)
    path = directory / CORPUS_FILES["arrays"]
    _, arrays = load_arrays(path, ARRAYS_MAGIC, CorpusError, {})
    save_arrays(path, ARRAYS_MAGIC, {}, edit({n: a.copy() for n, a in arrays.items()}))
    return path


def _set(name, row, value):
    """An array-file edit that sets ``row`` of array ``name`` to ``value``,
    or to ``value(arrays)`` when it is callable."""

    def edit(arrays):
        arrays[name][row] = value(arrays) if callable(value) else value
        return arrays

    return edit


class TestCorpusIO:
    def test_roundtrip_is_float32_rounding(self, small_synth, tmp_path):
        corpus, _, config = small_synth
        save_corpus(corpus, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(CORPUS_FILES.values())
        loaded = load_corpus(tmp_path)
        assert list(loaded.pins) == list(corpus.pins)
        assert [q.text for q in loaded.queries] == [q.text for q in corpus.queries]
        for name, dtype in ENGAGEMENT_ARRAYS.items():
            column = getattr(loaded.engagement, name)
            assert column.dtype.str == dtype and column.tobytes() == getattr(corpus.engagement, name).tobytes()
        # the dimensions come from the vectors
        assert (loaded.d_v, loaded.d_t) == (config.d_v, config.d_t)
        for name in VECTOR_ARRAYS:
            rounded = getattr(corpus, name).astype(np.float32).astype(np.float64)
            assert getattr(loaded, name).tobytes() == rounded.tobytes()
        assert [p.perception_score for p in loaded.pins.values()] == [
            float(np.float32(p.perception_score)) for p in corpus.pins.values()
        ]
        np.testing.assert_array_equal(loaded.signatures, sorted(corpus.pins))
        # each record's vectors are views of its rows
        for i, pin in enumerate(loaded.pins.values()):
            assert np.shares_memory(pin.visual_embedding, loaded.visual[i])
            assert np.shares_memory(pin.text_embedding, loaded.text[i])
        for j, query in enumerate(loaded.queries):
            assert np.shares_memory(query.embedding, loaded.query_embeddings[j])

    def test_vectors_are_read_only(self, small_synth, tmp_path):
        save_corpus(small_synth[0], tmp_path)
        for corpus in (small_synth[0], load_corpus(tmp_path)):
            pin, query = next(iter(corpus.pins.values())), corpus.queries[0]
            for vector in (pin.visual_embedding, pin.text_embedding, query.embedding,
                           corpus.visual[0], corpus.signatures, corpus.engagement.clicks):
                with pytest.raises(ValueError, match="read-only"):
                    vector[0] = 0.5

    def test_jsonl_holds_no_vectors(self, small_synth, tmp_path):
        save_corpus(small_synth[0], tmp_path)
        first = {name: json.loads((tmp_path / name).read_text().splitlines()[0])
                 for name in ("pins.jsonl", "queries.jsonl")}
        assert list(first["pins.jsonl"]) == [
            "signature", "perception_score", "title", "description", "board_id", "category",
            "language",
        ]
        assert list(first["queries.jsonl"]) == ["text", "category", "language"]

    @pytest.mark.parametrize("name, edit, match", [
        ("pins.jsonl", {"signature": None}, "missing key 'signature'"),
        ("pins.jsonl", {"colour": "red"}, "unknown key 'colour'"),
        ("queries.jsonl", {"category": None}, "missing key 'category'"),
        # the vectors live in the array file alone
        ("pins.jsonl", {"visual_embedding": [0.5] * 16}, "unknown key 'visual_embedding'"),
        ("queries.jsonl", {"embedding": [0.5] * 12}, "unknown key 'embedding'"),
        # pins ascend by signature, so a repeated one fails too
        ("pins.jsonl", {"signature": 1000000}, "pin signature 1000000 does not ascend from 1000000"),
        ("pins.jsonl", {"signature": 999999}, "pin signature 999999 does not ascend from 1000000"),
        ("queries.jsonl", {"text": "sage green decor"}, "duplicate query text 'sage green decor'"),
        # the decoder validates each record
        ("pins.jsonl", {"perception_score": 1.5}, "perception_score 1.5 outside"),
        ("queries.jsonl", {"category": "Bogus"}, "category 'Bogus' not one of"),
    ])
    def test_bad_record_names_path_and_line(self, small_synth, tmp_path, name, edit, match):
        _save_edited(small_synth[0], tmp_path, name, 1, edit)
        with pytest.raises(CorpusError, match=rf"{name}:2: .*{match}"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("name", CORPUS_FILES.values())
    def test_missing_file_names_it(self, small_synth, tmp_path, name):
        save_corpus(small_synth[0], tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(CorpusError, match=rf"^missing corpus file {re.escape(str(tmp_path / name))}$"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("edit, match", [
        # a row count that does not match the records
        (lambda a: {**a, "visual": a["visual"][:-1]}, r"\(119, 16\), \(120, 12\)"),
        (lambda a: {**a, "text": np.vstack([a["text"], a["text"][:1]])}, r"\(121, 12\)"),
        (lambda a: {**a, "query_embeddings": a["query_embeddings"][1:]}, r"\(47, 12\)"),
        # a width that does not match, and an empty one
        (lambda a: {**a, "query_embeddings": a["query_embeddings"][:, :11]}, r"\(48, 11\)"),
        (lambda a: {**a, "visual": a["visual"][:, :0]}, r"\(120, 0\)"),
        (lambda a: {**a, "text": a["text"][:, :0], "query_embeddings": a["query_embeddings"][:, :0]},
         r"\(120, 0\)"),
        # a missing, extra, flat or integer matrix
        (lambda a: {n: a[n] for n in ("visual", "text")}, "expected the float32 matrices"),
        (lambda a: {**a, "extra": a["text"]}, "expected the float32 matrices"),
        (lambda a: {**a, "visual": a["visual"].ravel()}, "expected the float32 matrices"),
        (lambda a: {**a, "text": a["text"].astype("<i4")}, "expected the float32 matrices"),
        (lambda a: {**a, "text": np.full_like(a["text"], np.nan)}, "non-finite"),
    ])
    def test_bad_vector_file_names_it(self, small_synth, tmp_path, edit, match):
        path = _save_arrays_edited(small_synth[0], tmp_path, edit)
        with pytest.raises(CorpusError, match=match) as info:
            load_corpus(tmp_path)
        assert str(path) in str(info.value)

    # small_synth has 120 pins, 48 queries and 600 engagement rows
    @pytest.mark.parametrize("edit, match", [
        (lambda a: {**a, "clicks": a["clicks"][:-1]},
         r"engagement columns \['pin_row', 'query_row', 'impressions', 'clicks', 'avg_position'\] "
         r"have unequal lengths \[600, 600, 600, 599, 600\]"),
        (lambda a: {**a, **{n: a[n][:0] for n in ENGAGEMENT_ARRAYS}}, "no engagement records"),
        (_set("pin_row", 3, 120), "engagement row 3: pin_row 120 is no row of the 120 pins"),
        (_set("pin_row", 3, -1), "engagement row 3: pin_row -1 is no row of the 120 pins"),
        (_set("query_row", 3, 48), "engagement row 3: query_row 48 is no row of the 48 queries"),
        (_set("query_row", 3, -1), "engagement row 3: query_row -1 is no row of the 48 queries"),
        (_set("impressions", 3, -1), "engagement row 3: impressions -1 is negative"),
        (_set("clicks", 3, lambda a: a["impressions"][3] + 1),
         "engagement row 3: clicks [0-9]+ is negative or exceeds impressions"),
        (_set("clicks", 3, -1), "engagement row 3: clicks -1 is negative or exceeds impressions"),
        (_set("avg_position", 3, 0.5), "engagement row 3: avg_position 0.5 is below 1"),
        (_set("avg_position", 3, np.nan), "array 'avg_position' has non-finite values"),
        (_set("avg_position", 3, np.inf), "array 'avg_position' has non-finite values"),
        # a column of the other kind, or a column of two dimensions
        (lambda a: {**a, "impressions": a["impressions"].astype("<f4")}, "engagement columns"),
        (lambda a: {**a, "avg_position": a["avg_position"].astype("<i8")}, "engagement columns"),
        (lambda a: {**a, "pin_row": a["pin_row"].astype("<i4")}, "engagement columns"),
        (lambda a: {**a, "query_row": a["query_row"].astype("<f4")}, "engagement columns"),
        (lambda a: {**a, "clicks": a["clicks"][:, None]}, "engagement columns"),
        # a column missing, or a sixth one, as the array files that carried navboost had
        (lambda a: {n: c for n, c in a.items() if n != "impressions"}, "engagement columns"),
        (lambda a: {**a, "navboost": np.zeros(len(a["pin_row"]), "<f4")}, "engagement columns"),
    ])
    def test_bad_engagement_column_names_it_and_its_row(self, small_synth, tmp_path, edit, match):
        path = _save_arrays_edited(small_synth[0], tmp_path, edit)
        with pytest.raises(CorpusError, match=match) as info:
            load_corpus(tmp_path)
        assert str(path) in str(info.value)

    def test_damaged_vector_file_names_it(self, small_synth, tmp_path):
        """A cut, emptied or bit-flipped array file fails typed, with half
        the flips and two cuts in the engagement columns at its end."""
        save_corpus(small_synth[0], tmp_path)
        path = tmp_path / CORPUS_FILES["arrays"]
        data = path.read_bytes()
        columns = len(data) - 4 - sum(getattr(small_synth[0].engagement, n).nbytes for n in ENGAGEMENT_ARRAYS)
        rng = np.random.default_rng(0)
        damaged = [data[:cut] for cut in (0, 7, 20, len(data) // 2, columns, columns + 999,
                                          len(data) - 4, len(data) - 1)]
        positions = [*rng.integers(0, len(data), 20).tolist(), *rng.integers(columns, len(data), 20).tolist()]
        for pos, bit in zip(positions, rng.integers(0, 8, 40).tolist()):
            damaged.append(data[:pos] + bytes([data[pos] ^ 1 << bit]) + data[pos + 1:])
        for bad in damaged:
            path.write_bytes(bad)
            with pytest.raises(CorpusError, match=re.escape(str(path))):
                load_corpus(tmp_path)

    def test_read_jsonl_skips_blank_lines_and_names_bad_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"a": 2})]
        for bad in [b'{"a": \n', b'{"a": "\xff"}\n']:
            path.write_bytes(b'{"a": 1}\n' + bad)
            with pytest.raises(CorpusError, match=r"rows\.jsonl:2: malformed JSON"):
                list(read_jsonl(path))

    @pytest.mark.parametrize("line, match", [
        ("[1, 2]", r"expected a JSON object, got \[1, 2\]"),
        ('{"b": 1}', "missing key 'a'"),
        ('{"a": "x"}', "invalid literal for int"),
        ('{"a": ', "malformed JSON"),
    ])
    def test_read_records_names_bad_record(self, tmp_path, line, match):
        class RecordError(Exception):
            pass

        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 2}\n\n{"a": 1}\n')
        assert read_records(path, lambda obj: int(obj["a"]), RecordError) == [2, 1]
        path.write_text(f'{{"a": 2}}\n\n{line}\n')
        with pytest.raises(RecordError, match=rf"rows\.jsonl:3: {match}"):
            read_records(path, lambda obj: int(obj["a"]), RecordError)

    def test_unknown_pin_lookup(self, small_synth):
        corpus, _, _ = small_synth
        with pytest.raises(CorpusError, match="unknown pin"):
            corpus.pin(-1)


class TestHashing:
    def test_hashed_bag_deterministic_unit(self):
        a = hashed_bag_of_tokens("sage green decor", 64)
        b = hashed_bag_of_tokens("sage green decor", 64)
        assert np.array_equal(a, b)
        assert abs(float(np.linalg.norm(a)) - 1.0) <= 1e-6

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


MAGIC = b"TESTBOX1"


class BoxError(ValueError):
    pass


def _sealed(data: bytes) -> bytes:
    """``data`` and its CRC-32 trailer, as `save_arrays` ends a file."""
    return data + zlib.crc32(data).to_bytes(4, "little")


def _box(header, payload: bytes = b"", magic: bytes = MAGIC) -> bytes:
    """A container file assembled by hand, so a test can damage any part."""
    blob = json.dumps(header).encode("utf-8")
    return _sealed(magic + len(blob).to_bytes(8, "little") + blob + payload)


def _spec(name="a", dtype="<f4", shape=(2,)):
    return {"dtype": dtype, "name": name, "shape": list(shape)}


ONE_F4 = np.ones(1, dtype="<f4").tobytes()


class TestArrayContainer:
    def test_roundtrip(self, tmp_path):
        arrays = {
            "w": np.arange(6, dtype="<f4").reshape(2, 3),
            "ids": np.array([-5, 2**40], dtype="<i8"),
            "adj": np.array([[1, -1]], dtype="<i4"),
            "none": np.zeros((0, 4), dtype="<f4"),
        }
        meta = {"n": 3, "x": 0.25, "name": "box", "dims": [4, 2]}
        path = tmp_path / "box.bin"
        save_arrays(path, MAGIC, meta, arrays)
        got_meta, got = load_arrays(
            path, MAGIC, BoxError, {"n": int, "x": float, "name": str, "dims": [int]}
        )
        assert got_meta == meta
        assert list(got) == list(arrays)
        for name, a in arrays.items():
            assert got[name].dtype == a.dtype and np.array_equal(got[name], a)

    @pytest.mark.parametrize(
        "data, match",
        [
            (_box({"arrays": [], "meta": {"n": 1}}, magic=b"OTHERBOX"), "magic"),
            (_sealed(MAGIC + b"\x05\x00"), "truncated"),
            (_sealed(MAGIC + (999).to_bytes(8, "little") + b"{}"), "truncated"),
            (_sealed(MAGIC + (9).to_bytes(8, "little") + b"{not json"), "corrupt"),
            # a trailer that does not match, or none
            (_box({"arrays": [], "meta": {"n": 1}})[:-1] + b"\x00", "CRC-32 does not match"),
            (_box({"arrays": [], "meta": {"n": 1}})[:-4], "CRC-32 does not match"),
            (MAGIC + b"\x00", "CRC-32 does not match"),
            (_box({"arrays": []}), "missing or ill-typed"),
            (_box({"arrays": [], "meta": {"n": "1"}}), "missing or ill-typed"),
            (_box({"arrays": [], "meta": {"n": True}}), "missing or ill-typed"),
            (_box({"arrays": [], "meta": {"n": 1, "m": 2}}), "missing or ill-typed"),
            (_box({"arrays": [{"name": "a", "dtype": "<f4"}], "meta": {"n": 1}}),
             "missing or ill-typed"),
            (_box({"arrays": [_spec(shape=(1.5,))], "meta": {"n": 1}}), "missing or ill-typed"),
            (_box({"arrays": [_spec(dtype="<f8")], "meta": {"n": 1}}, ONE_F4 * 4), "dtype"),
            (_box({"arrays": [_spec(shape=(-1,))], "meta": {"n": 1}}), "negative"),
            (_box({"arrays": [_spec(), _spec()], "meta": {"n": 1}}, ONE_F4 * 4), "repeated"),
            (_box({"arrays": [], "meta": {"n": 1}}, b"\x00"), "trailing"),
            (_box({"arrays": [_spec()], "meta": {"n": 1}}, ONE_F4), "truncated"),
            (_box({"arrays": [_spec()], "meta": {"n": 1}}, ONE_F4 * 3), "trailing"),
            (_box({"arrays": [_spec(shape=(1,))], "meta": {"n": 1}},
                  np.array([np.nan], dtype="<f4").tobytes()), "non-finite"),
        ],
    )
    def test_damage_raises_callers_error(self, tmp_path, data, match):
        path = tmp_path / "box.bin"
        path.write_bytes(data)
        with pytest.raises(BoxError, match=match):
            load_arrays(path, MAGIC, BoxError, {"n": int})

    def test_int_is_a_float_but_not_infinite(self, tmp_path):
        path = tmp_path / "box.bin"
        path.write_bytes(_box({"arrays": [], "meta": {"x": 2}}))
        assert load_arrays(path, MAGIC, BoxError, {"x": float})[0] == {"x": 2}
        path.write_bytes(_box({"arrays": [], "meta": {"x": float("inf")}}))
        with pytest.raises(BoxError, match="ill-typed"):
            load_arrays(path, MAGIC, BoxError, {"x": float})


class TestAtomicWrites:
    """A write that fails partway leaves the old bytes, or no file, and no
    temporary file."""

    def test_write_jsonl(self, tmp_path):
        def killed():
            yield {"a": 2}
            raise RuntimeError("killed")

        path = tmp_path / "x.jsonl"
        with pytest.raises(RuntimeError):
            write_jsonl(path, killed())
        assert list(tmp_path.iterdir()) == []
        write_jsonl(path, [{"a": 1}])
        with pytest.raises(RuntimeError):
            write_jsonl(path, killed())
        assert path.read_bytes() == b'{"a":1}\n'
        assert list(tmp_path.iterdir()) == [path]

    def test_save_arrays(self, tmp_path):
        class Killed(np.ndarray):
            def tobytes(self, order="C"):
                raise RuntimeError("killed")

        path = tmp_path / "box.bin"
        save_arrays(path, MAGIC, {}, {"a": np.ones(2, dtype="<f4")})
        before = path.read_bytes()
        arrays = {"a": np.zeros(2, dtype="<f4"), "b": np.zeros(3, dtype="<f4").view(Killed)}
        with pytest.raises(RuntimeError):
            save_arrays(path, MAGIC, {}, arrays)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def test_only_core_imports_struct():
    """Binary layouts live behind core's array container."""
    importers = set()
    for path in Path(geoforge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "struct" in names:
                importers.add(path.stem)
    assert importers <= {"core"}


def test_only_core_opens_files_for_writing():
    """Artifacts are written through core's atomic writers: no other module
    calls `open` with a writing mode, `.write_text` or `.write_bytes`."""
    writers = set()
    for path in Path(geoforge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
                writers.add(path.stem)
            elif (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr == "open"
            ):
                # builtin open(path, mode) or Path.open(mode)
                modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
                modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
                if any(
                    not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                    for m in modes
                ):
                    writers.add(path.stem)
    assert writers <= {"core"}


def test_only_core_reads_jsonl():
    """JSONL artifacts are parsed through `core.read_records`: no other
    module calls `read_jsonl`."""
    readers = set()
    for path in Path(geoforge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "read_jsonl" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                readers.add(path.stem)
    assert readers <= {"core"}


def test_every_import_is_used():
    """No module imports a name that its code never reads."""
    unused = []
    for path in sorted(Path(geoforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert unused == []


def test_only_the_workspace_loads_stage_inputs():
    """In `pipeline`, the corpus, index and encoders are loaded only by
    `Workspace`, which keeps each for the rest of the run."""
    loaders = {"load_corpus", "load_encoders", "HnswIndex.load"}

    def loads(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func).rsplit(".", 2)
                if ".".join(name[-2:]) in loaders or name[-1] in loaders:
                    yield node

    tree = ast.parse((Path(geoforge.__file__).parent / "pipeline.py").read_text(encoding="utf-8"))
    (workspace,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Workspace"]
    inside = list(loads(workspace))
    assert len(inside) == 3
    assert set(map(id, loads(tree))) == set(map(id, inside))


def test_only_mlp_lays_out_tower_checkpoints():
    """`encoders` and `ranker` save and load their towers through
    `mlp.save_nets` and `mlp.load_nets`: neither imports `save_arrays` or
    `load_arrays`, so only `mlp` knows how a net lies in an array file."""
    imported = {}
    for stem in ("encoders", "ranker"):
        tree = ast.parse((Path(geoforge.__file__).parent / f"{stem}.py").read_text(encoding="utf-8"))
        imported[stem] = {alias.name for node in ast.walk(tree)
                          if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert all(names.isdisjoint({"save_arrays", "load_arrays"}) for names in imported.values())
    assert all({"save_nets", "load_nets"} <= names for names in imported.values())


def test_artifact_paths_are_named_only_in_the_artifact_table():
    """`pipeline` and `cli` write an artifact's file name only in
    `pipeline.ARTIFACTS`: no other string literal there ends in an artifact
    suffix."""
    suffixes = (".jsonl", ".json", ".bin", ".csv", ".xml")
    named = []
    for stem in ("pipeline", "cli"):
        tree = ast.parse((Path(geoforge.__file__).parent / f"{stem}.py").read_text(encoding="utf-8"))
        table = {
            id(n) for node in tree.body
            if isinstance(node, ast.Assign) and "ARTIFACTS" in [ast.unparse(t) for t in node.targets]
            for n in ast.walk(node)
        }
        named += [
            f"{stem}:{node.lineno}: {node.value}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.endswith(suffixes) and id(node) not in table
        ]
    assert named == []


def test_only_mlp_does_network_arithmetic():
    """LayerNorm and dropout live in `mlp`: no other module names `LN_EPS`
    or a forward cache's ``"xhat"``, ``"inv_std"`` or ``"mask"`` key."""
    users = set()
    for path in Path(geoforge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            if "LN_EPS" in names or (
                isinstance(node, ast.Constant) and node.value in ("xhat", "inv_std", "mask")
            ):
                users.add(path.stem)
    assert users <= {"mlp"}


# imported names a module keeps without using them, each with its reason
UNUSED_IMPORTS: dict[str, str] = {}


def test_no_unused_imports():
    """Every name a package or test module imports is used in that module."""
    tests_dir = Path(__file__).parent
    unused = set()
    for path in [*Path(geoforge.__file__).parent.glob("*.py"), *tests_dir.glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in imported - used}
    assert sorted(unused) == sorted(UNUSED_IMPORTS)


# public names no program code calls, each kept for the acceptance
# criterion that checks it
TEST_ONLY_PUBLIC = {
    "encoders.searchsage_loss": "criterion 02: query/entity loss gradients",
    "hnsw.brute_force_search": "criterion 04: exact top-10 for index recall",
    "curation.stratify_sample": "criterion 08: stratified sampling",
    "collections_.build_collection": "criterion 11: off-cluster topic collections",
    "agent.replay_trace": "criterion 12: trace replay",
}


def _is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", [])
    )


def test_public_code_backs_the_program_or_a_criterion():
    """A module-level public function or class, or a public method of a
    module-level class, that no program code uses outside its own
    definition must back an acceptance criterion."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(geoforge.__file__).parent.glob("*.py")
    }
    uses: dict[str, list[tuple[str, ast.AST]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node))
    unused = set()
    for module, tree in trees.items():
        methods = [
            (f"{module}.{cls.name}", node) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
        ]
        for owner, node in [(module, node) for node in tree.body] + methods:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or _is_click_command(node)):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(m == module and id(n) in inside for m, n in uses.get(node.name, [])):
                unused.add(f"{owner}.{node.name}")
    assert sorted(unused) == sorted(TEST_ONLY_PUBLIC)


# module-config fields that no program code sets, each kept for the tests
# that set it
TEST_FIXTURE_FIELDS = {
    "SynthConfig.queries_per_cluster": "the corpora of conftest and of criterion 07",
    "SynthConfig.engagement_per_pin": "the corpora of conftest and of criterion 07",
    "TowerConfig.hidden": "the small towers of the finite-difference checks",
    "TowerConfig.output_dim": "the small towers of the finite-difference checks",
    "TowerConfig.dropout_rate": "the small towers of the finite-difference checks",
    "RankerTrainConfig.batch_size": "five-step training runs at batch 8",
}


def test_every_config_field_has_a_caller():
    """Each init field of a package dataclass named `*Config` or `*Params`,
    but PipelineConfig, whose fields are all config-file keys, is passed by
    name or position in some call in the package or in perfbench, or backs a
    test fixture. A ``**`` call, as from file metadata, sets nothing."""
    package = Path(geoforge.__file__).parent
    configs: dict[str, list[str]] = {}
    for path in package.glob("*.py"):
        module = importlib.import_module(f"geoforge.{path.stem}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__
                    and name.endswith(("Config", "Params")) and name != "PipelineConfig"):
                configs[name] = [f.name for f in dataclasses.fields(obj) if f.init]
    set_fields = set()
    callers = [*package.glob("*.py"), *(Path(__file__).parents[1] / "perfbench").glob("*.py")]
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in configs:
                set_fields |= {f"{name}.{f}" for f in configs[name][: len(node.args)]}
                set_fields |= {f"{name}.{kw.arg}" for kw in node.keywords if kw.arg}
    fields = {f"{name}.{f}" for name, names in configs.items() for f in names}
    assert {"HnswParams.M", "TrainConfig.seed"} <= fields  # the scan found the configs
    assert sorted(fields - set_fields) == sorted(TEST_FIXTURE_FIELDS)

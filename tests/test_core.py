"""Domain types, vector math, seeded RNG streams, and corpus IO."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import geoforge
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
    l2_normalize,
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

    @pytest.mark.parametrize("name, edit, match", [
        ("pins.jsonl", {"signature": None}, "missing key 'signature'"),
        ("pins.jsonl", {"colour": "red"}, "unexpected keyword argument 'colour'"),
        ("queries.jsonl", {"category": None}, "missing 1 required positional argument: 'category'"),
        ("engagement.jsonl", {"clicks": "many"}, "invalid literal for int"),
    ])
    def test_bad_record_names_path_and_line(self, small_synth, tmp_path, name, edit, match):
        """A key set to None in `edit` is dropped from the second record."""
        corpus, _, config = small_synth
        manifest = CorpusManifest(
            pins_path=tmp_path / "pins.jsonl",
            queries_path=tmp_path / "queries.jsonl",
            engagement_path=tmp_path / "engagement.jsonl",
            d_v=config.d_v,
            d_t=config.d_t,
        )
        save_corpus(corpus, manifest)
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        record = {**json.loads(lines[1]), **edit}
        lines[1] = json.dumps({k: v for k, v in record.items() if v is not None})
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=rf"{name}:2: .*{match}"):
            load_corpus(manifest)

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

    def test_manifest_unknown_key(self, tmp_path):
        # a manifest as written before ranker_dim was dropped
        path = tmp_path / "manifest.txt"
        path.write_text(
            "pins=pins.jsonl\nqueries=queries.jsonl\nengagement=engagement.jsonl\n"
            "d_v=64\nd_t=48\nranker_dim=128\nseed=3\n"
        )
        with pytest.raises(CorpusError, match=r"manifest\.txt:6: unknown manifest key 'ranker_dim'"):
            CorpusManifest.load(path)

    def test_manifest_malformed_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("pins\n")
        with pytest.raises(CorpusError, match="key=value"):
            CorpusManifest.load(path)

    def test_manifest_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("pins=p.jsonl\nqueries=q.jsonl\nengagement=e.jsonl\nd_v=abc\n")
        with pytest.raises(CorpusError, match=r"manifest\.txt:4: d_v must be int, got 'abc'"):
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

    def test_duplicate_query_text(self, tmp_path):
        query = QueryRecord(text="sage green", category="Description", embedding=np.ones(2))
        other = QueryRecord(text="fall nails", category="UseCase", embedding=np.ones(2))
        write_jsonl(tmp_path / "q.jsonl", [q.to_json() for q in (query, other, query)])
        (tmp_path / "pins.jsonl").write_text("")
        (tmp_path / "e.jsonl").write_text("")
        (tmp_path / "manifest.txt").write_text(
            "pins=pins.jsonl\nqueries=q.jsonl\nengagement=e.jsonl\nd_v=2\nd_t=2\n"
        )
        with pytest.raises(CorpusError, match=r"q\.jsonl:3: duplicate query text 'sage green'"):
            load_corpus(CorpusManifest.load(tmp_path / "manifest.txt"))

    def test_read_jsonl_skips_blank_lines_and_names_bad_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"a": 2})]
        path.write_text('{"a": 1}\n{"a": \n')
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


def _box(header, payload: bytes = b"", magic: bytes = MAGIC) -> bytes:
    """A container file assembled by hand, so a test can damage any part."""
    blob = json.dumps(header).encode("utf-8")
    return magic + len(blob).to_bytes(8, "little") + blob + payload


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
            (MAGIC + b"\x05\x00", "truncated"),
            (MAGIC + (999).to_bytes(8, "little") + b"{}", "truncated"),
            (MAGIC + (9).to_bytes(8, "little") + b"{not json", "corrupt"),
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


def test_only_the_workspace_loads_stage_inputs():
    """In `pipeline`, the corpus, index and encoders are loaded only by
    `Workspace`, which keeps each for the rest of the run."""
    loaders = {"load_corpus", "load_model", "HnswIndex.load"}

    def loads(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func).rsplit(".", 2)
                if ".".join(name[-2:]) in loaders or name[-1] in loaders:
                    yield node

    tree = ast.parse((Path(geoforge.__file__).parent / "pipeline.py").read_text(encoding="utf-8"))
    (workspace,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Workspace"]
    inside = list(loads(workspace))
    assert len(inside) == 4
    assert set(map(id, loads(tree))) == set(map(id, inside))


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
UNUSED_IMPORTS = {
    "curation.cosine": "the benchmark's tracer test looks it up on curation",
}


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
    "ranker.margin_loss": "criterion 06: margin loss",
    "curation.stratify_sample": "criterion 08: stratified sampling",
    "agent.replay_trace": "criterion 12: trace replay",
    "hnsw.brute_force_search": "criterion 04: exact top-10 as the recall oracle",
}


def _is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", [])
    )


def test_public_code_backs_the_program_or_a_criterion():
    """A module-level public function or class that no program code uses
    outside its own definition must back an acceptance criterion."""
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
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or _is_click_command(node)):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(m == module and id(n) in inside for m, n in uses.get(node.name, [])):
                unused.add(f"{module}.{node.name}")
    assert sorted(unused) == sorted(TEST_ONLY_PUBLIC)

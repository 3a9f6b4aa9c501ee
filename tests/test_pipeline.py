"""Stage orchestration: config parsing, dependency handling, corpus
loading, shared builders, and artifact/report integrity of a full run."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from geoforge import collections_, curation, encoders, hnsw, pipeline, ranker
from geoforge.core import QueryRecord, write_jsonl
from geoforge.pipeline import (
    ARTIFACTS,
    PRODUCERS,
    STAGE_INPUTS,
    STAGE_ORDER,
    STAGE_OUTPUTS,
    PipelineConfig,
    PipelineError,
    Workspace,
    annotate_pins,
    annotation_map,
    run_pipeline,
)


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("n_pins=100\nwat=1\n")
        with pytest.raises(PipelineError, match="unknown config key"):
            PipelineConfig.from_file(path)

    def test_values_parsed_and_dashes_normalized(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# comment\nn-pins=100\nranker_lr=0.2\nbase_url=https://x.test\n")
        config = PipelineConfig.from_file(path)
        assert config.n_pins == 100
        assert config.ranker_lr == 0.2
        assert config.base_url == "https://x.test"

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("n_pins=100\n")
        config = PipelineConfig.from_file(path, n_pins=50)
        assert config.n_pins == 50

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("n_pins\n")
        with pytest.raises(PipelineError, match="key=value"):
            PipelineConfig.from_file(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("seed=3\nn_pins=abc\n")
        with pytest.raises(PipelineError, match=r"config\.txt:2: n_pins must be int, got 'abc'"):
            PipelineConfig.from_file(path)


class TestStageGraph:
    def test_unknown_stage_rejected(self, tmp_path):
        config = PipelineConfig(out_dir=tmp_path)
        with pytest.raises(PipelineError, match="unknown stage"):
            run_pipeline(config, stages=["polish"])

    def test_missing_artifact_fails_with_producer_named(self, tmp_path):
        config = PipelineConfig(out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["build-index"])
        assert not ok
        result = report["stages"]["build-index"]
        assert result["status"] == "failed"
        assert "'build-index'" in result["error"]
        assert "gen-corpus" in result["error"]
        assert result["error_type"] == "DependencyError"
        assert result["traceback"].startswith("Traceback (most recent call last):")
        assert "_check_inputs" in result["traceback"]
        assert result["traceback"].rstrip().endswith(f"DependencyError: {result['error']}")
        saved = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert saved["stages"]["build-index"] == result

    @pytest.mark.parametrize("stage, missing, producer", [
        ("curate", "corpus/navboost.jsonl", "gen-corpus"),
        ("build-index", "encoder_img.bin", "train-encoder"),
        ("eval", "encoder_txt.bin", "train-encoder"),
        ("eval", "encoder_train_log.csv", "train-encoder"),
        ("eval", "curation_report.json", "curate"),
    ])
    def test_always_written_input_is_required(
        self, pipeline_run, tmp_path, stage, missing, producer
    ):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        (tmp_path / missing).unlink()
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=[stage])
        result = report["stages"][stage]
        assert not ok and result["error_type"] == "DependencyError"
        assert str(tmp_path / missing) in result["error"]
        assert f"(produced by stage {producer!r})" in result["error"]

    def test_eval_reads_pin_vectors_from_the_index(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        (tmp_path / "encoder_img.bin").unlink()
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["eval"])
        assert ok and report["stages"]["eval"]["status"] == "ok"
        assert (tmp_path / "eval_report.json").read_bytes() == (
            pipeline_run["ws"].eval_report.read_bytes()
        )

    def test_failure_blocks_dependents_only(self, tmp_path):
        config = PipelineConfig(out_dir=tmp_path, n_pins=40, n_clusters=4)
        report, ok = run_pipeline(
            config, stages=["train-encoder", "build-index"]
        )
        assert not ok
        assert report["stages"]["train-encoder"]["status"] == "failed"
        assert report["stages"]["build-index"]["status"] == "skipped"
        assert report["stages"]["build-index"]["blocked_by"] == ["train-encoder"]

    def test_failed_stage_blocks_every_reader_of_its_outputs(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        navboost = tmp_path / "corpus" / "navboost.jsonl"
        lines = navboost.read_text(encoding="utf-8").splitlines(keepends=True)
        navboost.write_text("".join([*lines[:3], '{"query_text": \n', *lines[3:]]))
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["curate", "eval"])
        assert not ok
        curate = report["stages"]["curate"]
        assert curate["status"] == "failed" and curate["error_type"] == "CorpusError"
        assert "navboost.jsonl:4" in curate["error"]
        assert "stage_curate" in curate["traceback"]
        assert report["stages"]["eval"] == {"status": "skipped", "blocked_by": ["curate"]}

    @pytest.mark.parametrize("stage, artifact, edit, error_type, match", [
        ("curate", "corpus/navboost.jsonl", {"coverage": None},
         "CorpusError", "missing key 'coverage'"),
        ("train-ranker", "labeled_pairs.jsonl", {"query_text": "no such query"},
         "CorpusError", "unknown query text 'no such query'"),
        ("train-ranker", "labeled_pairs.jsonl", {"label": 7},
         "CorpusError", "label must be \\+1 or -1, got 7"),
        ("link", "annotations.jsonl", {"score": None}, "PipelineError", "missing key 'score'"),
        ("link", "collections.jsonl", {"slug": None}, "CollectionError", "missing key 'slug'"),
        ("link", "annotations.jsonl", '{"pin_signature": ', "PipelineError", "malformed JSON: .+"),
        ("link", "collections.jsonl", "{not json", "CollectionError", "malformed JSON: .+"),
        ("agent-run", "corpus/trends.jsonl", "[1, 2", "AgentError", "malformed JSON: .+"),
    ])
    def test_bad_record_fails_its_reader_naming_path_and_line(
        self, pipeline_run, tmp_path, stage, artifact, edit, error_type, match
    ):
        """A dict `edit` is merged into the second record, where a key set
        to None is dropped; a str `edit` replaces the second line."""
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        path = tmp_path / artifact
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if isinstance(edit, str):
            lines[1] = edit + "\n"
        else:
            record = {**json.loads(lines[1]), **edit}
            lines[1] = json.dumps({k: v for k, v in record.items() if v is not None}) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=[stage])
        result = report["stages"][stage]
        assert not ok and result["error_type"] == error_type
        assert re.match(rf"{re.escape(str(path))}:2: {match}$", result["error"])

    @pytest.mark.parametrize("artifact, text, match", [
        ("link_report.json", '{"nodes": 3, "pagerank": ', "malformed JSON"),
        ("link_report.json", "[1, 2]", "expected a JSON object, got list"),
        ("link_report.json", '{"orphan_pins": 0}', "missing key 'pagerank'"),
        ("link_report.json", '{"pagerank": {}}', "missing key 'orphan_pins'"),
        ("curation_report.json", "", "malformed JSON"),
        ("curation_report.json", '"retention_branches"', "expected a JSON object, got str"),
        ("curation_report.json", "{}", "missing key 'retention_branches'"),
    ])
    def test_bad_report_fails_eval_naming_path(self, pipeline_run, tmp_path, artifact, text, match):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        (tmp_path / artifact).write_text(text, encoding="utf-8")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["eval"])
        result = report["stages"]["eval"]
        assert not ok and result["error_type"] == "PipelineError"
        assert result["error"].startswith(f"{tmp_path / artifact}: {match}")

    def test_header_only_encoder_log_fails_eval(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        (tmp_path / "encoder_train_log.csv").write_text("step,loss,grad_norm\n")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["eval"])
        result = report["stages"]["eval"]
        assert not ok and result["error_type"] == "PipelineError"
        assert "encoder_train_log.csv" in result["error"]

    def test_stage_table(self):
        assert set(STAGE_INPUTS) == set(STAGE_OUTPUTS) == set(STAGE_ORDER)
        outputs = [name for stage in STAGE_ORDER for name in STAGE_OUTPUTS[stage]]
        assert len(outputs) == len(set(outputs)), "an artifact has two producers"
        assert set(outputs) <= set(ARTIFACTS)
        for stage, inputs in STAGE_INPUTS.items():
            for name in inputs:
                assert name in ARTIFACTS
                assert name in PRODUCERS, f"{stage} reads {name}, which no stage writes"
                assert STAGE_ORDER.index(PRODUCERS[name]) < STAGE_ORDER.index(stage)


class TestAnnotationMap:
    RECORDS = [
        {"pin_signature": 1, "query_text": "a", "score": 0.9, "rank": 1},
        {"pin_signature": 1, "query_text": "b", "score": 0.4, "rank": 2},
        {"pin_signature": 2, "query_text": "c", "score": 0.8, "rank": 4},
    ]

    def test_threshold_and_rank_filtering(self):
        mapped = annotation_map(self.RECORDS, threshold=0.6, per_pin=3)
        assert mapped == {1: ["a"]}

    def test_permissive_settings_keep_all(self):
        mapped = annotation_map(self.RECORDS, threshold=0.0, per_pin=4)
        assert mapped == {1: ["a", "b"], 2: ["c"]}


class TestAnnotatePins:
    EMB = np.array([0.5, 0.1, -0.2])
    QUERIES = [
        QueryRecord("b query", "UseCase", embedding=EMB),
        QueryRecord("a query", "UseCase", embedding=EMB),
        QueryRecord("c other", "UseCase", embedding=-EMB),
    ]

    def test_ordering_and_tie_break(self):
        e_queries = np.stack([q.embedding for q in self.QUERIES])
        pin = np.array([1.0, 0.0, 0.0])
        records = annotate_pins({2: pin, 1: pin}, self.QUERIES, e_queries, per_pin=3)
        assert [r["pin_signature"] for r in records] == [1, 1, 1, 2, 2, 2]
        scores = [r["score"] for r in records[:3]]
        assert scores == sorted(scores, reverse=True)
        # identical embeddings tie; tie breaks on text
        assert [r["query_text"] for r in records[:3]] == ["a query", "b query", "c other"]
        assert [r["rank"] for r in records[:3]] == [1, 2, 3]

    def test_budget_and_empty_candidates(self):
        e_queries = np.stack([q.embedding for q in self.QUERIES])
        records = annotate_pins({1: np.ones(3)}, self.QUERIES, e_queries, per_pin=1)
        assert [r["query_text"] for r in records] == ["a query"]
        assert annotate_pins({1: np.ones(3)}, [], np.zeros((0, 3)), per_pin=5) == []


class TestLabeledPairs:
    def test_round_trip(self, small_synth, tmp_path):
        corpus, sidecar, _ = small_synth
        labeled, _ = curation.curate(corpus.queries, corpus.engagement, sidecar["navboost"])
        ws = Workspace(tmp_path)
        write_jsonl(ws.labeled_pairs, (p.to_json() for p in labeled))
        loaded = pipeline._load_labeled(ws, corpus)
        assert [p.to_json() for p in loaded] == [p.to_json() for p in labeled]
        assert all(a.query is b.query for a, b in zip(loaded, labeled))

    def test_written_by_query_text(self, pipeline_run):
        ws = pipeline_run["ws"]
        line = ws.labeled_pairs.read_text(encoding="utf-8").splitlines()[0]
        assert list(json.loads(line)) == [
            "pin_signature", "query_text", "label", "navboost_coverage", "source"
        ]


class TestCorpusLoad:
    def test_one_load_per_run_and_stages_still_run_alone(self, tmp_path, monkeypatch):
        """Each input several stages read is parsed once per run, and eval
        alone scores correct_rank."""
        calls = Counter()

        def counted(fn, key):
            def wrapper(*args):
                calls[key(*args)] += 1
                return fn(*args)
            return wrapper

        def name(path, *_):
            return Path(path).name

        monkeypatch.setattr(pipeline, "load_corpus", counted(pipeline.load_corpus, lambda _: "corpus"))
        monkeypatch.setattr(hnsw.HnswIndex, "load", classmethod(
            counted(hnsw.HnswIndex.load.__func__, lambda _, path: name(path))
        ))
        monkeypatch.setattr(encoders, "load_model", counted(encoders.load_model, name))
        monkeypatch.setattr(pipeline, "read_records", counted(pipeline.read_records, name))
        monkeypatch.setattr(
            collections_, "load_collections", counted(collections_.load_collections, name)
        )
        monkeypatch.setattr(
            ranker, "correct_rank", counted(ranker.correct_rank, lambda *_: "correct_rank")
        )
        config = PipelineConfig(
            out_dir=tmp_path, n_pins=40, n_clusters=4, encoder_steps=20, ranker_steps=50
        )
        report, ok = run_pipeline(config)
        assert ok, report["stages"]
        assert calls == Counter([
            "corpus", "navboost.jsonl", "encoder_img.bin", "encoder_txt.bin", "index.bin",
            "labeled_pairs.jsonl", "annotations.jsonl", "collections.jsonl", "correct_rank",
        ])
        assert "correct_rank" not in report["stages"]["train-ranker"]["metrics"]
        # a fresh run of one stage reads its inputs from disk again
        calls.clear()
        rerun, ok = run_pipeline(config, stages=["build-collections"])
        assert ok and calls == Counter(
            ["corpus", "encoder_txt.bin", "index.bin", "annotations.jsonl"]
        )
        assert rerun["checksums"]["collections.jsonl"] == report["checksums"]["collections.jsonl"]


class TestCollections:
    def test_published_topic_is_taken_and_first_text_wins_its_slug(self, pipeline_run):
        ws = Workspace(pipeline_run["ws"].out)
        config = pipeline_run["config"]
        texts = sorted(q.text for q in ws.corpus.queries)[:5]
        fresh = pipeline.build_collections(config, ws, texts)
        assert [c.topic.text for c in fresh] == texts
        # an upper-case twin sorts first and takes the slug of texts[1]
        twin = dataclasses.replace(ws.corpus.queries[-1], text=texts[1].upper())
        ws.corpus = dataclasses.replace(ws.corpus, queries=[*ws.corpus.queries, twin])
        marker = dataclasses.replace(fresh[2], members=[(-1, 0.0)])
        built = pipeline.build_collections(config, ws, [*texts, twin.text, "no such query"], [marker])
        assert [c.topic.text for c in built] == [twin.text, texts[0], texts[2], texts[3], texts[4]]
        assert built[2] is marker
        assert built[1].to_json() == fresh[0].to_json()

    def test_ablation_from_published_collections_equals_a_full_rebuild(
        self, pipeline_run, monkeypatch
    ):
        """The ablation takes every collection build-collections published
        instead of rebuilding it, and its figures do not move."""
        ws = Workspace(pipeline_run["ws"].out)
        config = pipeline_run["config"]
        built = []
        batch = collections_.build_collections

        def counted(topics, *args):
            built.append(len(topics))
            return batch(topics, *args)

        monkeypatch.setattr(collections_, "build_collections", counted)
        reused = pipeline.ablation_study(config, ws)
        reused_topics = sum(built)
        built.clear()
        bare = Workspace(ws.out)
        bare.published_collections = []
        rebuilt = pipeline.ablation_study(config, bare)
        assert reused == rebuilt
        assert reused == pipeline_run["report"]["stages"]["eval"]["metrics"]["ablation"]
        assert sum(built) - reused_topics >= len(ws.published_collections) > 0

    def test_build_collections_replaces_stale_pages(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        (tmp_path / "pages" / "stale-topic.html").write_text("old", encoding="utf-8")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["build-collections"])
        assert ok
        pages = sorted(p.name for p in (tmp_path / "pages").iterdir())
        assert pages == sorted(f"{c.slug}.html" for c in Workspace(tmp_path).published_collections)
        for name in pages:
            original = pipeline_run["ws"].out / "pages" / name
            assert (tmp_path / "pages" / name).read_bytes() == original.read_bytes()


class TestFullRun:
    def test_all_stages_ok_and_artifacts_present(self, pipeline_run):
        report = pipeline_run["report"]
        ws = pipeline_run["ws"]
        assert set(report["stages"]) == set(STAGE_ORDER)
        for stage, result in report["stages"].items():
            assert result["status"] == "ok", f"{stage}: {result}"
        for stage in STAGE_ORDER:
            for name in STAGE_OUTPUTS[stage]:
                artifact = getattr(ws, name)
                assert artifact.exists(), f"{stage} artifact missing: {artifact}"
                key = str(artifact.relative_to(ws.out))
                assert key in report["checksums"]
        assert ws.report.exists()

    def test_every_written_file_is_a_checksummed_output(self, tmp_path):
        config = PipelineConfig(
            out_dir=tmp_path, n_pins=40, n_clusters=4, encoder_steps=20, ranker_steps=50
        )
        report, ok = run_pipeline(config)
        assert ok, report["stages"]
        ws = Workspace(tmp_path)
        written = {
            str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
            if p.is_file() and p != ws.report and ws.pages_dir not in p.parents
        }
        declared = {
            str(getattr(ws, name).relative_to(tmp_path))
            for names in STAGE_OUTPUTS.values() for name in names
        }
        assert written == declared
        assert set(report["checksums"]) == written

    def test_eval_report_holds_the_eval_metrics(self, pipeline_run):
        metrics = pipeline_run["report"]["stages"]["eval"]["metrics"]
        text = pipeline_run["ws"].eval_report.read_text(encoding="utf-8")
        assert text == json.dumps(metrics, indent=2, sort_keys=True)

    def test_eval_metrics_sane(self, pipeline_run):
        metrics = pipeline_run["report"]["stages"]["eval"]["metrics"]
        assert metrics["recall_at_10"] >= 0.9
        assert metrics["correct_rank"] >= 0.9
        assert metrics["intent_satisfying_rate_mean"] >= 0.8
        assert metrics["pagerank"]["converged"] is True

    def test_stage_rerun_in_isolation_reuses_artifacts(self, pipeline_run):
        # link re-runs from on-disk artifacts alone and reproduces its output
        ws = pipeline_run["ws"]
        before = pipeline_run["report"]["checksums"]["link_report.json"]
        report, ok = run_pipeline(pipeline_run["config"], stages=["link"])
        assert ok
        assert report["checksums"]["link_report.json"] == before

    def test_stage_run_merges_into_the_report(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["eval"])
        assert ok
        saved = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert saved == report
        assert set(saved["stages"]) == set(STAGE_ORDER)
        assert all(result["status"] == "ok" for result in saved["stages"].values())
        assert saved["checksums"] == pipeline_run["report"]["checksums"]

    def test_failed_stage_run_drops_only_its_own_checksums(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        (tmp_path / "encoder_txt.bin").unlink()
        before = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["eval"])
        assert not ok and report["stages"]["eval"]["error_type"] == "DependencyError"
        del before["checksums"]["eval_report.json"]
        assert report["checksums"] == before["checksums"]
        del before["stages"]["eval"], report["stages"]["eval"]
        assert report["stages"] == before["stages"]

    def test_report_of_another_seed_is_replaced(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path, seed=8)
        report, _ = run_pipeline(config, stages=["link"])
        assert report["seed"] == 8 and set(report["stages"]) == {"link"}
        assert set(report["checksums"]) == {"graph.jsonl", "link_report.json", "sitemap.xml"}

    @pytest.mark.parametrize("text, match", [
        ('{"seed": 7, "stages": {', "malformed JSON"),
        ('{"seed": 7, "stages": {}}', "missing key 'checksums'"),
        ('{"seed": 7, "stages": [], "checksums": {}}', "must be JSON objects"),
    ])
    def test_unreadable_report_fails_naming_path(self, tmp_path, text, match):
        (tmp_path / "report.json").write_text(text)
        config = PipelineConfig(out_dir=tmp_path, seed=7)
        path = re.escape(str(tmp_path / "report.json"))
        with pytest.raises(PipelineError, match=rf"{path}: .*{match}"):
            run_pipeline(config, stages=["gen-corpus"])

"""Stage orchestration: config parsing, dependency handling, corpus
loading, shared builders, and artifact/report integrity of a full run."""

from __future__ import annotations

import numpy as np
import pytest

from geoforge import pipeline
from geoforge.core import QueryRecord
from geoforge.pipeline import (
    STAGE_ARTIFACTS,
    STAGE_DEPS,
    STAGE_ORDER,
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

    def test_failure_blocks_dependents_only(self, tmp_path):
        config = PipelineConfig(out_dir=tmp_path, n_pins=40, n_clusters=4)
        report, ok = run_pipeline(
            config, stages=["train-encoder", "build-index"]
        )
        assert not ok
        assert report["stages"]["train-encoder"]["status"] == "failed"
        assert report["stages"]["build-index"]["status"] == "skipped"
        assert report["stages"]["build-index"]["blocked_by"] == ["train-encoder"]

    def test_every_stage_has_deps_and_artifacts(self):
        assert set(STAGE_DEPS) == set(STAGE_ORDER)
        assert set(STAGE_ARTIFACTS) == set(STAGE_ORDER)


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


class TestCorpusLoad:
    def test_one_load_per_run_and_stages_still_run_alone(self, tmp_path, monkeypatch):
        calls = []
        load = pipeline.load_corpus
        monkeypatch.setattr(
            pipeline, "load_corpus", lambda manifest: calls.append(1) or load(manifest)
        )
        config = PipelineConfig(
            out_dir=tmp_path, n_pins=40, n_clusters=4, encoder_steps=20, ranker_steps=50
        )
        report, ok = run_pipeline(config)
        assert ok, report["stages"]
        assert len(calls) == 1
        # a fresh run of one stage reads the corpus from disk again
        rerun, ok = run_pipeline(config, stages=["build-collections"])
        assert ok and len(calls) == 2
        assert rerun["checksums"]["collections.jsonl"] == report["checksums"]["collections.jsonl"]


class TestFullRun:
    def test_all_stages_ok_and_artifacts_present(self, pipeline_run):
        report = pipeline_run["report"]
        ws = pipeline_run["ws"]
        assert set(report["stages"]) == set(STAGE_ORDER)
        for stage, result in report["stages"].items():
            assert result["status"] == "ok", f"{stage}: {result}"
        for stage in STAGE_ORDER:
            for artifact in STAGE_ARTIFACTS[stage](ws):
                assert artifact.exists(), f"{stage} artifact missing: {artifact}"
                key = str(artifact.relative_to(ws.out))
                assert key in report["checksums"]
        assert ws.report.exists()

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

"""Stage orchestration: config parsing, dependency handling, corpus
loading, shared builders, and artifact/report integrity of a full run."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from geoforge import collections_, curation, encoders, hnsw, pipeline, ranker, synth
from geoforge.core import (
    ARRAYS_MAGIC, ENGAGEMENT_ARRAYS, CorpusError, LabeledPair, QueryRecord, file_checksum, load_arrays,
    read_records, save_arrays, write_jsonl,
)
from geoforge.mlp import Mlp
from geoforge.pipeline import (
    ARTIFACTS,
    PRODUCERS,
    STAGE_INPUTS,
    STAGE_ORDER,
    STAGE_OUTPUTS,
    Annotation,
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
        with pytest.raises(PipelineError, match="^no stages requested$"):
            run_pipeline(config, stages=[])
        assert not any(tmp_path.iterdir())

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
        ("build-index", "encoders.bin", "train-encoder"),
        ("eval", "encoders.bin", "train-encoder"),
        ("eval", "encoder_train_log.jsonl", "train-encoder"),
        ("eval", "ranker_train_log.jsonl", "train-ranker"),
        ("eval", "curation_report.json", "curate"),
        ("train-encoder", "corpus/pins.jsonl", "gen-corpus"),
        ("agent-run", "corpus/queries.jsonl", "gen-corpus"),
        # every stage that reads the corpus needs its array file
        *[(stage, "corpus/arrays.bin", "gen-corpus") for stage in (
            "curate", "train-encoder", "build-index", "train-ranker", "build-collections",
            "agent-run", "eval",
        )],
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

    def test_gen_corpus_writes_its_declared_outputs(self, pipeline_run):
        ws = pipeline_run["ws"]
        declared = {ARTIFACTS[name][1] for name in STAGE_OUTPUTS["gen-corpus"]}
        assert {str(p.relative_to(ws.out)) for p in ws.corpus_dir.iterdir()} == declared
        assert declared <= set(pipeline_run["report"]["checksums"])

    def test_eval_reads_pin_vectors_from_the_index(self, pipeline_run, tmp_path):
        """Eval's report does not move when the image tower is swapped for
        an untrained one: it reads pin vectors from the index alone."""
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        towers = encoders.load_encoders(tmp_path / "encoders.bin")
        img = towers["img"].net
        towers["img"] = encoders.EncoderModel(
            Mlp.init([img.input_dim, img.output_dim], np.random.default_rng(0)))
        encoders.save_encoders(towers, tmp_path / "encoders.bin")
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
        path = tmp_path / "corpus" / "arrays.bin"
        _, arrays = load_arrays(path, ARRAYS_MAGIC, CorpusError, {})
        position = arrays["avg_position"].copy()
        position[3] = 0.5
        save_arrays(path, ARRAYS_MAGIC, {}, {**arrays, "avg_position": position})
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["curate", "eval"])
        assert not ok
        curate = report["stages"]["curate"]
        assert curate["status"] == "failed" and curate["error_type"] == "CorpusError"
        assert curate["error"] == f"{path}: engagement row 3: avg_position 0.5 is below 1"
        assert "stage_curate" in curate["traceback"]
        assert report["stages"]["eval"] == {"status": "skipped", "blocked_by": ["curate"]}

    @pytest.mark.parametrize("stage, artifact, edit, error_type, match", [
        ("train-ranker", "labeled_pairs.jsonl", {"query_text": "no such query"},
         "CorpusError", "unknown query text 'no such query'"),
        ("train-ranker", "labeled_pairs.jsonl", {"label": 7},
         "CorpusError", "label must be \\+1 or -1, got 7"),
        ("train-ranker", "labeled_pairs.jsonl", {"pin_signature": -1},
         "CorpusError", "unknown pin signature -1"),
        ("link", "annotations.jsonl", {"score": None}, "PipelineError", "missing key 'score'"),
        ("link", "collections.jsonl", {"slug": None}, "CollectionError", "missing key 'slug'"),
        ("link", "annotations.jsonl", '{"pin_signature": ', "PipelineError", "malformed JSON: .+"),
        ("link", "collections.jsonl", "{not json", "CollectionError", "malformed JSON: .+"),
        ("agent-run", "corpus/trends.jsonl", "[1, 2", "AgentError", "malformed JSON: .+"),
        # every JSONL input: an unknown key, a missing key, and where the
        # record has such a field, true or a float for an int and a string
        # for a float; corpus vectors live in corpus/arrays.bin alone, so a
        # vector key in pins or queries is unknown
        *[("curate", "corpus/pins.jsonl", edit, "CorpusError", match) for edit, match in [
            ({"colour": "red"}, "unknown key 'colour'"),
            ({"signature": None}, "missing key 'signature'"),
            ({"signature": True}, "key 'signature' has ill-typed value True"),
            ({"signature": 1000001.7}, "key 'signature' has ill-typed value 1000001.7"),
            ({"perception_score": "0.5"}, "key 'perception_score' has ill-typed value '0.5'"),
            ({"visual_embedding": [0.5]}, "unknown key 'visual_embedding'"),
        ]],
        *[("curate", "corpus/queries.jsonl", edit, "CorpusError", match) for edit, match in [
            ({"colour": "red"}, "unknown key 'colour'"),
            ({"text": None}, "missing key 'text'"),
            ({"text": 5}, "key 'text' has ill-typed value 5"),
            ({"embedding": [0.5]}, "unknown key 'embedding'"),
        ]],
        *[("train-ranker", "labeled_pairs.jsonl", edit, "CorpusError", match) for edit, match in [
            ({"colour": "red"}, "unknown key 'colour'"),
            ({"label": None}, "missing key 'label'"),
            ({"label": True}, "key 'label' has ill-typed value True"),
            ({"pin_signature": 1.5}, "key 'pin_signature' has ill-typed value 1.5"),
            # a pair in the format that also carried navboost coverage and source
            ({"navboost_coverage": 0.25}, "unknown key 'navboost_coverage'"),
            ({"source": "SearchConsole"}, "unknown key 'source'"),
        ]],
        *[("link", "annotations.jsonl", edit, "PipelineError", match) for edit, match in [
            ({"colour": "red"}, "unknown key 'colour'"),
            ({"rank": True}, "key 'rank' has ill-typed value True"),
            ({"rank": 1.5}, "key 'rank' has ill-typed value 1.5"),
            ({"rank": 0}, r"pin \d+: rank 0 is below 1"),
            ({"rank": -1}, r"pin \d+: rank -1 is below 1"),
            ({"score": "0.5"}, "key 'score' has ill-typed value '0.5'"),
        ]],
        *[("link", "collections.jsonl", edit, "CollectionError", match) for edit, match in [
            ({"colour": "red"}, "unknown key 'colour'"),
            ({"slug": 5}, "key 'slug' has ill-typed value 5"),
            ({"members": [{"signature": True, "similarity": 0.5}]},
             "key 'members' has ill-typed value .+"),
            ({"members": [{"signature": 1.5, "similarity": 0.5}]},
             "key 'members' has ill-typed value .+"),
            ({"members": [{"signature": 1, "similarity": "0.5"}]},
             "key 'members' has ill-typed value .+"),
            ({"topic": {"text": "t"}}, "missing key 'category'"),
            # a topic is a valid query
            ({"topic": {"text": "t", "category": "Bogus"}}, "query 't': category 'Bogus' not one of .+"),
            ({"topic": {"text": " ", "category": "Description"}}, "query text is empty"),
            # a topic's embedding is a JSON vector: a list of finite floats
            ({"topic": {"text": "t", "category": "Description", "embedding": "x"}},
             "key 'embedding' has ill-typed value 'x'"),
            ({"topic": {"text": "t", "category": "Description", "embedding": [0.5, float("nan")]}},
             r"key 'embedding' has ill-typed value \[0.5, nan\]"),
        ]],
        *[("agent-run", "corpus/trends.jsonl", edit, "AgentError", match) for edit, match in [
            ({"colour": "red"}, "unknown key 'colour'"),
            ({"term": None}, "missing key 'term'"),
            ({"velocity": "fast"}, "key 'velocity' has ill-typed value 'fast'"),
        ]],
        *[("eval", "encoder_train_log.jsonl", edit, "PipelineError", match) for edit, match in [
            ({"loss": None}, "missing key 'loss'"),
            ({"epoch": 1}, "unknown key 'epoch'"),
            ({"step": 1.5}, "key 'step' has ill-typed value 1.5"),
            ({"grad_norm": float("inf")}, "key 'grad_norm' has ill-typed value inf"),
            ("[1, 2]", r"expected a JSON object, got \[1, 2\]"),
        ]],
        *[("eval", "ranker_train_log.jsonl", edit, "PipelineError", match) for edit, match in [
            ({"loss": None}, "missing key 'loss'"),
            ({"grad_norm": 1.0}, "unknown key 'grad_norm'"),
            ({"loss": float("nan")}, "key 'loss' has ill-typed value nan"),
        ]],
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

    @pytest.mark.parametrize("edit, match", [
        # an unknown, missing or ill-typed column
        (lambda a: {**a, "colour": a["clicks"]}, "expected the float32 matrices .+"),
        (lambda a: {n: c for n, c in a.items() if n != "clicks"}, "expected the float32 matrices .+"),
        (lambda a: {**a, "pin_row": a["pin_row"].astype("<f4")}, "expected the float32 matrices .+"),
        (lambda a: {**a, "impressions": a["impressions"].astype("<f4") + 0.5}, "expected the float32 matrices .+"),
        (lambda a: {**a, "avg_position": a["avg_position"].astype("<i8")}, "expected the float32 matrices .+"),
        (lambda a: {**a, "navboost": a["avg_position"]}, "expected the float32 matrices .+"),
        (lambda a: {n: c for n, c in a.items() if n != "avg_position"}, "expected the float32 matrices .+"),
        (lambda a: {**a, "avg_position": a["avg_position"][:, None]}, "expected the float32 matrices .+"),
        # a bad value names its row
        (lambda a: {**a, "pin_row": np.where(np.arange(len(a["pin_row"])) == 1, 1000, a["pin_row"])},
         "engagement row 1: pin_row 1000 is no row of the 1000 pins"),
        (lambda a: {**a, "clicks": np.full_like(a["clicks"], 10**9)},
         "engagement row 0: clicks 1000000000 is negative or exceeds impressions"),
        (lambda a: {**a, "avg_position": np.where(np.arange(len(a["avg_position"])) == 2, 0.5, a["avg_position"])},
         "engagement row 2: avg_position 0.5 is below 1"),
        (lambda a: {**a, "query_row": np.where(np.arange(len(a["query_row"])) == 4, -1, a["query_row"])},
         r"engagement row 4: query_row -1 is no row of the \d+ queries"),
        (lambda a: {**a, "impressions": np.full_like(a["impressions"], -1)},
         "engagement row 0: impressions -1 is negative"),
        (lambda a: {**a, **{name: a[name][:0] for name in ENGAGEMENT_ARRAYS}}, "no engagement records"),
    ])
    def test_bad_engagement_fails_curate_naming_the_array_file(self, pipeline_run, tmp_path, edit, match):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        path = tmp_path / "corpus" / "arrays.bin"
        _, arrays = load_arrays(path, ARRAYS_MAGIC, CorpusError, {})
        save_arrays(path, ARRAYS_MAGIC, {}, edit(dict(arrays)))
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["curate"])
        result = report["stages"]["curate"]
        assert not ok and result["error_type"] == "CorpusError"
        assert re.match(rf"{re.escape(str(path))}: {match}$", result["error"])

    @pytest.mark.parametrize("artifact, text, match", [
        ("link_report.json", {"orphan_pins": "x"}, "key 'orphan_pins' has ill-typed value 'x'"),
        ("link_report.json", {"pagerank": {"damping": 0.85}}, "key 'pagerank' has ill-typed value"),
        ("curation_report.json", {"retention_branches": {"ctr": "x"}},
         "key 'retention_branches' has ill-typed value"),
        ("link_report.json", '{"nodes": 3, "pagerank": ', "malformed JSON"),
        ("link_report.json", "[1, 2]", "expected a JSON object, got list"),
        ("link_report.json", '{"orphan_pins": 0}', "missing key 'pagerank'"),
        ("link_report.json", '{"pagerank": {}}', "missing key 'orphan_pins'"),
        ("curation_report.json", "", "malformed JSON"),
        ("curation_report.json", '"retention_branches"', "expected a JSON object, got str"),
        ("curation_report.json", "{}", "missing key 'retention_branches'"),
    ])
    def test_bad_report_fails_eval_naming_path(self, pipeline_run, tmp_path, artifact, text, match):
        """A str `text` replaces the report; a dict is merged into it."""
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        path = tmp_path / artifact
        if isinstance(text, dict):
            text = json.dumps({**json.loads(path.read_text(encoding="utf-8")), **text})
        path.write_text(text, encoding="utf-8")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["eval"])
        result = report["stages"]["eval"]
        assert not ok and result["error_type"] == "PipelineError"
        assert result["error"].startswith(f"{tmp_path / artifact}: {match}")

    @pytest.mark.parametrize("loss", [float("nan"), float("inf")])
    def test_non_finite_encoder_loss_fails_eval_naming_the_log(self, pipeline_run, tmp_path, loss):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        path = tmp_path / "encoder_train_log.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = json.dumps({**json.loads(lines[-1]), "loss": loss})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["eval"])
        result = report["stages"]["eval"]
        assert not ok and result["error_type"] == "PipelineError"
        assert result["error"] == f"{path}:{len(lines)}: key 'loss' has ill-typed value {loss}"
        # the report from before stays as it was
        assert (tmp_path / "eval_report.json").read_bytes() == (
            pipeline_run["ws"].out / "eval_report.json").read_bytes()

    @pytest.mark.parametrize("stage", ["train-ranker", "eval"])
    def test_no_triplets_fails_naming_labeled_pairs(self, pipeline_run, tmp_path, stage):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        (tmp_path / "labeled_pairs.jsonl").write_text("")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=[stage])
        result = report["stages"][stage]
        assert not ok and result["error_type"] == "PipelineError"
        assert result["error"] == (
            f"{tmp_path / 'labeled_pairs.jsonl'}: no ranker triplets derivable from its pairs"
        )

    @pytest.mark.parametrize("stage, artifact, error_type, match", [
        ("build-collections", "annotations.jsonl", "PipelineError", "no annotation records"),
        ("link", "annotations.jsonl", "PipelineError", "no annotation records"),
        ("eval", "annotations.jsonl", "PipelineError", "no annotation records"),
        ("curate", "corpus/pins.jsonl", "CorpusError", "no pin records"),
        ("build-index", "corpus/pins.jsonl", "CorpusError", "no pin records"),
        ("curate", "corpus/queries.jsonl", "CorpusError", "no query records"),
        ("link", "collections.jsonl", "CollectionError", "no collection records"),
        ("eval", "collections.jsonl", "CollectionError", "no collection records"),
        ("eval", "encoder_train_log.jsonl", "PipelineError", "no training log records"),
        ("eval", "ranker_train_log.jsonl", "PipelineError", "no training log records"),
    ])
    def test_empty_input_fails_naming_it(
        self, pipeline_run, tmp_path, stage, artifact, error_type, match
    ):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        (tmp_path / artifact).write_text("")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=[stage])
        result = report["stages"][stage]
        assert not ok and result["error_type"] == error_type
        assert result["error"] == f"{tmp_path / artifact}: {match}"

    def test_no_annotations_per_pin_fails_train_ranker(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path, annotations_per_pin=0)
        report, ok = run_pipeline(config, stages=["train-ranker"])
        result = report["stages"]["train-ranker"]
        assert not ok and result["error_type"] == "PipelineError"
        assert result["error"] == "annotations_per_pin must be at least 1, got 0"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("stage, key, value, error_type, message", [
        ("train-encoder", "encoder_steps", 0, "EncoderError", "TrainConfig.steps must be at least 1, got 0"),
        ("train-ranker", "ranker_steps", 0, "RankerError", "RankerTrainConfig.steps must be at least 1, got 0"),
        ("train-ranker", "ranker_lr", 1e300, "RankerError",
         "SGD update at step 0 overflows at learning rate 1e+300"),
        *[("train-ranker", "ranker_lr", rate, "RankerError",
           f"RankerTrainConfig.learning_rate must be positive and finite, got {rate}")
          for rate in (-0.1, 0.0, float("inf"))],
        ("curate", "neg_per_pos", -1, "CurationError", "neg_per_pos must be at least 0, got -1"),
        *[("train-encoder", "temperature", value, "EncoderError",
           f"temperature and its reciprocal must be positive and finite, got {value}")
          for value in (float("inf"), 1e-310)],
    ])
    def test_bad_training_values_fail_typed_before_any_warning(
        self, pipeline_run, tmp_path, stage, key, value, error_type, message
    ):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path, **{key: value})
        report, ok = run_pipeline(config, stages=[stage])
        result = report["stages"][stage]
        assert not ok and result["error_type"] == error_type
        assert result["error"] == message

    @pytest.mark.parametrize("per_pin", [0, 1])
    def test_annotation_budget_is_train_rankers_alone(self, pipeline_run, tmp_path, per_pin):
        """Link and eval read the budget from annotations.jsonl, not the config."""
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        config = dataclasses.replace(
            pipeline_run["config"], out_dir=tmp_path, annotations_per_pin=per_pin
        )
        report, ok = run_pipeline(config, stages=["link", "eval"])
        assert ok, report["stages"]
        for name in ["graph.jsonl", "link_report.json", "sitemap.xml", "eval_report.json"]:
            assert (tmp_path / name).read_bytes() == (pipeline_run["ws"].out / name).read_bytes()

    def test_no_collection_fails_build_collections_before_it_writes(self, pipeline_run, tmp_path):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        before = {p: p.read_bytes() for p in [tmp_path / "collections.jsonl",
                                               *(tmp_path / "pages").iterdir()]}
        config = dataclasses.replace(
            pipeline_run["config"], out_dir=tmp_path, annotation_threshold=2.0
        )
        report, ok = run_pipeline(config, stages=["build-collections", "link"])
        result = report["stages"]["build-collections"]
        assert not ok and result["error_type"] == "PipelineError"
        assert result["error"] == (f"{tmp_path / 'annotations.jsonl'}: no annotated corpus query "
                                   "scores at least annotation_threshold 2.0")
        assert report["stages"]["link"] == {"status": "skipped", "blocked_by": ["build-collections"]}
        assert {p: p.read_bytes() for p in [tmp_path / "collections.jsonl",
                                            *(tmp_path / "pages").iterdir()]} == before

    @pytest.mark.parametrize("threshold", [float("nan"), 2.0])
    def test_judge_threshold_outside_the_cosine_range_fails_eval(self, pipeline_run, tmp_path, threshold):
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path, judge_threshold=threshold)
        report, ok = run_pipeline(config, stages=["eval"])
        result = report["stages"]["eval"]
        assert not ok and result["error_type"] == "CollectionError"
        assert result["error"] == f"judge threshold {threshold} is not a number in [-1, 1]"

    def test_corpus_without_a_cluster_term_fails_agent_run(self, pipeline_run, tmp_path):
        """The taxonomy is the cluster terms that are corpus queries, so a
        corpus whose query texts are none of them leaves it empty."""
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        queries = tmp_path / "corpus" / "queries.jsonl"
        write_jsonl(queries, [{**obj, "text": f"not {obj['text']}"}
                              for obj in map(json.loads, queries.read_text(encoding="utf-8").splitlines())])
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["agent-run"])
        result = report["stages"]["agent-run"]
        assert not ok and result["error_type"] == "AgentError"
        assert result["error"] == "taxonomy is empty"

    def test_attribute_error_of_an_input_keeps_its_cause(self, pipeline_run, tmp_path, monkeypatch):
        def broken_load(manifest):
            raise AttributeError("boom")

        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        monkeypatch.setattr(pipeline, "load_corpus", broken_load)
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["curate"])
        result = report["stages"]["curate"]
        assert not ok and result["error_type"] == "AttributeError" and result["error"] == "boom"
        assert "in broken_load" in result["traceback"]

    @pytest.mark.parametrize("field, value", [
        ("n_pins", 0), ("n_pins", -5), ("d_v", 0), ("d_t", 0), ("queries_per_cluster", 0),
        ("n_clusters", 0), ("n_clusters", len(synth.CLUSTER_TERMS) + 1),
        ("engagement_per_pin", -1),
    ])
    def test_synth_config_rejects_sizes_it_cannot_generate(self, field, value):
        with pytest.raises(CorpusError, match=rf"^{field} must be .*, got {value}$"):
            synth.SynthConfig(**{field: value})

    def test_zero_clusters_fail_gen_corpus_typed(self, tmp_path):
        report, ok = run_pipeline(PipelineConfig(out_dir=tmp_path, n_clusters=0), stages=["gen-corpus"])
        result = report["stages"]["gen-corpus"]
        assert not ok and result["error_type"] == "CorpusError"
        assert result["error"] == "n_clusters must be in [1, 10], got 0"

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
    RECORDS = [Annotation(1, "a", 0.9, 1), Annotation(1, "b", 0.4, 2), Annotation(2, "c", 0.8, 4)]

    def test_threshold_and_rank_filtering(self):
        """The threshold filters; the rank does not, since the records
        already hold the budget train-ranker annotated with."""
        mapped = annotation_map(self.RECORDS, threshold=0.6)
        assert mapped == {1: ["a"], 2: ["c"]}

    def test_permissive_settings_keep_all(self):
        mapped = annotation_map(self.RECORDS, threshold=0.0)
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
        records = annotate_pins([1, 2], np.stack([pin, pin]), self.QUERIES, e_queries, per_pin=3)
        assert [r.pin_signature for r in records] == [1, 1, 1, 2, 2, 2]
        scores = [r.score for r in records[:3]]
        assert scores == sorted(scores, reverse=True)
        # identical embeddings tie; tie breaks on text
        assert [r.query_text for r in records[:3]] == ["a query", "b query", "c other"]
        assert [r.rank for r in records[:3]] == [1, 2, 3]

    def test_budget_and_empty_candidates(self):
        e_queries = np.stack([q.embedding for q in self.QUERIES])
        records = annotate_pins([1], np.ones((1, 3)), self.QUERIES, e_queries, per_pin=1)
        assert [r.query_text for r in records] == ["a query"]
        assert annotate_pins([1], np.ones((1, 3)), [], np.zeros((0, 3)), per_pin=5) == []


class TestLabeledPairs:
    def test_round_trip(self, small_synth, tmp_path):
        corpus, _, _ = small_synth
        labeled, _ = curation.curate(corpus, curation.dedup_queries(corpus.queries))
        ws = Workspace(tmp_path)
        write_jsonl(ws.labeled_pairs, (p.to_json() for p in labeled))
        loaded = read_records(ws.labeled_pairs, partial(LabeledPair.from_json, corpus=corpus), CorpusError)
        assert [p.to_json() for p in loaded] == [p.to_json() for p in labeled]
        assert all(a.query is b.query for a, b in zip(loaded, labeled))

    def test_triplets_share_one_row_per_pin_and_query_text(self, pipeline_run):
        ws = Workspace(pipeline_run["ws"].out)
        labeled = read_records(ws.labeled_pairs, partial(LabeledPair.from_json, corpus=ws.corpus),
                               CorpusError)
        triplets = ws.triplets
        by_pin: dict[int, tuple[list, list]] = {}
        for pair in labeled:
            by_pin.setdefault(pair.pin_signature, ([], []))[pair.label == -1].append(pair.query)
        named = [(s, pos, neg) for s in sorted(by_pin) for pos, neg in zip(*by_pin[s])]
        assert len(named) == len(triplets)
        # the corpus's pin and query feature matrices, indexed by corpus row
        assert triplets.pins is ws.pin_features
        assert triplets.queries is ws.query_features
        np.testing.assert_array_equal(triplets.pins, ranker.pin_features(ws.corpus))
        np.testing.assert_array_equal(triplets.queries, ranker.query_features(ws.corpus))
        pin_rows = {signature: row for row, signature in enumerate(ws.corpus.pins)}
        for i, (signature, pos, neg) in enumerate(named):
            assert triplets.pin[i] == pin_rows[signature]
            assert ws.corpus.queries[triplets.pos[i]] is pos
            assert ws.corpus.queries[triplets.neg[i]] is neg
        assert len(triplets.pins) + len(triplets.queries) < len(triplets)

    def test_written_by_query_text(self, pipeline_run):
        ws = pipeline_run["ws"]
        line = ws.labeled_pairs.read_text(encoding="utf-8").splitlines()[0]
        assert list(json.loads(line)) == ["pin_signature", "query_text", "label"]


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
        monkeypatch.setattr(encoders, "load_encoders", counted(encoders.load_encoders, name))
        monkeypatch.setattr(pipeline, "read_records", counted(pipeline.read_records, name))
        monkeypatch.setattr(
            collections_, "load_collections", counted(collections_.load_collections, name)
        )
        monkeypatch.setattr(
            ranker, "correct_rank", counted(ranker.correct_rank, lambda *_: "correct_rank")
        )
        monkeypatch.setattr(
            curation, "dedup_queries", counted(curation.dedup_queries, lambda *_: "dedup_queries")
        )
        monkeypatch.setattr(
            ranker, "query_features", counted(ranker.query_features, lambda *_: "query_features")
        )
        config = PipelineConfig(
            out_dir=tmp_path, n_pins=40, n_clusters=4, encoder_steps=20, ranker_steps=50
        )
        report, ok = run_pipeline(config)
        assert ok, report["stages"]
        assert calls == Counter([
            "corpus", "encoders.bin", "index.bin",
            "labeled_pairs.jsonl", "annotations.jsonl", "collections.jsonl", "correct_rank",
            "encoder_train_log.jsonl", "ranker_train_log.jsonl",
            # the workspace's, for curate, train-ranker and eval alike
            "dedup_queries", "query_features",
        ])
        assert "correct_rank" not in report["stages"]["train-ranker"]["metrics"]
        # a fresh run of one stage reads its inputs from disk again
        calls.clear()
        rerun, ok = run_pipeline(config, stages=["build-collections"])
        assert ok and calls == Counter(
            ["corpus", "encoders.bin", "index.bin", "annotations.jsonl"]
        )
        assert rerun["checksums"]["collections.jsonl"] == report["checksums"]["collections.jsonl"]


class TestCollections:
    def test_published_topic_is_taken_and_first_text_wins_its_slug(self, pipeline_run):
        ws = Workspace(pipeline_run["ws"].out)
        config = pipeline_run["config"]
        texts = sorted(q.text for q in ws.corpus.queries)[:5]
        fresh = pipeline.build_collections(ws, texts, config.collection_k)
        assert [c.topic.text for c in fresh] == texts
        # an upper-case twin sorts first and takes the slug of texts[1]
        twin = dataclasses.replace(ws.corpus.queries[-1], text=texts[1].upper())
        ws.corpus = dataclasses.replace(ws.corpus, queries=[*ws.corpus.queries, twin])
        marker = dataclasses.replace(fresh[2], members=[(-1, 0.0)])
        built = pipeline.build_collections(
            ws, [*texts, twin.text, "no such query"], config.collection_k, [marker])
        assert [c.topic.text for c in built] == [twin.text, texts[0], texts[2], texts[3], texts[4]]
        assert built[2] is marker
        assert built[1].to_json() == fresh[0].to_json()

    def test_ablation_from_published_collections_equals_a_full_rebuild(
        self, pipeline_run, monkeypatch
    ):
        """The ablation takes every collection build-collections published
        instead of rebuilding it, and its figures do not move when all but
        one are rebuilt at the size that one carries."""
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
        bare.published_collections = ws.published_collections[:1]
        rebuilt = pipeline.ablation_study(config, bare)
        assert reused == rebuilt
        assert reused == pipeline_run["report"]["stages"]["eval"]["metrics"]["ablation"]
        assert sum(built) - reused_topics >= len(ws.published_collections) - 1 > 0

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

    def test_build_collections_checksums_its_pages_and_drops_stale_keys(self, pipeline_run, tmp_path):
        """Each page has its own checksum key; a rerun drops a stale page's
        key with the page and gives the same checksums as the first run."""
        shutil.copytree(pipeline_run["ws"].out, tmp_path, dirs_exist_ok=True)
        stale = tmp_path / "pages" / "stale-topic.html"
        stale.write_text("old", encoding="utf-8")
        saved = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        saved["checksums"]["pages/stale-topic.html"] = file_checksum(stale)
        (tmp_path / "report.json").write_text(json.dumps(saved), encoding="utf-8")
        config = dataclasses.replace(pipeline_run["config"], out_dir=tmp_path)
        report, ok = run_pipeline(config, stages=["build-collections"])
        assert ok and not stale.exists()
        pages = {f"pages/{p.name}": file_checksum(p) for p in (tmp_path / "pages").iterdir()}
        assert len(pages) == report["stages"]["build-collections"]["metrics"]["collections"]
        assert {k: v for k, v in report["checksums"].items() if k.startswith("pages/")} == pages
        assert report["checksums"] == pipeline_run["report"]["checksums"]


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
                files = list(artifact.iterdir()) if artifact.is_dir() else [artifact]
                assert files, f"{stage} wrote no file into {artifact}"
                for path in files:
                    assert str(path.relative_to(ws.out)) in report["checksums"]
        assert ws.report.exists()

    def test_each_stage_records_the_high_water_mark(self, pipeline_run):
        """peak_rss_mb is the process's peak RSS so far, so it never falls
        from one stage to the next."""
        peaks = [pipeline_run["report"]["stages"][s]["peak_rss_mb"] for s in STAGE_ORDER]
        assert all(type(p) is float and p > 0 for p in peaks)
        assert peaks == sorted(peaks)

    def test_every_written_file_is_a_checksummed_output(self, tmp_path):
        config = PipelineConfig(
            out_dir=tmp_path, n_pins=40, n_clusters=4, encoder_steps=20, ranker_steps=50
        )
        report, ok = run_pipeline(config)
        assert ok, report["stages"]
        ws = Workspace(tmp_path)
        written = {
            str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file() and p != ws.report
        }
        outputs = [getattr(ws, name) for names in STAGE_OUTPUTS.values() for name in names]
        declared = {str(p.relative_to(tmp_path)) for p in outputs if not p.is_dir()}
        pages = {str(p.relative_to(tmp_path)) for p in ws.pages_dir.iterdir()}
        assert pages and written == declared | pages
        assert set(report["checksums"]) == written
        assert all(report["checksums"][key] == file_checksum(tmp_path / key) for key in written)

    def test_eval_report_holds_the_eval_metrics(self, pipeline_run):
        metrics = pipeline_run["report"]["stages"]["eval"]["metrics"]
        text = pipeline_run["ws"].eval_report.read_text(encoding="utf-8")
        assert text == json.dumps(metrics, indent=2, sort_keys=True)

    def test_eval_reports_the_ranker_loss_from_its_log(self, pipeline_run):
        """ranker_loss is the first and last loss of ranker_train_log.jsonl,
        whose last loss is train-ranker's final_loss."""
        report = pipeline_run["report"]
        lines = pipeline_run["ws"].ranker_log.read_text(encoding="utf-8").splitlines()
        first, last = json.loads(lines[0]), json.loads(lines[-1])
        assert len(lines) == pipeline_run["config"].ranker_steps
        assert report["stages"]["eval"]["metrics"]["ranker_loss"] == {
            "initial": first["loss"], "final": last["loss"]}
        assert last["loss"] == report["stages"]["train-ranker"]["metrics"]["final_loss"]

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
        (tmp_path / "encoders.bin").unlink()
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
        ('{"seed": 7, "stages": [], "checksums": {}}', r"key 'stages' has ill-typed value \[\]"),
    ])
    def test_unreadable_report_fails_naming_path(self, tmp_path, text, match):
        (tmp_path / "report.json").write_text(text)
        config = PipelineConfig(out_dir=tmp_path, seed=7)
        path = re.escape(str(tmp_path / "report.json"))
        with pytest.raises(PipelineError, match=rf"{path}: .*{match}"):
            run_pipeline(config, stages=["gen-corpus"])

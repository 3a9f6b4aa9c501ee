"""CLI surface: help text, exit codes, config plumbing, and stage
dependency errors."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from geoforge.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "config.txt"
    path.write_text(
        "n_pins=60\nn_clusters=4\nd_v=16\nd_t=12\n"
        "encoder_steps=20\nranker_steps=30\n"
    )
    return path


class TestHelp:
    def test_main_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in (
            "gen-corpus", "curate", "train-encoder", "build-index",
            "train-ranker", "build-collections", "link", "agent-run",
            "eval", "pipeline",
        ):
            assert command in result.output

    @pytest.mark.parametrize("command", ["gen-corpus", "pipeline", "eval"])
    def test_subcommand_help_documents_common_flags(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        for flag in ("--seed", "--config", "--out"):
            assert flag in result.output


class TestExitCodes:
    def test_unknown_flag_usage_error(self, runner):
        result = runner.invoke(main, ["gen-corpus", "--no-such-flag"])
        assert result.exit_code == 2

    def test_unknown_stage_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["pipeline", "--out", str(tmp_path), "--stages", "polish"]
        )
        assert result.exit_code == 2
        assert "unknown stage" in result.output

    def test_failed_stage_exits_nonzero(self, runner, tmp_path):
        result = runner.invoke(main, ["curate", "--out", str(tmp_path)])
        assert result.exit_code == 1


class TestStages:
    def test_gen_corpus_then_curate(self, runner, tiny_config, tmp_path):
        out = str(tmp_path / "run")
        result = runner.invoke(
            main,
            ["gen-corpus", "--config", str(tiny_config), "--out", out, "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        assert "pins: 60" in result.output
        result = runner.invoke(
            main,
            ["curate", "--config", str(tiny_config), "--out", out, "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "run" / "labeled_pairs.jsonl").exists()

    def test_pipeline_missing_dependency_named(self, runner, tiny_config, tmp_path):
        out = str(tmp_path / "run")
        result = runner.invoke(
            main,
            ["gen-corpus", "--config", str(tiny_config), "--out", out, "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main,
            ["pipeline", "--config", str(tiny_config), "--out", out,
             "--seed", "3", "--stages", "curate,link"],
        )
        assert result.exit_code == 1
        assert "build-collections" in result.output

    def test_pipeline_stage_needs_only_its_own_inputs(self, runner, tiny_config, tmp_path):
        out = tmp_path / "run"
        for command in ("gen-corpus", "curate"):
            result = runner.invoke(
                main, [command, "--config", str(tiny_config), "--out", str(out), "--seed", "3"]
            )
            assert result.exit_code == 0, result.output
        # train-ranker reads the labeled pairs, not curate's report
        (out / "curation_report.json").unlink()
        result = runner.invoke(
            main,
            ["pipeline", "--config", str(tiny_config), "--out", str(out),
             "--seed", "3", "--stages", "train-ranker"],
        )
        assert result.exit_code == 0, result.output
        assert (out / "annotations.jsonl").exists()

    def test_eval_prints_table_and_writes_json(self, runner, pipeline_run):
        out = str(pipeline_run["ws"].out)
        result = runner.invoke(main, ["eval", "--out", out, "--seed", "7"])
        assert result.exit_code == 0, result.output
        for key in ("recall_at_10", "correct_rank", "intent_satisfying_rate_mean"):
            assert key in result.output
        eval_path = pipeline_run["ws"].out / "eval_report.json"
        assert eval_path.exists()
        metrics = json.loads(eval_path.read_text(encoding="utf-8"))
        assert metrics["recall_at_10"] is not None

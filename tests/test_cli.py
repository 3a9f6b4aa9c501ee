"""CLI surface: help text, exit codes, config plumbing, and stage
dependency errors."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from geoforge import cli
from geoforge.cli import main
from geoforge.pipeline import CONFIG_KINDS, STAGE_ORDER, PipelineConfig

# Every stage command's own flags, as (command, flag, PipelineConfig field).
FLAG_SURFACE = [
    ("gen-corpus", "--n-pins", "n_pins"),
    ("gen-corpus", "--n-clusters", "n_clusters"),
    ("curate", "--neg-per-pos", "neg_per_pos"),
    ("train-encoder", "--steps", "encoder_steps"),
    ("train-encoder", "--temperature", "temperature"),
    ("build-index", "--ef-search", "ef_search"),
    ("build-index", "--ef-construction", "ef_construction"),
    ("build-index", "--m", "hnsw_m"),
    ("train-ranker", "--steps", "ranker_steps"),
    ("train-ranker", "--margin", "margin"),
    ("build-collections", "--k", "collection_k"),
    ("link", "--base-url", "base_url"),
    ("agent-run", "--min-count", "agent_min_count"),
]
# a command-line value for each field type, unequal to every field's default
FLAG_VALUES = {int: "7", float: "0.25", str: "https://geo.test"}
# Each stage command's flags, set to values unlike their defaults, in STAGE_ORDER.
STAGED_FLAGS = [
    ("gen-corpus", ["--n-pins", "150", "--n-clusters", "4"]),
    ("curate", ["--neg-per-pos", "1"]),
    ("train-encoder", ["--steps", "30", "--temperature", "0.1"]),
    ("build-index", ["--ef-search", "12", "--ef-construction", "40", "--m", "8"]),
    ("train-ranker", ["--steps", "40", "--margin", "0.5"]),
    ("build-collections", ["--k", "6"]),
    ("link", ["--base-url", "https://geo.example.org"]),
    ("agent-run", ["--min-count", "3"]),
    ("eval", []),
]


def _readme_commands() -> list[list[str]]:
    """The arguments of every `geoforge` line in README.md's sh blocks."""
    lines, in_sh = [], False
    for line in (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("geoforge "):
            lines.append(shlex.split(line)[1:])
    return lines


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def recorded_runs(monkeypatch):
    """The (config, stages) of each `run_pipeline` call the CLI makes,
    with every stage reported ok and nothing run."""
    calls = []

    def fake_run_pipeline(config, stages=None):
        calls.append((config, stages))
        return {"stages": {s: {"status": "ok", "seconds": 0.0, "metrics": {}} for s in STAGE_ORDER}}, True

    monkeypatch.setattr(cli, "run_pipeline", fake_run_pipeline)
    return calls


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


class TestFlags:
    @pytest.mark.parametrize("command", STAGE_ORDER)
    def test_stage_command_has_exactly_its_flags(self, command):
        options = {opt for param in main.commands[command].params for opt in param.opts}
        own = {flag for c, flag, _ in FLAG_SURFACE if c == command}
        assert options == {"--seed", "--config", "--out"} | own

    @pytest.mark.parametrize("command,flag,field", FLAG_SURFACE)
    def test_help_lists_flag(self, runner, command, flag, field):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert re.search(rf"^\s+{re.escape(flag)}\s", result.output, re.M), result.output

    @pytest.mark.parametrize("command,flag,field", FLAG_SURFACE)
    def test_flag_reaches_config(self, runner, recorded_runs, tmp_path, command, flag, field):
        kind = type(getattr(PipelineConfig(), field))
        result = runner.invoke(main, [command, "--out", str(tmp_path), flag, FLAG_VALUES[kind]])
        assert result.exit_code == 0, result.output
        [(config, stages)] = recorded_runs
        assert stages == [command]
        assert getattr(config, field) == kind(FLAG_VALUES[kind])

    @pytest.mark.parametrize("args", _readme_commands(), ids=" ".join)
    def test_readme_command_and_its_flags_exist(self, runner, args):
        result = runner.invoke(main, [*args, "--help"])
        assert result.exit_code == 0, result.output

    def test_readme_has_commands(self):
        assert len(_readme_commands()) >= len(STAGE_ORDER)

    @pytest.mark.parametrize("command", ["gen-corpus", "pipeline"])
    def test_out_dir_from_config_file_unless_out_given(self, runner, recorded_runs, tmp_path, command):
        config = tmp_path / "config.txt"
        config.write_text(f"out_dir = {tmp_path / 'wanted'}\n")
        for flags, want in (([], "wanted"), (["--out", str(tmp_path / "flag")], "flag")):
            result = runner.invoke(main, [command, "--config", str(config), *flags])
            assert result.exit_code == 0, result.output
            assert recorded_runs.pop()[0].out_dir == tmp_path / want


class TestExitCodes:
    def test_unknown_flag_usage_error(self, runner):
        result = runner.invoke(main, ["gen-corpus", "--no-such-flag"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("stages", ["polish", ""])
    def test_unknown_stage_usage_error(self, runner, tmp_path, stages):
        result = runner.invoke(
            main, ["pipeline", "--out", str(tmp_path), "--stages", stages]
        )
        assert result.exit_code == 2
        assert "unknown stage" in result.output and not any(tmp_path.iterdir())

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

    def test_stage_by_stage_run_equals_a_whole_run(self, runner, tmp_path):
        """A flag given to its own stage alone reaches every later stage
        through the artifacts that stage writes: each checksum equals that of
        one pipeline run whose config file holds every flag's value."""
        assert [c for c, _ in STAGED_FLAGS] == STAGE_ORDER
        lines = ["seed=5"]
        for command, args in STAGED_FLAGS:
            fields = dict(cli.STAGE_FLAGS[command])
            assert args[::2] == list(fields), command
            for flag, value in zip(args[::2], args[1::2]):
                field = fields[flag]
                assert CONFIG_KINDS[field](value) != getattr(PipelineConfig(), field)
                lines.append(f"{field}={value}")
            result = runner.invoke(main, [command, "--out", str(tmp_path / "staged"), "--seed", "5", *args])
            assert result.exit_code == 0, result.output
        config = tmp_path / "config.txt"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["pipeline", "--config", str(config), "--out", str(tmp_path / "whole")])
        assert result.exit_code == 0, result.output
        staged, whole = (json.loads((tmp_path / run / "report.json").read_text(encoding="utf-8"))["checksums"]
                         for run in ("staged", "whole"))
        assert len(staged) > len(STAGE_ORDER)
        assert staged == whole

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

"""Command-line entry point: one command per pipeline stage, plus `pipeline`.
A stage command takes one flag per config key of its `STAGE_CONFIG` row,
spelled as the key with dashes, of the key's type."""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import click

from .pipeline import (
    CONFIG_KINDS, STAGE_CONFIG, STAGE_FUNCS, STAGE_ORDER, PipelineConfig, Workspace, run_pipeline,
)


def _config(config_path: str | None, **overrides) -> PipelineConfig:
    """The config file's values (defaults without one), then every flag given."""
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if config_path:
        return PipelineConfig.from_file(config_path, **overrides)
    return PipelineConfig(**overrides)


def common_options(fn):
    fn = click.option("--seed", type=int, default=None, help="Corpus-wide seed.")(fn)
    fn = click.option(
        "--config", "config_path", type=click.Path(exists=True), default=None,
        help="key=value config file.",
    )(fn)
    fn = click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None,
                      help="Output directory; by default the config file's out_dir, else geo-out.")(fn)
    return fn


@click.group()
def main() -> None:
    """Generative engine optimization pipeline over file-based corpora."""


def _stage_command(stage: str) -> None:
    """Register the command that runs `stage` alone and prints its metrics."""

    def run(config_path, **overrides):
        report, _ = run_pipeline(_config(config_path, **overrides), stages=[stage])
        result = report["stages"][stage]
        if result["status"] != "ok":
            click.echo(f"{stage}: {result['status']}: {result.get('error', '')}", err=True)
            sys.exit(1)
        click.echo(f"{stage}: ok ({result['seconds']}s)")
        for key, value in result["metrics"].items():
            click.echo(f"  {key}: {value}")

    # click lists options in the reverse of the order they are applied
    for name in reversed(STAGE_CONFIG[stage]):
        run = click.option(f"--{name.replace('_', '-')}", name, type=CONFIG_KINDS[name], default=None,
                           help=f"Sets config key {name}.")(run)
    main.command(stage, help=inspect.getdoc(STAGE_FUNCS[stage]))(common_options(run))


for _stage in STAGE_ORDER:
    _stage_command(_stage)


@main.command()
@common_options
@click.option(
    "--stages", default=None,
    help=f"Comma-separated subset of: {','.join(STAGE_ORDER)}",
)
def pipeline(config_path, out_dir, seed, stages):
    """Run all stages (or a subset) in dependency order. A stage whose
    input artifact is missing fails with DependencyError."""
    config = _config(config_path, out_dir=out_dir, seed=seed)
    stage_list = None if stages is None else stages.split(",")
    for stage in stage_list or []:
        if stage not in STAGE_ORDER:
            raise click.UsageError(f"unknown stage {stage!r}")
    report, ok = run_pipeline(config, stages=stage_list)
    # a merged report also holds stages of earlier runs: print this run's
    for stage in [s for s in STAGE_ORDER if s in (stage_list or STAGE_ORDER)]:
        result = report["stages"][stage]
        line = f"{stage}: {result['status']}"
        if result["status"] == "ok":
            line += f" ({result['seconds']}s)"
        elif "error" in result:
            line += f": {result['error']}"
        click.echo(line)
    click.echo(f"report: {Workspace(config.out_dir).report}")
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()

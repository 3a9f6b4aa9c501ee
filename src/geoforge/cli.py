"""Command-line entry point wiring every pipeline stage."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .core import write_text
from .pipeline import (
    STAGE_ORDER,
    PipelineConfig,
    Workspace,
    run_pipeline,
)


def _config(config_path: str | None, out: str, seed: int | None, **overrides) -> PipelineConfig:
    overrides = {k: v for k, v in overrides.items() if v is not None}
    overrides["out_dir"] = Path(out)
    if seed is not None:
        overrides["seed"] = seed
    if config_path:
        return PipelineConfig.from_file(config_path, **overrides)
    return PipelineConfig(**overrides)


def common_options(fn):
    fn = click.option("--seed", type=int, default=None, help="Corpus-wide seed.")(fn)
    fn = click.option(
        "--config", "config_path", type=click.Path(exists=True), default=None,
        help="key=value config file.",
    )(fn)
    fn = click.option("--out", default="geo-out", show_default=True,
                      help="Output directory.")(fn)
    return fn


def _run_stage(stage: str, config: PipelineConfig) -> None:
    report, ok = run_pipeline(config, stages=[stage])
    result = report["stages"][stage]
    if result["status"] != "ok":
        click.echo(f"{stage}: {result['status']}: {result.get('error', '')}", err=True)
        sys.exit(1)
    click.echo(f"{stage}: ok ({result['seconds']}s)")
    for key, value in result["metrics"].items():
        click.echo(f"  {key}: {value}")


@click.group()
def main() -> None:
    """Generative engine optimization pipeline over file-based corpora."""


@main.command("gen-corpus")
@common_options
@click.option("--n-pins", type=int, default=None, help="Synthetic corpus size.")
@click.option("--n-clusters", type=int, default=None)
def gen_corpus(config_path, out, seed, n_pins, n_clusters):
    """Generate the bundled synthetic corpus."""
    _run_stage("gen-corpus", _config(config_path, out, seed,
                                     n_pins=n_pins, n_clusters=n_clusters))


@main.command()
@common_options
@click.option("--neg-per-pos", type=int, default=None)
def curate(config_path, out, seed, neg_per_pos):
    """Filter engagement, label pairs, and deduplicate queries."""
    _run_stage("curate", _config(config_path, out, seed, neg_per_pos=neg_per_pos))


@main.command("train-encoder")
@common_options
@click.option("--steps", "encoder_steps", type=int, default=None)
@click.option("--temperature", type=float, default=None)
def train_encoder(config_path, out, seed, encoder_steps, temperature):
    """Train the contrastive embedding towers."""
    _run_stage("train-encoder", _config(config_path, out, seed,
                                        encoder_steps=encoder_steps,
                                        temperature=temperature))


@main.command("build-index")
@common_options
@click.option("--ef-search", "ef_search", type=int, default=None)
@click.option("--ef-construction", "ef_construction", type=int, default=None)
@click.option("--m", "hnsw_m", type=int, default=None)
def build_index(config_path, out, seed, ef_search, ef_construction, hnsw_m):
    """Build the ANN index over encoded pins."""
    _run_stage("build-index", _config(config_path, out, seed,
                                      ef_search=ef_search,
                                      ef_construction=ef_construction,
                                      hnsw_m=hnsw_m))


@main.command("train-ranker")
@common_options
@click.option("--steps", "ranker_steps", type=int, default=None)
@click.option("--margin", type=float, default=None)
def train_ranker(config_path, out, seed, ranker_steps, margin):
    """Train the two-tower annotation ranker and emit annotations."""
    _run_stage("train-ranker", _config(config_path, out, seed,
                                       ranker_steps=ranker_steps, margin=margin))


@main.command("build-collections")
@common_options
@click.option("--k", "collection_k", type=int, default=None)
def build_collections(config_path, out, seed, collection_k):
    """Build topic collection pages from annotations and the index."""
    _run_stage("build-collections", _config(config_path, out, seed,
                                            collection_k=collection_k))


@main.command()
@common_options
@click.option("--base-url", default=None)
def link(config_path, out, seed, base_url):
    """Construct the link graph, PageRank scores, report, and sitemap."""
    _run_stage("link", _config(config_path, out, seed, base_url=base_url))


@main.command("agent-run")
@common_options
@click.option("--min-count", "agent_min_count", type=int, default=None)
def agent_run(config_path, out, seed, agent_min_count):
    """Run one trend-mining agent episode."""
    _run_stage("agent-run", _config(config_path, out, seed,
                                    agent_min_count=agent_min_count))


@main.command("eval")
@common_options
def eval_cmd(config_path, out, seed):
    """Aggregate metrics across finished stages; prints and writes JSON."""
    config = _config(config_path, out, seed)
    report, ok = run_pipeline(config, stages=["eval"])
    result = report["stages"]["eval"]
    if result["status"] != "ok":
        click.echo(f"eval: {result['status']}: {result.get('error', '')}", err=True)
        sys.exit(1)
    metrics = result["metrics"]
    click.echo(f"{'metric':<32} value")
    for key in ("recall_at_10", "correct_rank", "intent_satisfying_rate_mean",
                "orphan_pins"):
        click.echo(f"{key:<32} {metrics[key]}")
    ws = Workspace(config.out_dir)
    eval_path = ws.out / "eval_report.json"
    write_text(eval_path, json.dumps(metrics, indent=2, sort_keys=True))
    click.echo(f"written: {eval_path}")


@main.command()
@common_options
@click.option(
    "--stages", default=None,
    help=f"Comma-separated subset of: {','.join(STAGE_ORDER)}",
)
def pipeline(config_path, out, seed, stages):
    """Run all stages (or a subset) in dependency order. A stage whose
    input artifact is missing fails with DependencyError."""
    config = _config(config_path, out, seed)
    stage_list = stages.split(",") if stages else None
    for stage in stage_list or []:
        if stage not in STAGE_ORDER:
            raise click.UsageError(f"unknown stage {stage!r}")
    report, ok = run_pipeline(config, stages=stage_list)
    for stage, result in report["stages"].items():
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

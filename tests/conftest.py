"""Shared fixtures: a small synthetic corpus for unit tests, plus the two
expensive session-scoped artifacts (10k-vector HNSW index, full pipeline
run) that several acceptance criteria share."""

from __future__ import annotations

import time

import numpy as np
import pytest

from geoforge import hnsw, synth
from geoforge.pipeline import PipelineConfig, Workspace, run_pipeline

from _oracles import unit_rows


@pytest.fixture(scope="session")
def small_synth():
    """Clustered 120-pin corpus plus its sidecar (cluster maps)."""
    config = synth.SynthConfig(
        n_pins=120,
        n_clusters=4,
        d_v=16,
        d_t=12,
        queries_per_cluster=12,
        engagement_per_pin=4,
        seed=11,
    )
    corpus, sidecar = synth.generate_corpus(config)
    return corpus, sidecar, config


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory):
    """One full pipeline run on the bundled 1k-pin corpus at seed 7."""
    out = tmp_path_factory.mktemp("pipeline-run")
    config = PipelineConfig(out_dir=out, seed=7)
    start = time.perf_counter()
    report, ok = run_pipeline(config)
    elapsed = time.perf_counter() - start
    assert ok, f"pipeline run failed: {report['stages']}"
    return {
        "config": config,
        "ws": Workspace(out),
        "report": report,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def hnsw_10k():
    """10k random 64-dim unit vectors indexed at defaults, plus 100 queries."""
    rng = np.random.default_rng(101)
    vecs = unit_rows(rng, 10_000, 64)
    queries = unit_rows(rng, 100, 64)
    vectors = {i: vecs[i] for i in range(len(vecs))}
    start = time.perf_counter()
    index = hnsw.build(vectors, seed=3)
    build_seconds = time.perf_counter() - start
    return {
        "vectors": vectors,
        "index": index,
        "queries": queries,
        "build_seconds": build_seconds,
    }


@pytest.fixture
def announce(capsys):
    """Print a line straight to the terminal, bypassing pytest capture, so
    every acceptance criterion leaves one visible pass/fail line."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _announce

"""Link graph wiring, PageRank vs the dense oracle, reports, sitemap
export, and persistence."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoforge.collections_ import Collection
from geoforge.core import QueryRecord, read_jsonl
from geoforge.linkgraph import (
    LinkGraph,
    LinkGraphError,
    build_link_graph,
    collection_node,
    export_sitemap,
    link_report,
    pagerank,
    pin_node,
    write_graph,
)

from _oracles import dense_pagerank


def _collection(text: str, members: list[int]) -> Collection:
    return Collection(
        topic=QueryRecord(text, "UseCase"),
        slug=text.replace(" ", "-"),
        embedding_kind="pinclip",
        members=[(sig, 0.9) for sig in members],
    )


class TestGraph:
    def test_self_loop_rejected(self):
        graph = LinkGraph()
        with pytest.raises(LinkGraphError, match="self-loop"):
            graph.add_edge("a", "a")

    def test_build_link_graph_wiring(self):
        collections = [_collection("sage green", [1, 2])]
        annotations = {1: ["sage green"], 3: ["unknown topic"]}
        graph, dangling = build_link_graph(annotations, collections)
        assert (collection_node("sage-green"), pin_node(1)) in graph.edges
        assert (collection_node("sage-green"), pin_node(2)) in graph.edges
        assert (pin_node(1), collection_node("sage-green")) in graph.edges
        assert pin_node(3) in graph.nodes
        assert dangling == [{"pin_signature": 3, "annotation": "unknown topic"}]

    def test_degree_bookkeeping(self):
        graph = LinkGraph()
        graph.add_edge("a", "b")
        graph.add_edge("c", "b")
        graph.add_node("d")
        assert graph.in_degree() == {"a": 0, "b": 2, "c": 0, "d": 0}


class TestPagerank:
    def test_empty_graph(self):
        with pytest.raises(LinkGraphError, match="non-empty"):
            pagerank(LinkGraph())

    def test_damping_range(self):
        graph = LinkGraph()
        graph.add_edge("a", "b")
        with pytest.raises(LinkGraphError, match="damping"):
            pagerank(graph, damping=1.0)
        # no iteration would leave the uniform start reported as converged
        with pytest.raises(LinkGraphError, match="max_iter"):
            pagerank(graph, max_iter=0)

    def test_ring_uniform(self):
        graph = LinkGraph()
        for i in range(6):
            graph.add_edge(f"n{i}", f"n{(i + 1) % 6}")
        scores = pagerank(graph, tol=1e-12)
        assert all(abs(v - 1 / 6) <= 1e-9 for v in scores.scores.values())
        assert scores.converged

    def test_mass_conserved_with_dangling(self):
        graph = LinkGraph()
        graph.add_edge("a", "b")
        graph.add_node("c")  # dangling, isolated
        scores = pagerank(graph)
        assert abs(sum(scores.scores.values()) - 1.0) <= 1e-9

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            nodes = [f"v{i}" for i in range(n)]
            graph = LinkGraph()
            for node in nodes:
                graph.add_node(node)
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.4:
                        graph.add_edge(nodes[i], nodes[j])
            got = pagerank(graph, tol=1e-13)
            want = dense_pagerank(nodes, graph.edges)
            assert max(abs(got.scores[v] - want[v]) for v in nodes) <= 1e-9


def _add_at_pagerank(graph, damping=0.85, tol=1e-10, max_iter=200):
    """Per-node reference: one `np.add.at` per source node per iteration,
    sources in sorted node order, each on top of the base term."""
    nodes = sorted(graph.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    targets = [
        np.array(sorted(idx[d] for s, d in graph.edges if s == node), dtype=np.int64)
        for node in nodes
    ]
    out_deg = np.array([len(t) for t in targets], dtype=np.float64)
    rank = np.full(n, 1.0 / n)
    residual = 0.0
    for iterations in range(1, max_iter + 1):
        new = np.full(n, (1.0 - damping) / n)
        new += damping * rank[out_deg == 0].sum() / n
        contrib = np.divide(rank, out_deg, out=np.zeros_like(rank), where=out_deg > 0)
        for i, t in enumerate(targets):
            if t.size:
                np.add.at(new, t, damping * contrib[i])
        residual = float(np.abs(new - rank).sum())
        rank = new
        if residual < tol:
            break
    rank = rank / rank.sum()
    return {node: float(rank[i]) for i, node in enumerate(nodes)}, iterations, residual


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 40))
    names = [f"v{draw(st.integers(0, 10**6))}-{i}" for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    graph = LinkGraph()
    for name in names:
        graph.add_node(name)
    if n > 1:
        for i, j in draw(st.lists(pairs, max_size=4 * n)):
            graph.add_edge(names[i], names[j])
    return graph


class TestPagerankBitwise:
    @settings(max_examples=150, deadline=None)
    @given(digraphs(), st.sampled_from([0.5, 0.85, 0.99]))
    def test_matches_add_at_reference_bit_for_bit(self, graph, damping):
        got = pagerank(graph, damping=damping)
        scores, iterations, residual = _add_at_pagerank(graph, damping=damping)
        assert got.scores == scores
        assert got.iterations == iterations
        assert got.residual == residual


class TestReport:
    def _graph(self):
        graph, _ = build_link_graph(
            {1: ["sage green"], 2: []}, [_collection("sage green", [1])]
        )
        return graph

    def test_report_contents(self):
        graph = self._graph()
        scores = pagerank(graph)
        report = link_report(graph, scores)
        assert report["nodes"] == len(graph.nodes)
        assert report["edges"] == len(graph.edges)
        assert report["orphan_pins"] == 1  # pin 2 has no inbound link
        assert sum(report["in_degree_histogram"].values()) == report["nodes"]
        authorities = [entry["authority"] for entry in report["crawl_order"]]
        assert authorities == sorted(authorities, reverse=True)

    def test_missing_scores_rejected(self):
        graph = self._graph()
        scores = pagerank(graph)
        del scores.scores[sorted(graph.nodes)[0]]
        with pytest.raises(LinkGraphError, match="missing"):
            link_report(graph, scores)


class TestSitemap:
    def test_valid_xml_and_ordering(self):
        graph, _ = build_link_graph(
            {9: ["b topic"], 2: ["a topic"]},
            [_collection("b topic", [9]), _collection("a topic", [2])],
        )
        xml = export_sitemap(graph, "https://example.com/")
        root = ET.fromstring(xml)
        ns = "{http://www.sitemaps.org/schemas/sitemap/0.9}"
        locs = [url.find(f"{ns}loc").text for url in root]
        assert locs == [
            "https://example.com/collection/a-topic",
            "https://example.com/collection/b-topic",
            "https://example.com/pin/2",
            "https://example.com/pin/9",
        ]

    def test_invalid_base_url(self):
        graph = LinkGraph()
        graph.add_node("pin:1")
        with pytest.raises(LinkGraphError, match="invalid base URL"):
            export_sitemap(graph, "ftp://example.com")


class TestPersistence:
    def test_roundtrip_preserves_isolated_nodes(self, tmp_path):
        graph = LinkGraph()
        graph.add_edge("a", "b")
        graph.add_node("lonely")
        path = tmp_path / "graph.jsonl"
        write_graph(graph, path)
        assert [obj for _, obj in read_jsonl(path)] == [
            {"src": "a", "dst": "b"},
            {"node": "lonely"},
        ]

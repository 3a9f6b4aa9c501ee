"""Internal link topology and authority propagation.

Pin pages link to the collection pages their selected annotations resolve
to, and collection pages link back to their member pins (hub and spoke).
Authority is propagated with PageRank power iteration; reports and a
sitemap are the export surfaces.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlparse

import numpy as np

from .collections_ import Collection, slugify
from .core import read_jsonl


class LinkGraphError(ValueError):
    pass


def pin_node(signature: int) -> str:
    return f"pin:{signature}"


def collection_node(slug: str) -> str:
    return f"collection:{slug}"


@dataclass
class LinkGraph:
    nodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)

    def add_node(self, node: str) -> None:
        self.nodes.add(node)

    def add_edge(self, src: str, dst: str) -> None:
        if src == dst:
            raise LinkGraphError(f"self-loop at {src}")
        self.nodes.add(src)
        self.nodes.add(dst)
        self.edges.add((src, dst))

    def out_neighbors(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst in sorted(self.edges):
            adj[src].append(dst)
        return adj

    def in_degree(self) -> dict[str, int]:
        deg = {n: 0 for n in self.nodes}
        for _, dst in self.edges:
            deg[dst] += 1
        return deg


@dataclass
class AuthorityScores:
    scores: dict[str, float]
    damping: float
    iterations: int
    residual: float
    converged: bool


def build_link_graph(
    annotations: dict[int, list[str]],
    collections: list[Collection],
) -> tuple[LinkGraph, list[dict]]:
    """Wire pin->collection edges from annotations and collection->pin edges
    from membership. Annotations that resolve to no collection are reported,
    not fatal."""
    graph = LinkGraph()
    by_slug = {c.slug: c for c in collections}
    for coll in collections:
        node = collection_node(coll.slug)
        graph.add_node(node)
        for signature, _ in coll.members:
            graph.add_edge(node, pin_node(signature))
    dangling: list[dict] = []
    for signature, queries in sorted(annotations.items()):
        graph.add_node(pin_node(signature))
        for query_text in queries:
            slug = slugify(query_text)
            if slug in by_slug:
                graph.add_edge(pin_node(signature), collection_node(slug))
            else:
                dangling.append({"pin_signature": signature, "annotation": query_text})
    return graph, dangling


def pagerank(
    graph: LinkGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> AuthorityScores:
    """Power iteration with uniform teleport; dangling mass is redistributed
    uniformly. Stops when the L1 residual drops below tol."""
    if not graph.nodes:
        raise LinkGraphError("pagerank needs a non-empty graph")
    if not 0.0 < damping < 1.0:
        raise LinkGraphError(f"damping must lie in (0, 1), got {damping}")
    nodes = sorted(graph.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    out_lists = graph.out_neighbors()
    targets = [np.array([idx[d] for d in out_lists[node]], dtype=np.int64) for node in nodes]
    out_deg = np.array([len(t) for t in targets], dtype=np.float64)
    rank = np.full(n, 1.0 / n)
    residual = 0.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = np.full(n, (1.0 - damping) / n)
        dangling_mass = rank[out_deg == 0].sum()
        new += damping * dangling_mass / n
        contrib = np.divide(rank, out_deg, out=np.zeros_like(rank), where=out_deg > 0)
        for i, t in enumerate(targets):
            if t.size:
                np.add.at(new, t, damping * contrib[i])
        residual = float(np.abs(new - rank).sum())
        rank = new
        if residual < tol:
            break
    rank = rank / rank.sum()  # guard drift; mass is conserved analytically
    return AuthorityScores(
        scores={node: float(rank[i]) for i, node in enumerate(nodes)},
        damping=damping,
        iterations=iterations,
        residual=residual,
        converged=residual < tol,
    )


def link_report(graph: LinkGraph, scores: AuthorityScores) -> dict:
    """Score-ordered crawl list plus degree histograms and orphan-pin count."""
    missing = graph.nodes - scores.scores.keys()
    if missing:
        raise LinkGraphError(f"scores missing for {len(missing)} nodes")
    in_deg = graph.in_degree()
    out_deg = {n: 0 for n in graph.nodes}
    for src, _ in graph.edges:
        out_deg[src] += 1

    def histogram(degrees: dict[str, int]) -> dict[str, int]:
        counts = Counter(degrees.values())
        return {str(d): counts[d] for d in sorted(counts)}

    ordered = sorted(graph.nodes, key=lambda n: (-scores.scores[n], n))
    orphans = [
        n for n in graph.nodes if n.startswith("pin:") and in_deg[n] == 0
    ]
    return {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "crawl_order": [
            {"node": n, "authority": scores.scores[n]} for n in ordered
        ],
        "in_degree_histogram": histogram(in_deg),
        "out_degree_histogram": histogram(out_deg),
        "orphan_pins": len(orphans),
        "pagerank": {
            "damping": scores.damping,
            "iterations": scores.iterations,
            "residual": scores.residual,
            "converged": scores.converged,
        },
    }


def export_sitemap(graph: LinkGraph, base_url: str) -> str:
    """Sitemap-protocol XML: collections first by slug, then pins by signature."""
    parsed = urlparse(base_url)
    if parsed.scheme not in ("http", "https") or not parsed.netloc:
        raise LinkGraphError(f"invalid base URL {base_url!r}")
    base = base_url.rstrip("/")
    urlset = ET.Element("urlset", xmlns="http://www.sitemaps.org/schemas/sitemap/0.9")
    collections = sorted(n.split(":", 1)[1] for n in graph.nodes if n.startswith("collection:"))
    pins = sorted(int(n.split(":", 1)[1]) for n in graph.nodes if n.startswith("pin:"))
    for slug in collections:
        url = ET.SubElement(urlset, "url")
        ET.SubElement(url, "loc").text = f"{base}/collection/{slug}"
    for signature in pins:
        url = ET.SubElement(urlset, "url")
        ET.SubElement(url, "loc").text = f"{base}/pin/{signature}"
    ET.indent(urlset)
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(
        urlset, encoding="unicode"
    ) + "\n"


def write_graph(graph: LinkGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for src, dst in sorted(graph.edges):
            fh.write(json.dumps({"src": src, "dst": dst}) + "\n")
        linked = {n for edge in graph.edges for n in edge}
        for node in sorted(graph.nodes - linked):
            fh.write(json.dumps({"node": node}) + "\n")


def load_graph(path: str | Path) -> LinkGraph:
    graph = LinkGraph()
    for _, obj in read_jsonl(path):
        if "src" in obj:
            graph.add_edge(obj["src"], obj["dst"])
        else:
            graph.add_node(obj["node"])
    return graph

"""Internal link topology and authority propagation.

Pin pages link to the collection pages their selected annotations resolve
to, and collection pages link back to their member pins (hub and spoke).
Authority is propagated with PageRank power iteration; reports and a
sitemap are the export surfaces.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlparse

import numpy as np

from .collections_ import Collection, slugify
from .core import write_jsonl


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
    uniformly. Stops when the L1 residual drops below tol.

    Each iteration is one `np.bincount` over a flat index array: first every
    node once with its base term (teleport plus dangling share), then every
    edge's target, with edges sorted by source. bincount adds in array order,
    so node j's new score is its base term plus its in-edge contributions in
    ascending source order, the order of a per-source `np.add.at` sweep.
    """
    if not graph.nodes:
        raise LinkGraphError("pagerank needs a non-empty graph")
    if not 0.0 < damping < 1.0:
        raise LinkGraphError(f"damping must lie in (0, 1), got {damping}")
    if max_iter < 1:
        raise LinkGraphError(f"max_iter must be at least 1, got {max_iter}")
    nodes = sorted(graph.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    edges = np.array(
        sorted((idx[src], idx[dst]) for src, dst in graph.edges), dtype=np.int64
    ).reshape(-1, 2)
    sources = edges[:, 0]
    slots = np.concatenate([np.arange(n), edges[:, 1]])
    out_deg = np.bincount(sources, minlength=n).astype(np.float64)
    dangling = out_deg == 0
    rank = np.full(n, 1.0 / n)
    for iterations in range(1, max_iter + 1):
        base = (1.0 - damping) / n + damping * rank[dangling].sum() / n
        contrib = np.divide(rank, out_deg, out=np.zeros_like(rank), where=~dangling)
        weights = np.concatenate([np.full(n, base), damping * contrib[sources]])
        new = np.bincount(slots, weights=weights, minlength=n)
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
    """Edges sorted as (src, dst) records, then unlinked nodes as node records."""
    edges = [{"src": src, "dst": dst} for src, dst in sorted(graph.edges)]
    linked = {n for edge in graph.edges for n in edge}
    write_jsonl(path, edges + [{"node": node} for node in sorted(graph.nodes - linked)])

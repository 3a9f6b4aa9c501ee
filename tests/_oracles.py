"""Independently written oracles shared by the unit and acceptance tests.

Everything in here recomputes the quantity under test from first
principles (central finite differences, dense power iteration) so the
library implementations are checked against code that shares none of
their structure.  The exceptions are the HNSW searches: they reread the
index's link rows and take each step's distances as one numpy vector, the
product whose bits the index must reproduce.  `hnsw_reference_search`
restates the index's batched beam with sets and sorted lists;
`sequential_reference_search` keeps the best-first beam, one row per
step, as the baseline the batched beam's recall is held to. The
held-out split and its top-1 cluster measure serve the ranker's held-out
guard: they use no library code but the towers they score.
"""

from __future__ import annotations

import heapq

import numpy as np

from geoforge.core import ZeroNormError

FD_STEP = 1e-5


def finite_difference(fn, arrays: list[np.ndarray], step: float = FD_STEP) -> list[np.ndarray]:
    """Central finite differences of a scalar function w.r.t. each array.

    ``fn`` takes no arguments and must read the (mutated) arrays; all
    arithmetic stays in 64-bit.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr, dtype=np.float64)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            original = float(arr[i])
            arr[i] = original + step
            hi = fn()
            arr[i] = original - step
            lo = fn()
            arr[i] = original
            grad[i] = (hi - lo) / (2.0 * step)
        grads.append(grad)
    return grads


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-relative gradient error, guarded against vanishing gradients."""
    scale = max(float(np.linalg.norm(numeric)), float(np.linalg.norm(analytic)), 1e-12)
    return float(np.linalg.norm(np.asarray(analytic) - np.asarray(numeric))) / scale


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Per-pair cosine similarity in float64, clipped to [-1, 1]: the
    reference for the library's batched cosines (judge scores, curation's
    Gram products)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for zero vectors")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def dense_pagerank(
    nodes: list[str],
    edges: set[tuple[str, str]],
    damping: float = 0.85,
    tol: float = 1e-14,
    max_iter: int = 100_000,
) -> dict[str, float]:
    """Dense power-iteration PageRank with uniform teleport and uniform
    redistribution of dangling mass."""
    ordered = sorted(nodes)
    idx = {n: i for i, n in enumerate(ordered)}
    n = len(ordered)
    adj = np.zeros((n, n))
    for src, dst in edges:
        adj[idx[src], idx[dst]] = 1.0
    out_deg = adj.sum(axis=1)
    transition = np.divide(
        adj, out_deg[:, None], out=np.zeros_like(adj), where=out_deg[:, None] > 0
    )
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        dangling = rank[out_deg == 0].sum()
        new = (1.0 - damping) / n + damping * (transition.T @ rank + dangling / n)
        if np.abs(new - rank).sum() < tol:
            rank = new
            break
        rank = new
    rank = rank / rank.sum()
    return {node: float(rank[i]) for i, node in enumerate(ordered)}


def retention_oracle(impressions: int, clicks: int, avg_position: float) -> bool:
    """Boolean restatement of the engagement retention rule, written without
    reference to the library implementation."""
    if impressions > 1000:
        return True
    if impressions <= 10:
        return False
    high_ctr = impressions > 0 and (clicks / impressions) >= 0.8
    good_position = avg_position <= 10
    return high_ctr or good_position


def curation_oracle(records: list[tuple], n: int) -> tuple[list[tuple[int, str]], dict[str, int]]:
    """Record-at-a-time retention and top-query selection over ``records``
    of (pin signature, query text, impressions, clicks, avg_position): each
    pin's top ``n`` retained (signature, text) positives, pins ascending and
    each pin's by impressions descending, then position, then text, with
    ties in input order; and the records that meet each retention branch,
    and that meet none as "rejected"."""
    counts = {"impressions": 0, "ctr": 0, "position": 0, "rejected": 0}
    by_pin: dict[int, list[tuple]] = {}
    for record in records:
        signature, _, impressions, clicks, position = record
        branches = [name for name, met in [
            ("impressions", impressions > 1000),
            ("ctr", impressions > 10 and clicks / impressions >= 0.8),
            ("position", impressions > 10 and position <= 10),
        ] if met]
        for name in branches or ["rejected"]:
            counts[name] += 1
        if branches:
            by_pin.setdefault(signature, []).append(record)
    pairs = []
    for signature in sorted(by_pin):
        ranked = sorted(by_pin[signature], key=lambda r: (-r[2], r[4], r[1]))
        pairs += [(signature, text) for _, text, *_ in ranked[:n]]
    return pairs, counts


def whole_batch_correct_rank(model, triplets) -> float:
    """The ranker's correct-rank ratio from one pass of each tower over the
    whole set: the reference for the library's blocked scoring. Ties count
    as failures."""
    pins = triplets.pins[triplets.pin]
    positives, negatives = triplets.queries[triplets.pos], triplets.queries[triplets.neg]
    e_pin = model.embed_pin(pins)
    pos_scores = np.sum(e_pin * model.embed_query(positives), axis=1)
    neg_scores = np.sum(e_pin * model.embed_query(negatives), axis=1)
    return float(np.mean(pos_scores > neg_scores))


def held_out_pins(n_pins: int, share: float, seed: int) -> np.ndarray:
    """The rows of a seeded ``share`` of ``n_pins`` pins, to hold out of
    ranker training."""
    return np.random.default_rng(seed).permutation(n_pins)[: int(n_pins * share)]


def top1_cluster(model, pins: np.ndarray, queries: np.ndarray,
                 pin_clusters: np.ndarray, query_clusters: np.ndarray) -> float:
    """The share of ``pins`` rows whose best-scored ``queries`` row lies in
    the pin's own cluster, from one pass of each tower."""
    scores = model.embed_pin(pins) @ model.embed_query(queries).T
    return float(np.mean(query_clusters[np.argmax(scores, axis=1)] == pin_clusters))


def whole_batch_embeddings(embed, rows: np.ndarray) -> np.ndarray:
    """A tower's output rows from one pass over all ``rows``: the reference,
    bit for bit, for the library's blocked embedding."""
    return embed(rows)


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def diversity_select(
    vectors: np.ndarray, candidates: list[tuple[float, int]], m: int, backfill_to: int
) -> tuple[list[int], int]:
    """The HNSW neighbor heuristic one pair at a time: walk candidates by
    (distance, index) and keep one unless it is closer to an already kept
    candidate than to the query; keep at most ``m``, then fill up to
    ``backfill_to`` with the closest discarded ones (none when it is at
    most ``m``).  Returns the kept indices and the number of pair
    comparisons made."""
    kept: list[int] = []
    discarded: list[int] = []
    comparisons = 0
    for dist, idx in sorted(candidates):
        if len(kept) >= m:
            if len(kept) + len(discarded) >= backfill_to:
                break
            discarded.append(idx)
            continue
        for other in kept:
            comparisons += 1
            if float(vectors[idx] @ vectors[other]) > 1.0 - dist:
                discarded.append(idx)
                break
        else:
            kept.append(idx)
    return kept + discarded[: max(0, backfill_to - len(kept))], comparisons


def diversity_walk_reference(
    rules: np.ndarray, m: int, target: int
) -> tuple[list[int], list[int], int]:
    """The diversity heuristic's walk one candidate at a time over a square
    boolean matrix, ``rules[p, q]`` when candidate p rules out candidate q:
    each candidate in order meets the kept ones in order and is dropped at
    the first that rules it out, and the walk ends once ``m`` are kept.
    Returns the n kept positions, the first ``target - n`` others in order,
    and the number of pairs met."""
    kept: list[int] = []
    comparisons = 0
    for q in range(len(rules)):
        if len(kept) == m:
            break
        for p in kept:
            comparisons += 1
            if rules[p, q]:
                break
        else:
            kept.append(q)
    others = [q for q in range(len(rules)) if q not in kept]
    return kept, others[: max(0, target - len(kept))], comparisons


def hnsw_reference_links(
    vectors: np.ndarray, levels: np.ndarray, M: int, ef_construction: int
) -> tuple[list[list[list[int]]], int, int]:
    """HNSW construction one pair at a time, for nodes inserted in row order
    at the given levels.  Each layer's candidates are its ``ef_construction``
    nearest members by brute force; the new node keeps ``diversity_select``
    of them, backfilled to 2*M at layer 0 and with no backfill above it
    (``backfill_to=0``), and a neighbour whose row then overflows is cut
    back to ``diversity_select``'s picks alone, also with no backfill: at
    most 2*M - 2 links at layer 0 and M above.  Returns the link rows per
    layer, the dot products made (distance rows, selection and prune
    comparisons) and the prune count."""
    n_layers = max(levels) + 1
    links: list[list[list[int]]] = [[[] for _ in levels] for _ in range(n_layers)]
    count = prunes = 0
    for idx in range(1, len(levels)):
        dists = [1.0 - float(vectors[j] @ vectors[idx]) for j in range(idx)]
        count += idx
        for layer in range(min(levels[idx], max(levels[:idx])), -1, -1):
            m_max = 2 * M if layer == 0 else M
            members = [j for j in range(idx) if levels[j] >= layer]
            near = sorted((dists[j], j) for j in members)[:ef_construction]
            kept, comparisons = diversity_select(vectors, near, M, m_max if layer == 0 else 0)
            count += comparisons
            links[layer][idx] = kept
            for nbr in kept:
                row = links[layer][nbr] + [idx]
                if len(row) <= m_max:
                    links[layer][nbr] = row
                    continue
                prunes += 1
                count += len(row)
                scored = [(1.0 - float(vectors[j] @ vectors[nbr]), j) for j in row]
                keep = m_max - 2 if layer == 0 else m_max
                links[layer][nbr], comparisons = diversity_select(vectors, scored, keep, 0)
                count += comparisons
    return links, count, prunes


def hnsw_reference_search(
    index, query: np.ndarray, k: int, ef_search: int | None = None
) -> tuple[list[tuple[int, float]], int]:
    """`HnswIndex.search` with sets and sorted lists: a best-first descent at
    width 1 through the upper layers, then the batched beam at layer 0.  Each
    step expands the up to 2*M closest unexpanded beam members, scores their
    unvisited neighbors in ascending index order as one vector,
    ``1.0 - vectors[new] @ query``, and keeps the ef best by (distance,
    index); the search ends when every member is expanded.  Reads the index
    and changes nothing; returns the top-k as (id, similarity) and the
    distances the search counts: the entry and every edge scanned."""
    query = np.asarray(query, dtype=np.float64)
    ef = max(ef_search or index.params.ef_search, k)
    vectors = index._vectors
    beam, count = _reference_descent(index, query)
    layer0 = index._layers[0]
    visited = {idx for _, idx in beam}
    expanded: set[int] = set()
    while True:
        step = [idx for _, idx in beam if idx not in expanded][: 2 * index.params.M]
        if not step:
            break
        expanded.update(step)
        links = [n for idx in step for n in layer0.links(idx)]
        count += len(links)
        new = sorted(set(links) - visited)
        visited.update(new)
        if new:
            dists = (1.0 - vectors[new] @ query).tolist()
            beam = sorted(beam + list(zip(dists, new)))[:ef]
    return [(index._ids[idx], 1.0 - dist) for dist, idx in beam[:k]], count


def sequential_reference_search(
    index, query: np.ndarray, k: int, ef_search: int | None = None
) -> tuple[list[tuple[int, float]], int]:
    """The best-first HNSW search, one expanded row per step at every layer
    (Malkov & Yashunin, Algorithm 2), with each row's distances taken as one
    numpy vector.  Reads the index and changes nothing; returns the top-k as
    (id, similarity) and the distances the search counts."""
    query = np.asarray(query, dtype=np.float64)
    ef = max(ef_search or index.params.ef_search, k)
    current, count = _reference_descent(index, query)
    results, scanned = _reference_search_layer(index, query, current, ef, 0)
    return [(index._ids[idx], 1.0 - dist) for dist, idx in results[:k]], count + scanned


def _reference_descent(index, query: np.ndarray) -> tuple[list[tuple[float, int]], int]:
    """The best-first beam at width 1 from the entry point down to layer 1:
    the (distance, index) it reaches, as a one-member list, and the
    distances counted on the way (the entry's and every edge scanned)."""
    entry_dist = 1.0 - float(index._vectors[index._entry] @ query)
    current, count = [(entry_dist, index._entry)], 1
    for layer in range(index.max_level, 0, -1):
        found, scanned = _reference_search_layer(index, query, current, 1, layer)
        current, count = found[:1], count + scanned
    return current, count


def _reference_search_layer(
    index, query: np.ndarray, entries: list[tuple[float, int]], ef: int, layer: int
) -> tuple[list[tuple[float, int]], int]:
    """One layer's best-first beam, one vector of distances per expanded
    row; returns (dist, idx) sorted and the edges scanned."""
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
    lay = index._layers[layer]
    vectors = index._vectors
    visited = {idx for _, idx in entries}
    candidates = list(entries)  # min-heap by distance
    heapq.heapify(candidates)
    results = [(-d, idx) for d, idx in entries]  # max-heap via negation
    heapq.heapify(results)
    worst = -results[0][0]
    full = len(results) >= ef
    scanned = 0
    while candidates:
        dist, idx = pop(candidates)
        if dist > worst:
            break
        row = lay.links(idx)
        scanned += len(row)
        row = [n for n in row if n not in visited]
        if not row:
            continue
        visited.update(row)
        dists = (1.0 - vectors[row] @ query).tolist()
        for d, n in zip(dists, row):
            if full:
                if d >= worst:
                    continue
                replace(results, (-d, n))
            else:
                push(results, (-d, n))
                full = len(results) >= ef
            push(candidates, (d, n))
            worst = -results[0][0]
    return sorted((-nd, idx) for nd, idx in results), scanned

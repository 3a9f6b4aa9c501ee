"""Hierarchical navigable small-world index over unit vectors.

Built from scratch: layered proximity graph, greedy descent, ef-bounded
beam search at layer 0, and diversity-preferring neighbor selection.
Similarity is the dot product on unit vectors (distance = 1 - cosine).
A brute-force scan is kept alongside as the recall oracle.

Layer adjacency lives in fixed-width int arrays (one row per node, padded
to the layer's degree cap) so the inner search loop stays in numpy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import load_arrays, save_arrays

INDEX_MAGIC = b"GEOHNSW2"
INDEX_META = {"dim": int, "entry": int, "params": {"M": int, "ef_construction": int, "ef_search": int}}
PAD = -1  # the value of a saved row's slots past its degree


class HnswError(ValueError):
    pass


@dataclass
class HnswParams:
    M: int = 16
    ef_construction: int = 200
    ef_search: int = 100

    def __post_init__(self) -> None:
        if self.M < 2:
            raise HnswError(f"M must be >= 2, got {self.M}")
        if self.ef_construction < self.M:
            raise HnswError("ef_construction must be >= M")
        if self.ef_search < 1:
            raise HnswError("ef_search must be >= 1")

    @property
    def level_mult(self) -> float:
        return 1.0 / math.log(self.M)


class _Layer:
    """Adjacency for one layer: a padded row per row of the vector store.
    Nodes whose level is below the layer keep degree 0."""

    __slots__ = ("m_max", "adj", "deg")

    def __init__(self, m_max: int, capacity: int):
        self.m_max = m_max
        self.adj = np.empty((capacity, m_max), dtype=np.int32)
        self.deg = np.zeros(capacity, dtype=np.int32)

    def neighbors(self, idx: int) -> np.ndarray:
        return self.adj[idx, : self.deg[idx]]

    def set_neighbors(self, idx: int, neighbors: list[int]) -> None:
        if len(neighbors) > self.m_max:
            raise HnswError(f"degree {len(neighbors)} exceeds {self.m_max}")
        self.adj[idx, : len(neighbors)] = neighbors
        self.deg[idx] = len(neighbors)


class HnswIndex:
    def __init__(self, dim: int, params: HnswParams | None = None, seed: int = 0):
        self.dim = dim
        self.params = params or HnswParams()
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._store = np.empty((16, dim), dtype=np.float64)
        self._ids: list[int] = []
        self._levels: list[int] = []  # each node's top layer
        self._id_to_idx: dict[int, int] = {}
        self._layers: list[_Layer] = []
        self._entry: int | None = None
        self.distance_count = 0  # dot products performed, for benchmarks

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def _vectors(self) -> np.ndarray:
        return self._store[: len(self._ids)]

    @property
    def max_level(self) -> int:
        return len(self._layers) - 1

    def _m_max(self, layer: int) -> int:
        return self.params.M * 2 if layer == 0 else self.params.M

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise HnswError(f"vector dim {vector.shape} does not match index dim {self.dim}")
        # written so that a NaN norm fails the test too
        if not abs(float(np.linalg.norm(vector)) - 1.0) <= 1e-4:
            raise HnswError("vectors must be unit norm")
        return vector

    def _search_layer(
        self,
        query: np.ndarray,
        entries: list[tuple[float, int]],
        ef: int,
        layer: int,
        visited: np.ndarray,
        all_dists: np.ndarray | None = None,
    ) -> list[tuple[float, int]]:
        """ef-bounded best-first search in one layer; returns (dist, idx) sorted.

        ``all_dists`` is an optional precomputed distance table (used during
        insertion, where one gemv against the whole store is cheaper than many
        small products); searches stay lazy so their cost tracks the number of
        nodes actually visited."""
        lay = self._layers[layer]
        adj, degrees = lay.adj, lay.deg
        vectors = self._vectors
        for _, idx in entries:
            visited[idx] = True
        candidates = list(entries)  # min-heap by distance
        heapq.heapify(candidates)
        results = [(-d, idx) for d, idx in entries]  # max-heap via negation
        heapq.heapify(results)
        while candidates:
            dist, idx = heapq.heappop(candidates)
            worst = -results[0][0]
            if dist > worst:
                break
            row = adj[idx, : degrees[idx]]
            self.distance_count += row.size  # per scanned edge, for benchmarks
            row = row[~visited[row]]
            if row.size == 0:
                continue
            visited[row] = True
            if all_dists is None:
                dists = 1.0 - vectors[row] @ query
            else:
                dists = all_dists[row]
            full = len(results) >= ef
            if full:
                # the beam's worst bound only tightens, so anything at or
                # beyond it now can never enter the beam later
                keep = dists < worst
                row, dists = row[keep], dists[keep]
            for d, n in zip(dists.tolist(), row.tolist()):
                if not full or d < worst:
                    heapq.heappush(candidates, (d, n))
                    heapq.heappush(results, (-d, n))
                    if len(results) > ef:
                        heapq.heappop(results)
                    worst = -results[0][0]
                    full = len(results) >= ef
        return sorted((-nd, idx) for nd, idx in results)

    def _select_neighbors(
        self, candidates: list[tuple[float, int]], m: int, backfill_to: int | None = None
    ) -> list[int]:
        """Diversity heuristic: keep a candidate only if it is closer to the
        query than to every already selected neighbor.  With ``backfill_to``,
        remaining slots are filled by the closest discarded candidates so
        layer-0 nodes keep enough links for the beam search to route through."""
        target = m if backfill_to is None else backfill_to
        order = sorted(candidates)
        idxs = [idx for _, idx in order]
        cand_vecs = self._vectors[idxs]
        # pairwise products over a growing prefix: selection almost always
        # stops within ~target candidates, so the full gram matrix is wasted
        limit = min(len(order), max(2 * target, 48))
        sims = cand_vecs[:limit] @ cand_vecs[:limit].T
        selected: list[int] = []
        sel_pos: list[int] = []
        discarded: list[int] = []
        for pos, (dist, idx) in enumerate(order):
            if len(selected) >= m:
                if backfill_to is None or len(selected) + len(discarded) >= target:
                    break
                discarded.append(idx)
                continue
            if pos >= limit:
                limit = min(len(order), max(2 * limit, pos + 1))
                sims = cand_vecs[:limit] @ cand_vecs[:limit].T
            row = sims[pos].tolist()
            threshold = 1.0 - dist
            keep = True
            for s in sel_pos:
                self.distance_count += 1
                if row[s] > threshold:
                    keep = False
                    break
            if keep:
                selected.append(idx)
                sel_pos.append(pos)
            else:
                discarded.append(idx)
        for idx in discarded:
            if len(selected) >= target:
                break
            selected.append(idx)
        return selected

    def insert(self, element_id: int, vector: np.ndarray) -> None:
        if element_id in self._id_to_idx:
            raise HnswError(f"duplicate id {element_id}")
        vector = self._check_vector(vector)
        level = int(math.floor(-math.log(self._rng.random()) * self.params.level_mult))

        idx = len(self._ids)
        if idx >= self._store.shape[0]:
            cap = max(32, 2 * idx)
            self._store = _grown(self._store, cap)
            for lay in self._layers:
                lay.adj, lay.deg = _grown(lay.adj, cap), _grown(lay.deg, cap)
        self._store[idx] = vector
        self._ids.append(element_id)
        self._levels.append(level)
        self._id_to_idx[element_id] = idx

        old_max = self.max_level
        while self.max_level < level:
            self._layers.append(_Layer(self._m_max(len(self._layers)), self._store.shape[0]))

        if self._entry is None:
            self._entry = idx
            return

        all_dists = 1.0 - self._vectors @ vector
        self.distance_count += 1
        entry_dist = float(all_dists[self._entry])
        current = [(entry_dist, self._entry)]
        n = len(self._ids)
        # greedy descent through layers above the new node's level
        for l in range(old_max, level, -1):
            current = self._search_layer(
                vector, current, 1, l, np.zeros(n, dtype=bool), all_dists
            )[:1]
        # full construction search from min(level, old max) down to 0
        for l in range(min(level, old_max), -1, -1):
            found = self._search_layer(
                vector, current, self.params.ef_construction, l,
                np.zeros(n, dtype=bool), all_dists,
            )
            lay = self._layers[l]
            backfill = lay.m_max if l == 0 else None
            neighbors = self._select_neighbors(found, self.params.M, backfill_to=backfill)
            lay.set_neighbors(idx, neighbors)
            for nbr in neighbors:
                deg = int(lay.deg[nbr])
                if deg < lay.m_max:
                    lay.adj[nbr, deg] = idx
                    lay.deg[nbr] = deg + 1
                else:
                    links = lay.neighbors(nbr).tolist() + [idx]
                    self.distance_count += len(links)
                    dists = 1.0 - self._vectors[links] @ self._vectors[nbr]
                    # evict several links at once so overflow pruning stays rare
                    prune_to = lay.m_max - 2 if l == 0 else lay.m_max
                    pruned = self._select_neighbors(
                        list(zip(dists.tolist(), links)), prune_to
                    )
                    lay.set_neighbors(nbr, pruned)
            current = found
        if level > old_max:
            self._entry = idx

    def search(
        self, query: np.ndarray, k: int, ef_search: int | None = None
    ) -> list[tuple[int, float]]:
        """Top-k by descending cosine similarity."""
        if self._entry is None:
            return []
        query = self._check_vector(query)
        ef = max(ef_search or self.params.ef_search, k)
        self.distance_count += 1
        entry_dist = 1.0 - float(self._vectors[self._entry] @ query)
        current = [(entry_dist, self._entry)]
        n = len(self._ids)
        for l in range(self.max_level, 0, -1):
            current = self._search_layer(query, current, 1, l, np.zeros(n, dtype=bool))[:1]
        results = self._search_layer(query, current, ef, 0, np.zeros(n, dtype=bool))
        return [(self._ids[idx], 1.0 - dist) for dist, idx in results[:k]]

    def check_invariants(self) -> None:
        """Full structural sweep, whole-array per layer: each degree within
        [0, m_max], each neighbour a node of the layer, no edge twice."""
        levels = np.asarray(self._levels, dtype=np.int64)
        for l, lay in enumerate(self._layers):
            members = np.flatnonzero(levels >= l)
            rows, deg = lay.adj[members], lay.deg[members]
            if ((deg < 0) | (deg > lay.m_max)).any():
                raise HnswError(f"degree outside [0, {lay.m_max}] at layer {l}")
            linked = np.arange(lay.m_max) < deg[:, None]
            nbrs = rows[linked]
            if ((nbrs < 0) | (nbrs >= levels.size)).any() or (levels[nbrs] < l).any():
                raise HnswError(f"edge to a node outside layer {l}")
            # unlinked slots get distinct negatives so only real edges can repeat
            marked = np.sort(np.where(linked, rows, -1 - np.arange(lay.m_max)), axis=1)
            if (marked[:, 1:] == marked[:, :-1]).any():
                raise HnswError(f"duplicate edges at layer {l}")

    def save(self, path: str | Path) -> None:
        """Save ids, float32 vectors, each node's top layer, and per layer l
        the padded rows ``adj{l}`` and degrees ``deg{l}`` of its members."""
        levels = np.asarray(self._levels, dtype="<i4")
        arrays = {
            "ids": np.asarray(self._ids, dtype="<i8"),
            "vectors": self._vectors.astype("<f4"),
            "levels": levels,
        }
        for l, lay in enumerate(self._layers):
            members = np.flatnonzero(levels >= l)
            deg = lay.deg[members]
            linked = np.arange(lay.m_max) < deg[:, None]
            arrays[f"adj{l}"] = np.where(linked, lay.adj[members], PAD).astype("<i4")
            arrays[f"deg{l}"] = deg.astype("<i4")
        entry = -1 if self._entry is None else self._entry
        meta = {"dim": self.dim, "entry": entry, "params": asdict(self.params)}
        save_arrays(path, INDEX_MAGIC, meta, arrays)

    @classmethod
    def load(cls, path: str | Path) -> "HnswIndex":
        """Read an index written by `save`; whole-array checks of levels,
        degrees, neighbours and entry point raise HnswError on any fault."""
        meta, arrays = load_arrays(path, INDEX_MAGIC, HnswError, INDEX_META)
        n_layers = (len(arrays) - 3) // 2
        expected = {"ids": "<i8", "vectors": "<f4", "levels": "<i4"}
        for l in range(n_layers):
            expected |= {f"adj{l}": "<i4", f"deg{l}": "<i4"}
        if {name: a.dtype.str for name, a in arrays.items()} != expected:
            raise HnswError(f"unexpected array names or dtypes in {path}")
        ids, vectors, levels = arrays["ids"], arrays["vectors"], arrays["levels"]
        count, dim, entry = ids.size, meta["dim"], meta["entry"]
        if (ids.shape != (count,) or vectors.shape != (count, dim) or levels.shape != (count,)
                or len(np.unique(ids)) != count):
            raise HnswError(f"ids repeat or disagree with vectors and levels on shape in {path}")
        if (levels < 0).any() or int(levels.max(initial=-1)) + 1 != n_layers:
            raise HnswError(f"node level out of range for {n_layers} layers in {path}")
        index = cls(dim, HnswParams(**meta["params"]))
        for l in range(n_layers):
            m_max = index._m_max(l)
            members = np.flatnonzero(levels >= l)
            adj, deg = arrays[f"adj{l}"], arrays[f"deg{l}"]
            if adj.shape != (members.size, m_max) or deg.shape != (members.size,):
                raise HnswError(f"layer {l} arrays do not match its members in {path}")
            lay = _Layer(m_max, count)
            lay.adj[members] = adj
            lay.deg[members] = deg
            index._layers.append(lay)
        if not (entry == -1 == count - 1 or 0 <= entry < count and levels[entry] == n_layers - 1):
            raise HnswError(f"entry point {entry} outside the top layer in {path}")
        index._levels = levels.tolist()
        index.check_invariants()
        index._ids = ids.tolist()
        index._store = vectors.astype(np.float64)
        # re-normalize: f32 rounding perturbs norms slightly
        norms = np.linalg.norm(index._store, axis=1, keepdims=True)
        np.divide(index._store, norms, out=index._store, where=norms > 0)
        index._id_to_idx = {eid: i for i, eid in enumerate(index._ids)}
        index._entry = None if count == 0 else entry
        return index


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` with zero rows appended up to ``rows``."""
    return np.concatenate([a, np.zeros((rows - len(a), *a.shape[1:]), a.dtype)])


def build(
    vectors: dict[int, np.ndarray], params: HnswParams | None = None, seed: int = 0
) -> HnswIndex:
    """Batch build by sequential insertion in sorted-id order (deterministic)."""
    items = sorted(vectors.items())
    index = HnswIndex(dim=len(items[0][1]) if items else 0, params=params, seed=seed)
    for element_id, vector in items:
        index.insert(element_id, vector)
    return index


def brute_force_search(
    vectors: dict[int, np.ndarray], query: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """Exact top-k by cosine; ties break toward the lower id."""
    if not vectors:
        return []
    ids = sorted(vectors)
    matrix = np.stack([vectors[i] for i in ids])
    query = np.asarray(query, dtype=np.float64)
    if matrix.shape[1] != query.shape[0]:
        raise HnswError(
            f"query dim {query.shape[0]} does not match vectors dim {matrix.shape[1]}"
        )
    sims = matrix @ query
    order = sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))
    return [(ids[i], float(sims[i])) for i in order[:k]]

"""Hierarchical navigable small-world index over unit vectors.

Built from scratch: layered proximity graph, diversity-preferring neighbor
selection, and for search a greedy descent then an ef-bounded beam at
layer 0.  An insert needs no search: one product gives its distance to
every stored node, and each layer's ``ef_construction`` nearest members in
that row are its exact construction candidates (Malkov & Yashunin,
arXiv:1603.09320, take them from a beam search instead).  Neighbor
selection makes one product per selected neighbor, against the candidates
after it.  Neighbors whose rows overflow are pruned together, each row
sorted before one stacked product gives every gram matrix.
Similarity is the dot product on unit vectors (distance = 1 - cosine).
A brute-force scan is kept alongside as the recall oracle.

Layer adjacency lives in plain Python lists, one per node: a row holds at
most 2*M links, too few for numpy calls on it to pay for themselves.  Every
row refers to a node by the same int object, so a search touches one object
per node rather than one per link.  Rows become fixed-width int arrays
(padded to the layer's degree cap) only to be checked or saved.  Likewise a
search hop gathers its 1-32 unvisited rows with ``take``, multiplies with
``dot`` and subtracts in Python floats: numpy's dispatch outweighs that
arithmetic, and the bits equal those of ``1.0 - vectors[row] @ query``.
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
    """Adjacency for one layer: a list of neighbor indices per row of the
    vector store.  Nodes whose level is below the layer keep an empty list."""

    __slots__ = ("m_max", "links")

    def __init__(self, m_max: int, size: int):
        self.m_max = m_max
        self.links: list[list[int]] = [[] for _ in range(size)]

    def set_neighbors(self, idx: int, neighbors: list[int]) -> None:
        if len(neighbors) > self.m_max:
            raise HnswError(f"degree {len(neighbors)} exceeds {self.m_max}")
        self.links[idx] = neighbors

    def padded(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``members`` as an (n, m_max) array with PAD past each
        degree (links beyond m_max are cut), and the degrees themselves."""
        rows = [self.links[i] for i in members.tolist()]
        deg = np.array([len(row) for row in rows], dtype=np.int64)
        adj = np.full((len(rows), self.m_max), PAD, dtype=np.int64)
        adj[np.arange(self.m_max) < deg[:, None]] = [n for row in rows for n in row[: self.m_max]]
        return adj, deg


class HnswIndex:
    def __init__(self, dim: int, params: HnswParams | None = None, seed: int = 0):
        self.dim = dim
        self.params = params or HnswParams()
        self._rng = np.random.default_rng(seed)
        self._store = np.empty((16, dim), dtype=np.float64)
        self._ids: list[int] = []
        # _nodes[i] is i: every link row holds these shared int objects
        self._nodes: list[int] = []
        self._levels: list[int] = []  # each node's top layer
        self._id_to_idx: dict[int, int] = {}
        self._layers: list[_Layer] = []
        self._entry: int | None = None
        # dot products performed, for benchmarks: a search counts the edges
        # it scans; an insert counts its distance row (one per stored node),
        # then the pair comparisons of neighbor selection and pruning
        self.distance_count = 0

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def _vectors(self) -> np.ndarray:
        return self._store[: len(self._ids)]

    def stored_vectors(self) -> dict[int, np.ndarray]:
        """Each id's stored row as a read-only view; float32-rounded after `load`."""
        rows = self._vectors.view()
        rows.flags.writeable = False
        return dict(zip(self._ids, rows))

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
        self, query: np.ndarray, entries: list[tuple[float, int]], ef: int, layer: int
    ) -> list[tuple[float, int]]:
        """ef-bounded best-first search in one layer; returns (dist, idx) sorted.

        Distances are computed lazily, one product per expanded row, so a
        search's cost tracks the number of nodes it actually visits."""
        push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
        links = self._layers[layer].links
        vectors = self._vectors
        visited = {idx for _, idx in entries}
        candidates = list(entries)  # min-heap by distance
        heapq.heapify(candidates)
        results = [(-d, idx) for d, idx in entries]  # max-heap via negation
        heapq.heapify(results)
        worst = -results[0][0]
        full = len(results) >= ef
        scanned = 0  # edges scanned, for benchmarks
        while candidates:
            dist, idx = pop(candidates)
            if dist > worst:
                break
            row = links[idx]
            scanned += len(row)
            row = [n for n in row if n not in visited]
            if not row:
                continue
            visited.update(row)
            for s, n in zip(vectors.take(row, 0).dot(query).tolist(), row):
                d = 1.0 - s
                if full:
                    # the beam's worst bound only tightens, so a node at or
                    # beyond it now can never enter the beam later
                    if d >= worst:
                        continue
                    replace(results, (-d, n))
                else:
                    push(results, (-d, n))
                    full = len(results) >= ef
                push(candidates, (d, n))
                worst = -results[0][0]
        self.distance_count += scanned
        return sorted((-nd, idx) for nd, idx in results)

    def _select_neighbors(
        self, dists: np.ndarray, near: np.ndarray, m: int, backfill_to: int | None = None
    ) -> list[int]:
        """Diversity heuristic over the candidates ``near`` at ``dists`` from
        the query: prefer one closer to the query than to every selected
        neighbor, up to ``m`` of them.  The closest unselected candidates
        then fill the slots left up to ``backfill_to`` (default ``m``), so a
        node never gets fewer than min(len(near), m) links.  The walk goes
        by selection: ``first[pos]`` is the number of the first selected
        neighbor that candidate pos conflicts with, or -1, marked from one
        product per selection with the candidates after it."""
        target = m if backfill_to is None else backfill_to
        order = np.lexsort((near, dists))  # by (distance, index)
        count, cands = order.size, near[order]
        vecs, thresholds = self._vectors.take(cands, 0), 1.0 - dists[order]
        first = np.full(count, -1)
        selected: list[int] = []
        pos = 0  # where the walk stands; it stops after the m-th selection
        while pos < count and len(selected) < m:
            pos += int(first[pos:].argmin())
            if first[pos] >= 0:  # every candidate left conflicts
                pos = count
                break
            selected.append(pos)
            pos += 1
            if len(selected) < m:
                tail = first[pos:]
                hit = vecs[pos:].dot(vecs[pos - 1]) > thresholds[pos:]
                tail[hit & (tail < 0)] = len(selected) - 1
        # selection j met the j before it; a discard met those up to its first conflict
        n = len(selected)
        self.distance_count += n * (n - 1) // 2 + int(first[:pos].sum()) + pos
        spare = np.delete(np.arange(count), selected)[: max(0, target - n)].tolist()
        return cands[selected + spare].tolist()

    def _prune(self, layer: _Layer, owners: list[int], idx: int, keep: int) -> None:
        """Cut the row of each of ``owners``, full before ``idx`` joins it, back
        to ``keep`` links with the diversity heuristic.  Rows are sorted by
        distance to their owner before one stacked product gives every gram
        matrix; only the greedy walk runs row by row."""
        grid = np.array([[owner, *layer.links[owner], idx] for owner in owners])
        cands = grid[:, 1:]  # column 0 of a row is its owner
        take = self._vectors.take
        dists = 1.0 - np.matmul(take(cands, 0), take(grid[:, :1], 0).transpose(0, 2, 1))[:, :, 0]
        order = np.lexsort((cands, dists))  # each row by (distance, index)
        walk = np.take_along_axis(cands, order, axis=1)
        walk_vecs = take(walk, 0)
        sims = np.matmul(walk_vecs, walk_vecs.transpose(0, 2, 1))
        thresholds = 1.0 - np.take_along_axis(dists, order, axis=1)
        n_rows, width = walk.shape
        bits = _bit_rows((sims > thresholds[:, :, None]).reshape(n_rows * width, width))
        self.distance_count += n_rows * width
        for r, (owner, row) in enumerate(zip(owners, walk.tolist())):
            kept, checks = _diversity_walk(bits[r * width : (r + 1) * width], keep)
            self.distance_count += checks
            layer.set_neighbors(owner, [self._nodes[row[pos]] for pos in kept])

    def insert(self, element_id: int, vector: np.ndarray) -> None:
        if element_id in self._id_to_idx:
            raise HnswError(f"duplicate id {element_id}")
        vector = self._check_vector(vector)
        level = int(math.floor(-math.log(self._rng.random()) * self.params.level_mult))

        idx = len(self._ids)
        if idx >= self._store.shape[0]:
            self._store = _grown(self._store, max(32, 2 * idx))
        self._store[idx] = vector
        self._ids.append(element_id)
        self._nodes.append(idx)
        self._levels.append(level)
        self._id_to_idx[element_id] = idx
        for lay in self._layers:
            lay.links.append([])

        old_max = self.max_level
        while self.max_level < level:
            self._layers.append(_Layer(self._m_max(len(self._layers)), idx + 1))

        if self._entry is None:
            self._entry = idx
            return

        # one row of distances to every stored node holds each layer's
        # construction candidates: its ef_construction nearest members
        dists = 1.0 - self._store[:idx].dot(vector)
        self.distance_count += idx
        top = min(level, old_max)
        levels = np.asarray(self._levels[:idx]) if top else None
        ef = self.params.ef_construction
        for l in range(top, -1, -1):
            near = np.flatnonzero(levels >= l) if l else np.arange(idx)
            if near.size > ef:
                near = near[np.argpartition(dists[near], ef - 1)[:ef]]
            lay = self._layers[l]
            neighbors = self._select_neighbors(
                dists[near], near, self.params.M, lay.m_max if l == 0 else None
            )
            lay.set_neighbors(idx, [self._nodes[n] for n in neighbors])
            full = []
            for nbr in neighbors:
                links = lay.links[nbr]
                if len(links) < lay.m_max:
                    links.append(idx)
                else:
                    full.append(nbr)
            if full:
                # evict several links at once so overflow pruning stays rare
                self._prune(lay, full, idx, lay.m_max - 2 if l == 0 else lay.m_max)
        if level > old_max:
            self._entry = idx

    def search(
        self, query: np.ndarray, k: int, ef_search: int | None = None
    ) -> list[tuple[int, float]]:
        """Top-k by descending cosine similarity."""
        if k < 1:
            raise HnswError(f"k must be >= 1, got {k}")
        if ef_search is not None and ef_search < 1:
            raise HnswError(f"ef_search must be >= 1, got {ef_search}")
        if self._entry is None:
            return []
        query = self._check_vector(query)
        ef = max(ef_search or self.params.ef_search, k)
        self.distance_count += 1
        entry_dist = 1.0 - float(self._vectors[self._entry] @ query)
        current = [(entry_dist, self._entry)]
        for l in range(self.max_level, 0, -1):
            current = self._search_layer(query, current, 1, l)[:1]
        results = self._search_layer(query, current, ef, 0)
        return [(self._ids[idx], 1.0 - dist) for dist, idx in results[:k]]

    def check_invariants(self) -> None:
        """Full structural sweep, whole-array per layer: each degree within
        [0, m_max], each neighbour a node of the layer, no edge twice."""
        levels = np.asarray(self._levels, dtype=np.int64)
        for l, lay in enumerate(self._layers):
            _check_rows(l, lay.m_max, levels, *lay.padded(np.flatnonzero(levels >= l)))

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
            adj, deg = lay.padded(np.flatnonzero(levels >= l))
            arrays[f"adj{l}"] = adj.astype("<i4")
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
        index._nodes = nodes = list(range(count))
        for l in range(n_layers):
            m_max = index._m_max(l)
            members = np.flatnonzero(levels >= l)
            adj, deg = arrays[f"adj{l}"], arrays[f"deg{l}"]
            if adj.shape != (members.size, m_max) or deg.shape != (members.size,):
                raise HnswError(f"layer {l} arrays do not match its members in {path}")
            _check_rows(l, m_max, levels, adj, deg)
            lay = _Layer(m_max, count)
            for idx, row, d in zip(members.tolist(), adj.tolist(), deg.tolist()):
                lay.links[idx] = [nodes[n] for n in row[:d]]
            index._layers.append(lay)
        if not (entry == -1 == count - 1 or 0 <= entry < count and levels[entry] == n_layers - 1):
            raise HnswError(f"entry point {entry} outside the top layer in {path}")
        index._levels = levels.tolist()
        index._ids = ids.tolist()
        index._store = vectors.astype(np.float64)
        index._id_to_idx = {eid: i for i, eid in enumerate(index._ids)}
        index._entry = None if count == 0 else entry
        return index


def _bit_rows(mask: np.ndarray) -> list[int]:
    """Each row of a 2-d boolean array as an int whose bit j is ``mask[row, j]``."""
    rows, cols = mask.shape
    packed = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(mask, axis=1, bitorder="little")
    words = packed.view("<u8").T.tolist()  # one list of row words per 64 columns
    out = words[0]
    for k, word in enumerate(words[1:], 1):
        out = [low | high << 64 * k for low, high in zip(out, word)]
    return out


def _diversity_walk(conflicts: list[int], keep: int) -> tuple[list[int], int]:
    """The diversity heuristic's greedy walk over candidates in (distance,
    index) order, as in `_select_neighbors` with ``m = keep``.  Bit s of
    ``conflicts[pos]`` is set when candidate s is closer to candidate pos
    than the query is.  Returns the kept positions and pair comparisons."""
    checks = n_selected = sel_mask = 0  # sel_mask has bit pos set once pos is selected
    selected: list[int] = []
    discarded: list[int] = []
    for pos, row in enumerate(conflicts):
        hit = row & sel_mask
        if hit:
            # selected neighbours are checked in order up to the first conflict
            checks += (sel_mask & ((hit & -hit) - 1)).bit_count() + 1
            discarded.append(pos)
        else:
            checks += n_selected
            n_selected += 1
            selected.append(pos)
            if n_selected == keep:
                break
            sel_mask |= 1 << pos
    return selected + discarded[: keep - n_selected], checks


def _check_rows(
    layer: int, m_max: int, levels: np.ndarray, adj: np.ndarray, deg: np.ndarray
) -> None:
    """Raise HnswError unless each degree of a layer's padded rows is within
    [0, m_max], each neighbor is a node of the layer, and no edge repeats."""
    if ((deg < 0) | (deg > m_max)).any():
        raise HnswError(f"degree outside [0, {m_max}] at layer {layer}")
    linked = np.arange(m_max) < deg[:, None]
    nbrs = adj[linked]
    if ((nbrs < 0) | (nbrs >= levels.size)).any() or (levels[nbrs] < layer).any():
        raise HnswError(f"edge to a node outside layer {layer}")
    # unlinked slots get distinct negatives so only real edges can repeat
    marked = np.sort(np.where(linked, adj, -1 - np.arange(m_max)), axis=1)
    if (marked[:, 1:] == marked[:, :-1]).any():
        raise HnswError(f"duplicate edges at layer {layer}")


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
    ids = sorted(vectors)
    return exact_top_k(ids, np.array([vectors[i] for i in ids]), query, k)


def exact_top_k(
    ids: list[int], matrix: np.ndarray, query: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """Exact top-k of ``matrix @ query`` for rows stacked once in ascending
    id order (row r holds ids[r]): a stable sort breaks ties toward the lower id."""
    if k < 1:
        raise HnswError(f"k must be >= 1, got {k}")
    if not ids:
        return []
    query = np.asarray(query, dtype=np.float64)
    if matrix.shape[1] != query.shape[0]:
        raise HnswError(
            f"query dim {query.shape[0]} does not match vectors dim {matrix.shape[1]}"
        )
    sims = matrix @ query
    order = np.argsort(-sims, kind="stable")[:k]
    return [(ids[i], float(sims[i])) for i in order.tolist()]

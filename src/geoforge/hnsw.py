"""Hierarchical navigable small-world index over unit vectors.

Built from scratch: layered proximity graph, diversity-preferring neighbor
selection, and for search a greedy descent then an ef-bounded beam at
layer 0.  An insert needs no search: one product gives its distance to
every stored node, and each layer's ``ef_construction`` nearest members in
that row are its exact construction candidates (Malkov & Yashunin,
arXiv:1603.09320, take them from a beam search instead).  One greedy walk,
`_diversity_walk`, applies their diversity heuristic both when a node picks
its neighbors and when a neighbor's overflowing row is cut back, and visits
only the candidates it keeps.  A new node's selection is backfilled with
the closest rejected candidates up to 2*M at layer 0 only; above layer 0,
and in an overflowing row, it keeps the heuristic's picks alone, as in
their Algorithm 1 without ``keepPrunedConnections`` and as hnswlib does.
A pruned row so has room for new back-links before it overflows again,
and the rows of an upper layer, with its few members, seldom overflow.
Selection gives the walk one product per kept neighbor, against the
candidates after it; overflowing rows are sorted and pruned together, one
stacked product giving every gram matrix.  The walk charges
``distance_count`` the pairs the heuristic compares one candidate at a
time.
Similarity is the dot product on unit vectors (distance = 1 - cosine).
A brute-force scan is kept alongside as the recall oracle.

Layer adjacency is one int32 array per layer, a row of ``m_max`` slots per
node padded with PAD past its degree, plus the degrees; a node whose top
layer is lower keeps an empty row.  Each node's top layer is one int32
array too.  All of them grow with the vector store.  Inserts append
back-links by degree and prune rows in place to each row's own degree,
`save` writes the members' rows and `load` scatters them back by node.

Search descends the upper layers greedily, one row per hop, then runs a
batched beam at layer 0: each step expands the up to 2*M closest
unexpanded beam members at once, as many as a layer-0 row holds links
(CAGRA, Ootomo et al., arXiv:2308.15136, likewise expands several per
step).  At one member per step this is Malkov & Yashunin's best-first
beam; at 2*M a search makes about five numpy-sized steps instead of a
hundred heap pops and thousands of one-at-a-time set lookups, and scores
somewhat more nodes.  Each step scores its new nodes with one
``take(...).dot(query)``, whose bits equal those of
``1.0 - vectors[rows] @ query`` over the same rows.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import compress
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
        for name, value in asdict(self).items():
            setattr(self, name, _int64(name, value))
        if self.M < 2:
            raise HnswError(f"M must be >= 2, got {self.M}")
        if self.ef_construction < self.M:
            raise HnswError("ef_construction must be >= M")
        if self.ef_search < 1:
            raise HnswError("ef_search must be >= 1")

    @property
    def level_mult(self) -> float:
        return 1.0 / math.log(self.M)


def _int64(name: str, value) -> int:
    """``value``, an int or numpy integer within int64 (no bool), as an int."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and -(2**63) <= int(value) < 2**63):
        return int(value)
    raise HnswError(f"{name} must be an int64 integer, got {value!r}")


class _Layer:
    """Adjacency for one layer: an int32 row of ``m_max`` slots per node,
    indexed by the node, PAD past the row's degree, and the degrees.  A node
    whose top layer is lower keeps an empty row.  The arrays are as long as
    the vector store and grow with it; a new layer's ``rows`` rows are
    empty."""

    __slots__ = ("adj", "deg")

    def __init__(self, rows: int, m_max: int):
        self.adj, self.deg = np.full((rows, m_max), PAD, np.int32), np.zeros(rows, np.int32)

    def links(self, node: int) -> list[int]:
        """The neighbors of ``node`` in row order; none when it is not a member."""
        return self.adj[node, : self.deg[node]].tolist()


class HnswIndex:
    def __init__(self, dim: int, params: HnswParams | None = None, seed: int = 0):
        self.dim = dim
        self.params = params or HnswParams()
        self._rng = np.random.default_rng(seed)
        self._store = np.empty((16, dim), dtype=np.float64)
        self._ids: list[int] = []
        self._levels = np.zeros(16, dtype=np.int32)  # each node's top layer
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

    def stored_vectors(self) -> tuple[list[int], np.ndarray]:
        """The ids in insertion order (ascending under `build`) and their
        stored rows as a read-only view; float32-rounded after `load`."""
        rows = self._vectors.view()
        rows.flags.writeable = False
        return list(self._ids), rows

    @property
    def max_level(self) -> int:
        return len(self._layers) - 1

    @property
    def layer0_links(self) -> int:
        """The links at layer 0, the sum of its degrees: the graph's density."""
        return int(self._layers[0].deg.sum()) if self._layers else 0

    @property
    def upper_links(self) -> int:
        """The links above layer 0, the sum of those layers' degrees."""
        return sum(int(lay.deg.sum()) for lay in self._layers[1:])

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

    def _descend(self, query: np.ndarray, node: int, dist: float) -> tuple[int, float]:
        """Greedy descent from the top layer to layer 1: from ``node``, at
        ``dist`` from the query, move to its nearest unvisited neighbor (the
        first in row order on a tie) while that is strictly closer.  Returns
        the node reached and its distance, layer 0's entry."""
        vectors = self._vectors
        scanned = 0  # edges scanned, for benchmarks
        for lay in reversed(self._layers[1:]):
            visited = {node}
            while True:
                row = lay.links(node)
                scanned += len(row)
                row = [n for n in row if n not in visited]
                if not row:
                    break
                visited.update(row)
                dists = 1.0 - vectors.take(row, 0).dot(query)
                best = int(dists.argmin())
                if not dists[best] < dist:
                    break
                node, dist = row[best], float(dists[best])
        self.distance_count += scanned
        return node, dist

    def _beam(
        self, query: np.ndarray, entry: int, entry_dist: float, ef: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ef-bounded beam at layer 0, kept as arrays of distances and
        indices in (distance, index) order.  Each step expands the up to 2*M
        closest unexpanded members at once, as many as a layer-0 row holds
        links: one fancy index gathers their rows, a per-search boolean array
        drops visited nodes (PAD slots count as visited), one product scores
        the new nodes in ascending index order, and the beam is cut back to
        ``ef`` by (distance, index).  The search ends when every member is
        expanded.  Returns the beam's distances and indices."""
        adj, deg = self._layers[0].adj, self._layers[0].deg
        width = adj.shape[1]
        vectors = self._vectors
        visited = np.zeros(len(vectors) + 1, dtype=bool)
        visited[[entry, PAD]] = True  # PAD reads the last slot
        expanded = np.zeros(len(vectors), dtype=bool)
        dist, idx = np.array([entry_dist]), np.array([entry])
        steps = []
        while True:
            step = idx[~expanded[idx]][:width]
            if not step.size:
                break
            expanded[step] = True
            steps.append(step)
            links = adj[step]
            links = links[~visited[links]]
            if not links.size:
                continue
            links.sort()
            fresh = np.empty(links.size, dtype=bool)
            fresh[0] = True
            np.not_equal(links[1:], links[:-1], out=fresh[1:])
            links = links[fresh]
            visited[links] = True
            dists = 1.0 - vectors.take(links, 0).dot(query)
            if dist.size == ef:  # only nodes at or within the worst member can enter
                near = dists <= dist[-1]
                links, dists = links[near], dists[near]
            dist, idx = np.concatenate((dist, dists)), np.concatenate((idx, links))
            order = np.lexsort((idx, dist))[:ef]
            dist, idx = dist[order], idx[order]
        self.distance_count += int(deg[np.concatenate(steps)].sum())  # edges scanned
        return dist, idx

    def _select_neighbors(
        self, dists: np.ndarray, near: np.ndarray, m: int, backfill_to: int
    ) -> np.ndarray:
        """Diversity heuristic over the candidates ``near`` at ``dists`` from
        the query: prefer one closer to the query than to every selected
        neighbor, up to ``m`` of them.  The closest unselected candidates
        then fill the slots left up to ``backfill_to``: the row's width at
        layer 0, so a node there never gets fewer than min(len(near), m)
        links, and 0 above it, which keeps the picks alone.  The walk asks
        for one product per selected neighbor but the m-th, with the
        candidates after it."""
        order = np.lexsort((near, dists))  # by (distance, index)
        cands = near[order]
        vecs, thresholds = self._vectors.take(cands, 0), 1.0 - dists[order]

        def conflicts(pos: int) -> int:
            hit = vecs[pos + 1 :].dot(vecs[pos]) > thresholds[pos + 1 :]
            return int.from_bytes(np.packbits(hit, bitorder="little"), "little") << pos + 1

        kept, checks = _diversity_walk(conflicts, cands.size, m, backfill_to)
        self.distance_count += checks
        return cands[kept]

    def _prune(self, lay: _Layer, rows: np.ndarray, idx: int, keep: int) -> None:
        """Cut the full row of each node in ``rows``, plus ``idx``, which
        joins it, back to the diversity heuristic's picks, at most ``keep``
        links with no backfill, so each row keeps its own degree and PAD
        past it.  Rows are sorted by distance to their owner before one
        stacked product gives every gram matrix, packed by column for the
        walk, which alone runs row by row."""
        grid = np.empty((rows.size, lay.adj.shape[1] + 2), dtype=np.intp)
        grid[:, 0], grid[:, 1:-1], grid[:, -1] = rows, lay.adj[rows], idx
        cands = grid[:, 1:]  # column 0 of a row is its owner
        take = self._vectors.take
        dists = 1.0 - np.matmul(take(cands, 0), take(grid[:, :1], 0).transpose(0, 2, 1))[:, :, 0]
        # each row by (distance, index): a row-index column beside the order
        order = np.arange(rows.size)[:, None], np.lexsort((cands, dists))
        walk, thresholds = cands[order], 1.0 - dists[order]
        walk_vecs = take(walk, 0)
        sims = np.matmul(walk_vecs, walk_vecs.transpose(0, 2, 1))
        n_rows, width = walk.shape
        # [r, j, q]: in row r, candidate q is closer to candidate j than to the
        # owner; bits j * width on of a row's int are then column j
        ruled_out = (sims > thresholds[:, :, None]).transpose(0, 2, 1)
        self.distance_count += n_rows * width
        pruned, degrees, m_max = [], [], lay.adj.shape[1]
        for row, grid_bits in zip(walk.tolist(), _bit_rows(ruled_out.reshape(n_rows, -1))):
            kept, checks = _diversity_walk(lambda pos: grid_bits >> pos * width, width, keep, 0)
            self.distance_count += checks
            pruned.append([row[pos] for pos in kept] + [PAD] * (m_max - len(kept)))
            degrees.append(len(kept))
        lay.adj[rows] = pruned
        lay.deg[rows] = degrees

    def insert(self, element_id: int, vector: np.ndarray) -> None:
        element_id = _int64("id", element_id)
        if element_id in self._id_to_idx:
            raise HnswError(f"duplicate id {element_id}")
        vector = self._check_vector(vector)
        level = int(math.floor(-math.log(self._rng.random()) * self.params.level_mult))

        idx = len(self._ids)
        if idx >= self._store.shape[0]:
            capacity = max(32, 2 * idx)
            self._store = _grown(self._store, capacity)
            self._levels = _grown(self._levels, capacity)
            for lay in self._layers:
                lay.adj, lay.deg = _grown(lay.adj, capacity, PAD), _grown(lay.deg, capacity)
        self._store[idx] = vector
        self._ids.append(element_id)
        self._levels[idx] = level
        self._id_to_idx[element_id] = idx
        old_max = self.max_level
        while self.max_level < level:
            self._layers.append(_Layer(self._store.shape[0], self._m_max(len(self._layers))))

        if self._entry is None:
            self._entry = idx
            return

        # one row of distances to every stored node holds each layer's
        # construction candidates: its ef_construction nearest members
        dists = 1.0 - self._store[:idx].dot(vector)
        self.distance_count += idx
        top = min(level, old_max)
        levels = self._levels[:idx]
        ef = self.params.ef_construction
        for l in range(top, -1, -1):
            near = np.flatnonzero(levels >= l) if l else np.arange(idx)
            if near.size > ef:
                near = near[np.argpartition(dists[near], ef - 1)[:ef]]
            lay = self._layers[l]
            m_max = lay.adj.shape[1]
            neighbors = self._select_neighbors(dists[near], near, self.params.M, m_max if l == 0 else 0)
            lay.adj[idx, : neighbors.size] = neighbors
            lay.deg[idx] = neighbors.size
            degrees = lay.deg[neighbors]
            if m_max in degrees.tolist():
                # evict several links at once so overflow pruning stays rare
                full = degrees == m_max
                self._prune(lay, neighbors[full], idx, m_max - 2 if l == 0 else m_max)
                neighbors, degrees = neighbors[~full], degrees[~full]
            # every other neighbor links back in its next free slot
            lay.adj[neighbors, degrees] = idx
            lay.deg[neighbors] = degrees + 1
        if level > old_max:
            self._entry = idx

    def search(
        self, query: np.ndarray, k: int, ef_search: int | None = None
    ) -> list[tuple[int, float]]:
        """Top-k by descending cosine similarity, ties toward the lower
        insertion index: a greedy descent to layer 0, then the batched beam of
        width ``max(ef_search, k)`` (``params.ef_search`` by default)."""
        if _int64("k", k) < 1:
            raise HnswError(f"k must be >= 1, got {k}")
        if ef_search is not None and _int64("ef_search", ef_search) < 1:
            raise HnswError(f"ef_search must be >= 1, got {ef_search}")
        if self._entry is None:
            return []
        query = self._check_vector(query)
        ef = max(ef_search or self.params.ef_search, k)
        self.distance_count += 1
        entry_dist = 1.0 - float(self._vectors[self._entry] @ query)
        dist, idx = self._beam(query, *self._descend(query, self._entry, entry_dist), ef)
        ids = self._ids
        return [(ids[i], 1.0 - d) for d, i in zip(dist[:k].tolist(), idx[:k].tolist())]

    def check_invariants(self) -> None:
        """Full structural sweep, whole-array per layer: each degree within
        [0, m_max] and 0 for a node outside the layer, PAD past it, each
        neighbour a node of the layer, no edge twice."""
        levels = self._levels[: len(self)]
        for l, lay in enumerate(self._layers):
            _check_rows(l, lay.adj.shape[1], levels, lay.adj[: levels.size], lay.deg[: levels.size])

    def save(self, path: str | Path) -> None:
        """Save ids, float32 vectors, each node's top layer, and per layer l
        the padded rows ``adj{l}`` and degrees ``deg{l}`` of its members."""
        levels = self._levels[: len(self)].astype("<i4", copy=False)
        arrays = {
            "ids": np.asarray(self._ids, dtype="<i8"),
            "vectors": self._vectors.astype("<f4"),
            "levels": levels,
        }
        for l, lay in enumerate(self._layers):
            members = np.flatnonzero(levels >= l)
            arrays[f"adj{l}"] = lay.adj[members].astype("<i4", copy=False)
            arrays[f"deg{l}"] = lay.deg[members].astype("<i4", copy=False)
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
                or len(set(ids.tolist())) != count):
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
            lay = _Layer(count, m_max)
            lay.adj[members], lay.deg[members] = adj, deg
            _check_rows(l, m_max, levels, lay.adj, lay.deg)
            index._layers.append(lay)
        if not (entry == -1 == count - 1 or 0 <= entry < count and levels[entry] == n_layers - 1):
            raise HnswError(f"entry point {entry} outside the top layer in {path}")
        index._levels = levels.astype(np.int32)
        index._ids = ids.tolist()
        index._store = vectors.astype(np.float64)
        index._id_to_idx = {eid: i for i, eid in enumerate(index._ids)}
        index._entry = None if count == 0 else entry
        return index


def _bit_rows(mask: np.ndarray) -> list[int]:
    """Each row of a 2-d boolean array as an int whose bit j is ``mask[row, j]``
    (0 for a row with no columns)."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    data, step = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[r * step : (r + 1) * step], "little") for r in range(len(packed))]


def _diversity_walk(
    conflicts: Callable[[int], int], count: int, m: int, target: int
) -> tuple[list[int], int]:
    """The diversity heuristic's greedy walk over ``count`` candidates in
    (distance, index) order.  Bit q of ``conflicts(pos)`` is set when a later
    candidate q is closer to candidate pos than to the query (bits at or
    below pos or from ``count`` on are ignored).  The walk takes the first
    candidate still free, rules out those its column marks, and stops at the
    ``m``-th taken, whose column it never asks for.  Returns the n taken
    positions followed by the first ``target - n`` others, and the pair
    comparisons made one at a time: each taken candidate meets those taken
    before it, and each ruled-out one the walk passes meets those taken up
    to the first that rules it out."""
    free, checks = (1 << count) - 1, 0
    taken: list[int] = []
    ruled: list[int] = []  # ruled[k]: the candidates taken[k] is the first to rule out
    while free:
        pos = (free & -free).bit_length() - 1
        taken.append(pos)
        free &= free - 1
        if len(taken) == m:  # the walk passes none of the candidates after its m-th
            checks -= sum(k * (mask >> pos).bit_count() for k, mask in enumerate(ruled, 1))
            break
        ruled.append(conflicts(pos) & free)
        free ^= ruled[-1]
        checks += len(taken) * ruled[-1].bit_count()
    n = len(taken)
    checks += n * (n - 1) // 2
    if not target:
        return taken, checks
    untaken = [True] * count
    for pos in taken:
        untaken[pos] = False
    others = list(compress(range(target), untaken))[: target - n]
    return taken + others, checks


def _check_rows(
    layer: int, m_max: int, levels: np.ndarray, adj: np.ndarray, deg: np.ndarray
) -> None:
    """Raise HnswError unless, in a layer's padded rows indexed by node, each
    degree is within [0, m_max] and 0 for a node outside the layer, every
    slot past it holds PAD, each neighbor is a node of the layer, and no
    edge repeats."""
    if ((deg < 0) | (deg > m_max)).any():
        raise HnswError(f"degree outside [0, {m_max}] at layer {layer}")
    if deg[levels < layer].any():
        raise HnswError(f"link from a node outside layer {layer}")
    linked = np.arange(m_max) < deg[:, None]
    if (adj[~linked] != PAD).any():
        raise HnswError(f"link past a row's degree at layer {layer}")
    nbrs = adj[linked]
    if ((nbrs < 0) | (nbrs >= levels.size)).any() or (levels[nbrs] < layer).any():
        raise HnswError(f"edge to a node outside layer {layer}")
    # unlinked slots get distinct negatives so only real edges can repeat
    marked = np.sort(np.where(linked, adj, -1 - np.arange(m_max)), axis=1)
    if (marked[:, 1:] == marked[:, :-1]).any():
        raise HnswError(f"duplicate edges at layer {layer}")


def _grown(a: np.ndarray, rows: int, fill: int = 0) -> np.ndarray:
    """``a`` with rows of ``fill`` appended up to ``rows``."""
    return np.concatenate([a, np.full((rows - len(a), *a.shape[1:]), fill, a.dtype)])


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
    if _int64("k", k) < 1:
        raise HnswError(f"k must be >= 1, got {k}")
    if not ids:
        return []
    if matrix.ndim != 2 or len(matrix) != len(ids):
        raise HnswError(f"matrix of shape {matrix.shape} is not {len(ids)} stacked rows")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != matrix.shape[1:]:
        raise HnswError(f"query of shape {query.shape} does not match vectors of dim {matrix.shape[1]}")
    sims = matrix @ query
    order = np.argsort(-sims, kind="stable")[:k]
    return [(ids[i], float(sims[i])) for i in order.tolist()]

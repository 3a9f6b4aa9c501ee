"""HNSW index: exact-search agreement with the brute-force oracle,
structural invariants, construction equivalence, and persistence."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from geoforge import hnsw
from geoforge.core import load_arrays, save_arrays
from geoforge.hnsw import (
    INDEX_MAGIC,
    INDEX_META,
    PAD,
    HnswError,
    HnswIndex,
    HnswParams,
    _bit_rows,
    _diversity_walk,
    brute_force_search,
    build,
    exact_top_k,
)

from _oracles import (
    diversity_select,
    diversity_walk_reference,
    hnsw_reference_links,
    hnsw_reference_search,
    sequential_reference_search,
    unit_rows,
)


@pytest.fixture(scope="module")
def corpus_300():
    rng = np.random.default_rng(51)
    vecs = unit_rows(rng, 300, 16)
    vectors = {i: vecs[i] for i in range(len(vecs))}
    queries = unit_rows(rng, 30, 16)
    return vectors, queries


@pytest.fixture(scope="module")
def clustered_2000():
    """A 2,000-node index over 16 tight 48-d clusters, and 200 queries drawn
    around the same centres."""
    rng = np.random.default_rng(17)
    centres = unit_rows(rng, 16, 48)

    def around(n: int) -> np.ndarray:
        rows = centres[rng.integers(0, 16, n)] + 0.08 * rng.standard_normal((n, 48))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    index = build(dict(enumerate(around(2000))), seed=5)
    return index, around(200)


def _recall(index: HnswIndex, vectors, queries, k=10, ef_search=None, search=None) -> float:
    """Mean recall@k of ``search`` (default ``index.search``) against brute force."""
    search = search or index.search
    hits = []
    for query in queries:
        exact = {i for i, _ in brute_force_search(vectors, query, k)}
        approx = {i for i, _ in search(query, k, ef_search=ef_search)}
        hits.append(len(exact & approx) / len(exact))
    return float(np.mean(hits))


def _link_rows(index: HnswIndex) -> list[list[list[int]]]:
    """Every node's link row at every layer, [] where it is not a member."""
    return [[lay.links(n) for n in range(len(index))] for lay in index._layers]


class TestParams:
    def test_validation(self):
        with pytest.raises(HnswError, match="M must be"):
            HnswParams(M=1)
        with pytest.raises(HnswError, match="ef_construction"):
            HnswParams(M=16, ef_construction=8)
        with pytest.raises(HnswError, match="ef_search"):
            HnswParams(ef_search=0)

    @pytest.mark.parametrize("field, value", [
        ("M", 2.5), ("M", True), ("ef_construction", "200"), ("ef_search", float("nan")),
        ("ef_search", 2**63),
    ])
    def test_sizes_are_int64_integers(self, field, value):
        with pytest.raises(HnswError, match=f"^{field} must be an int64 integer, got "):
            HnswParams(**{field: value})

    def test_numpy_integer_sizes_save_as_ints(self, tmp_path):
        index = HnswIndex(dim=2, params=HnswParams(np.int64(4), np.int32(8), np.uint8(3)))
        index.insert(1, np.array([1.0, 0.0]))
        index.save(tmp_path / "index.bin")
        params = HnswIndex.load(tmp_path / "index.bin").params
        assert params == HnswParams(4, 8, 3) and type(params.M) is int


class TestSearch:
    def test_empty_index(self):
        index = HnswIndex(dim=4)
        assert index.search(np.array([1.0, 0.0, 0.0, 0.0]), 5) == []

    def test_single_element(self):
        index = HnswIndex(dim=2)
        index.insert(7, np.array([1.0, 0.0]))
        assert index.search(np.array([1.0, 0.0]), 3) == [(7, 1.0)]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, corpus_300, k):
        vectors, queries = corpus_300
        for index in (HnswIndex(dim=16), build(vectors, HnswParams(ef_search=8), seed=1)):
            with pytest.raises(HnswError, match=f"k must be >= 1, got {k}"):
                index.search(queries[0], k)

    @pytest.mark.parametrize("ef_search", [0, -5])
    def test_ef_search_below_one_rejected(self, corpus_300, ef_search):
        vectors, queries = corpus_300
        for index in (HnswIndex(dim=16), build(vectors, HnswParams(ef_search=8), seed=1)):
            with pytest.raises(HnswError, match=f"ef_search must be >= 1, got {ef_search}"):
                index.search(queries[0], 2, ef_search=ef_search)

    @pytest.mark.parametrize("k, ef_search", [(2.5, None), (True, None), (2, 2.5), (2, False)])
    def test_k_and_ef_search_are_integers(self, corpus_300, k, ef_search):
        vectors, queries = corpus_300
        for index in (HnswIndex(dim=16), build(vectors, HnswParams(ef_search=8), seed=1)):
            with pytest.raises(HnswError, match=r"^(k|ef_search) must be an int64 integer"):
                index.search(queries[0], k, ef_search=ef_search)

    @pytest.mark.parametrize("element_id", [1.5, "a", True, np.bool_(True), 2**70, -(2**63) - 1,
                                            np.uint64(2**64 - 1)])
    def test_ids_are_int64_integers(self, element_id):
        index = HnswIndex(dim=2)
        with pytest.raises(HnswError, match=r"^id must be an int64 integer, got "):
            index.insert(element_id, np.array([1.0, 0.0]))
        assert len(index) == 0

    def test_numpy_integer_ids_are_kept_as_ints(self, tmp_path):
        index = HnswIndex(dim=2)
        for element_id in (np.int64(2**63 - 1), np.int32(-3), -(2**63)):
            index.insert(element_id, np.array([1.0, 0.0]))
        index.save(tmp_path / "index.bin")
        for ids in (index.stored_vectors()[0], HnswIndex.load(tmp_path / "index.bin").stored_vectors()[0]):
            assert ids == [2**63 - 1, -3, -(2**63)] and {type(i) for i in ids} == {int}
        with pytest.raises(HnswError, match="duplicate id -3"):
            index.insert(-3, np.array([0.0, 1.0]))

    def test_non_unit_vector_rejected(self):
        index = HnswIndex(dim=2)
        with pytest.raises(HnswError, match="unit norm"):
            index.insert(1, np.array([2.0, 0.0]))

    def test_dim_mismatch(self):
        index = HnswIndex(dim=2)
        with pytest.raises(HnswError, match="dim"):
            index.insert(1, np.ones(3) / np.sqrt(3))

    def test_exhaustive_ef_agrees_with_brute_force(self, corpus_300):
        vectors, queries = corpus_300
        index = build(vectors, seed=1)
        assert _recall(index, vectors, queries, ef_search=len(vectors)) == 1.0

    @pytest.mark.parametrize("ef_search", [1, 10, 100])
    def test_search_equals_reference_bit_for_bit(self, clustered_2000, ef_search):
        index, queries = clustered_2000
        for query in queries:
            before = index.distance_count
            found = index.search(query, 10, ef_search=ef_search)
            expected, count = hnsw_reference_search(index, query, 10, ef_search)
            assert [(i, s.hex()) for i, s in found] == [(i, s.hex()) for i, s in expected]
            assert index.distance_count - before == count

    @pytest.mark.parametrize("dim", [4, 48, 128])
    def test_hop_distances_equal_vector_distances_bit_for_bit(self, dim):
        """A beam step gathers up to 2M * 2M = 1,024 new rows at M=16 by
        their int32 indices, in ascending order, takes and dots them, then
        subtracts from 1.0 as an array; the upper-layer descent does the
        same over a list of up to M unvisited links."""
        rng = np.random.default_rng(dim)
        store = np.zeros((1200, dim))
        store[:1100] = unit_rows(rng, 1100, dim)
        vectors = store[:1100]
        for n in [*range(1, 66), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1000, 1023, 1024]:
            rows = np.sort(rng.choice(1100, n, replace=False)).astype(np.int32)
            query = unit_rows(rng, 1, dim)[0]
            step = 1.0 - vectors.take(rows, 0).dot(query)
            hop = 1.0 - vectors.take(rows.tolist(), 0).dot(query)
            reference = 1.0 - vectors[rows.tolist()] @ query
            assert [d.hex() for d in step.tolist()] == [d.hex() for d in reference.tolist()]
            assert [d.hex() for d in hop.tolist()] == [d.hex() for d in reference.tolist()]

    @pytest.mark.parametrize("ef_search", [10, 50, 100])
    def test_batched_beam_recall_at_least_sequential(self, clustered_2000, corpus_300, ef_search):
        """Expanding up to 2M beam members per step never loses mean recall@10
        to the best-first beam that expands one."""
        index, queries = clustered_2000
        ids, rows = index.stored_vectors()
        vectors, corpus_queries = corpus_300
        for index, vectors, queries in [(index, dict(zip(ids, rows)), queries),
                                        (build(vectors, seed=1), vectors, corpus_queries)]:
            def sequential(query, k, ef_search):
                return sequential_reference_search(index, query, k, ef_search)[0]
            assert (_recall(index, vectors, queries, ef_search=ef_search)
                    >= _recall(index, vectors, queries, ef_search=ef_search, search=sequential))

    @pytest.mark.parametrize("ef_search", [10, 40])
    def test_ties_keep_the_lower_index(self, ef_search):
        """Six directions, each stored 40 times with ids interleaved: the
        query's 40 copies tie at distance 0, which every product gives
        exactly, so the ef cut and the top-k keep the lowest ids among them,
        as `exact_top_k` does."""
        directions = np.zeros((6, 8))
        directions[:, 0] = np.cos(0.1 * np.arange(6))
        directions[np.arange(6), 1 + np.arange(6)] = np.sin(0.1 * np.arange(6))
        vectors = {i: directions[i % 6] for i in range(240)}
        index = build(vectors, HnswParams(M=8, ef_construction=40), seed=3)
        query = np.eye(8)[0]
        expected = brute_force_search(vectors, query, 10)
        assert [i for i, _ in expected] == list(range(0, 60, 6))
        assert index.search(query, 10, ef_search=ef_search) == expected

    def test_results_sorted_by_similarity(self, corpus_300):
        vectors, queries = corpus_300
        index = build(vectors, seed=1)
        for query in queries[:5]:
            sims = [sim for _, sim in index.search(query, 10)]
            assert sims == sorted(sims, reverse=True)

    def test_recall_non_decreasing_in_ef(self, corpus_300):
        vectors, queries = corpus_300
        index = build(vectors, seed=1)
        recalls = [
            _recall(index, vectors, queries, ef_search=ef) for ef in (5, 20, 100, 300)
        ]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))


class TestConstruction:
    def test_sequential_inserts_equivalent_to_build(self):
        rng = np.random.default_rng(61)
        vecs = unit_rows(rng, 1000, 16)
        vectors = {i: vecs[i] for i in range(len(vecs))}
        queries = unit_rows(rng, 30, 16)
        batch = build(vectors, seed=9)
        incremental = HnswIndex(dim=16, seed=9)
        for i in sorted(vectors):
            incremental.insert(i, vectors[i])
        recall_batch = _recall(batch, vectors, queries)
        recall_incremental = _recall(incremental, vectors, queries)
        assert abs(recall_batch - recall_incremental) < 0.02

    def test_invariants_hold(self, corpus_300):
        vectors, _ = corpus_300
        index = build(vectors, seed=1)
        index.check_invariants()

    def test_deterministic(self, corpus_300):
        vectors, queries = corpus_300
        a = build(vectors, seed=4)
        b = build(vectors, seed=4)
        for query in queries[:5]:
            assert a.search(query, 10) == b.search(query, 10)

    @staticmethod
    def _selection_inputs(kind: str) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(71)
        if kind in ("random", "few", "single"):
            rows, query = unit_rows(rng, 150, 8), unit_rows(rng, 1, 8)[0]
            return rows[: {"random": 150, "few": 5, "single": 1}[kind]], query
        # 15 tight clusters of 10 on mutually orthogonal directions, each
        # farther from the query than the last: one member per cluster is
        # kept, so the walk reads all 150 and the kept positions pass 64
        angles = 0.6 + 0.04 * np.arange(15)
        centers = np.zeros((15, 16))
        centers[:, 0] = np.cos(angles)
        centers[np.arange(15), 1 + np.arange(15)] = np.sin(angles)
        rows = np.repeat(centers, 10, axis=0) + 1e-4 * rng.standard_normal((150, 16))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        # "last": the first 14 clusters and one row of the 15th, which is
        # then the last candidate and the 15th selection
        return rows[: 141 if kind == "last" else 150], np.eye(16)[0]

    @pytest.mark.parametrize(
        "kind, m, backfill_to",
        [("random", 4, 4), ("random", 30, 30), ("random", 16, 32), ("random", 16, 0),
         ("clusters", 30, 30), ("clusters", 16, 32), ("clusters", 16, 0),
         ("few", 16, 16), ("few", 16, 32), ("single", 4, 4), ("single", 4, 8),
         ("last", 15, 15), ("last", 15, 32), ("last", 15, 0)],
    )
    def test_neighbor_selection_matches_pairwise_reference(self, kind, m, backfill_to):
        vectors, query = self._selection_inputs(kind)
        index = build(dict(enumerate(vectors)), seed=1)
        candidates = [(1.0 - float(index._vectors[i] @ query), i) for i in range(len(vectors))]
        dists, near = (np.array(column) for column in zip(*candidates))
        before = index.distance_count
        selected = index._select_neighbors(dists, near, m, backfill_to=backfill_to).tolist()
        expected, comparisons = diversity_select(index._vectors, candidates, m, backfill_to)
        assert selected == expected
        assert index.distance_count - before == comparisons
        if kind == "last":
            assert selected[m - 1] == len(vectors) - 1

    @pytest.mark.parametrize("M, ef_construction, dim", [(3, 6, 12), (4, 400, 12), (16, 200, 48)])
    def test_build_matches_pairwise_reference(self, M, ef_construction, dim):
        """Every link row and the dot-product count equal a build made one
        pair at a time.  Clusters of 30 keep rows overflowing; with ef 400
        every layer has no more than ef members.  M 16 and ef 200 are the
        `HnswParams` defaults the pipeline builds with, at its 48 dims."""
        rng = np.random.default_rng(81)
        centers = unit_rows(rng, 10, dim)
        rows = np.repeat(centers, 30, axis=0) + 0.15 * rng.standard_normal((300, dim))
        vectors = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        index = build(dict(enumerate(vectors)), HnswParams(M, ef_construction, 10), seed=2)
        links, count, prunes = hnsw_reference_links(
            index._vectors, index._levels[: len(index)], M, ef_construction
        )
        assert _link_rows(index) == links
        assert index.distance_count == count
        assert prunes > 100 and index.max_level >= 2

    @staticmethod
    def _furthest_prune_picks(monkeypatch) -> list[int]:
        """Wrap `HnswIndex._prune` and `hnsw._diversity_walk` to note, for
        each walk a prune makes, the furthest position it keeps.  Upper-layer
        selections walk with target 0 too, so the target cannot tell them
        apart."""
        furthest: list[int] = []
        pruning: list[bool] = []
        walk, prune = hnsw._diversity_walk, HnswIndex._prune

        def noting(conflicts, count, m, target):
            kept, checks = walk(conflicts, count, m, target)
            if pruning:
                furthest.append(max(kept))
            return kept, checks

        def noting_prune(self, *args):
            pruning.append(True)
            try:
                prune(self, *args)
            finally:
                pruning.pop()

        monkeypatch.setattr(hnsw, "_diversity_walk", noting)
        monkeypatch.setattr(HnswIndex, "_prune", noting_prune)
        return furthest

    def test_build_with_wide_rows_matches_pairwise_reference(self, monkeypatch):
        """At M=32 a layer-0 row holds 64 links, so a pruned row is 65 wide
        and `_bit_rows` packs its conflict masks into two 64-bit words; some
        prune walk keeps position 64, which the second word decides.  Only
        layer 0 can overflow here: layer 1 has too few members to fill a row
        of 32."""
        furthest = self._furthest_prune_picks(monkeypatch)
        rng = np.random.default_rng(81)
        centers = unit_rows(rng, 5, 12)
        rows = np.repeat(centers, 30, axis=0) + 0.15 * rng.standard_normal((150, 12))
        vectors = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        index = build(dict(enumerate(vectors)), HnswParams(32, 80, 10), seed=2)
        levels = index._levels[: len(index)]
        links, count, prunes = hnsw_reference_links(index._vectors, levels, 32, 80)
        assert _link_rows(index) == links
        assert index.distance_count == count
        assert prunes > 100 and len(furthest) == prunes
        assert max(furthest) >= 64
        assert sum(level >= 1 for level in levels) <= 33

    def test_build_with_three_word_rows_matches_pairwise_reference(self, monkeypatch):
        """At M=64 a pruned layer-0 row is 129 wide, so its conflict masks
        span three 64-bit words, and some prune walks keep past position 64:
        bits 64-127 decide their later discards."""
        furthest = self._furthest_prune_picks(monkeypatch)
        rng = np.random.default_rng(81)
        rows = unit_rows(rng, 1, 4) + rng.standard_normal((150, 4))
        vectors = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        index = build(dict(enumerate(vectors)), HnswParams(64, 150, 10), seed=2)
        links, count, prunes = hnsw_reference_links(
            index._vectors, index._levels[: len(index)], 64, 150
        )
        assert _link_rows(index) == links
        assert index.distance_count == count
        assert prunes > 100 and len(furthest) == prunes
        assert max(furthest) >= 64

    # a row with no columns packs to 0: the last candidate a selection
    # takes has no candidates after it
    @pytest.mark.parametrize("shape", [(20, 129), (3, 0)])
    def test_bit_rows_packs_every_word(self, shape):
        mask = np.random.default_rng(5).random(shape) < 0.5
        expected = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in mask]
        assert _bit_rows(mask) == expected

    @pytest.mark.parametrize("count", [1, 33, 65, 129])
    def test_diversity_walk_matches_one_at_a_time_reference(self, count):
        """Seeded random conflicts, asymmetric and with bits at or below each
        column's own position set too, against the one-at-a-time walk over
        the same booleans: the positions, the pairs met, and the columns the
        walk asks for, which are those of the taken candidates but the m-th.
        Target 0, as a prune walks, returns the taken positions alone."""
        rng = np.random.default_rng(count)
        seen = set()
        for density in (0.0, 0.03, 0.1, 0.3, 0.7):
            rules = rng.random((count, count)) < density
            columns = [sum(1 << q for q in np.flatnonzero(row).tolist()) for row in rules]
            for m, target in [(1, 1), (2, 2), (2, count + 5), (4, 8), (16, 32),
                              (count, count), (count + 3, count + 7), (4, 0), (count, 0)]:
                asked: list[int] = []
                walk = _diversity_walk(lambda pos: asked.append(pos) or columns[pos], count, m, target)
                kept, spare, comparisons = diversity_walk_reference(rules, m, target)
                assert walk == (kept + spare, comparisons)
                assert asked == (kept[:-1] if len(kept) == m else kept)
                if len(kept) == m and kept[-1] < count - 1:
                    seen.add("stopped before the last candidate")
                if count - 1 in asked:
                    seen.add("took the last candidate and asked for its empty tail")
        assert "took the last candidate and asked for its empty tail" in seen
        if count > 1:
            assert "stopped before the last candidate" in seen

    def test_prune_keeps_the_heuristics_picks_alone(self, tmp_path):
        """`_prune` cuts full layer-0 rows, plus a node that joins them, back
        to `diversity_select`'s picks with no backfill: each row its own
        degree, PAD past it.  Rows of varied degree then save and load back
        to the same bytes."""
        rng = np.random.default_rng(91)
        centers = unit_rows(rng, 4, 12)
        rows = np.repeat(centers, 50, axis=0) + 0.15 * rng.standard_normal((200, 12))
        vectors = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        index = build(dict(enumerate(vectors)), HnswParams(M=4, ef_construction=40), seed=3)
        lay, m_max = index._layers[0], index._m_max(0)
        full = np.flatnonzero(lay.deg == m_max)[:12]
        joiner = min(set(range(len(index))) - set(full.tolist()) - set(lay.adj[full].ravel().tolist()))
        expected, count = {}, 0
        for row in full.tolist():
            cands = lay.links(row) + [joiner]
            scored = [(1.0 - float(index._vectors[j] @ index._vectors[row]), j) for j in cands]
            expected[row], comparisons = diversity_select(index._vectors, scored, m_max - 2, 0)
            count += len(cands) + comparisons
        before = index.distance_count
        index._prune(lay, full, joiner, m_max - 2)
        assert {row: lay.links(row) for row in full.tolist()} == expected
        assert lay.deg[full].tolist() == [len(links) for links in expected.values()]
        assert (lay.adj[full] == PAD).sum() == full.size * m_max - lay.deg[full].sum()
        assert index.distance_count - before == count
        # degrees vary, so some row keeps fewer than the old backfill's m_max - 2
        assert full.size == 12 and len(set(lay.deg[full].tolist())) > 1
        index.check_invariants()
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        index.save(first)
        HnswIndex.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_distance_count_increases(self, corpus_300):
        vectors, queries = corpus_300
        index = build(vectors, seed=1)
        before = index.distance_count
        index.search(queries[0], 10)
        assert index.distance_count > before


class TestPersistence:
    def test_roundtrip_identical_results(self, corpus_300, tmp_path):
        vectors, queries = corpus_300
        index = build(vectors, seed=1)
        path = tmp_path / "index.bin"
        index.save(path)
        loaded = HnswIndex.load(path)
        loaded.check_invariants()
        assert len(loaded) == len(index)
        for query in queries:
            got = loaded.search(query, 10)
            want = index.search(query, 10)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert np.allclose(
                [s for _, s in got], [s for _, s in want], atol=1e-6
            )

    def test_loaded_index_takes_inserts(self, corpus_300, tmp_path):
        """Inserts into a loaded index grow its link arrays like a built
        one's.  The first 200 rows are float32-exact, so the loaded rows are
        the built ones and every link equals a build made one pair at a time."""
        vectors, queries = corpus_300
        exact = {i: vectors[i].astype(np.float32).astype(np.float64) for i in range(200)}
        build(exact, seed=1).save(tmp_path / "index.bin")
        loaded = HnswIndex.load(tmp_path / "index.bin")
        for i in range(200, 300):
            loaded.insert(i, vectors[i])
        loaded.check_invariants()
        M, ef_construction = loaded.params.M, loaded.params.ef_construction
        links, _, _ = hnsw_reference_links(
            loaded._vectors, loaded._levels[: len(loaded)], M, ef_construction
        )
        assert _link_rows(loaded) == links
        assert loaded.max_level >= 1
        ids, rows = loaded.stored_vectors()
        assert _recall(loaded, dict(zip(ids, rows)), queries, ef_search=len(vectors)) == 1.0

    def test_save_load_save_identical_bytes(self, corpus_300, tmp_path):
        """A re-save writes the bytes it loaded."""
        index = build(corpus_300[0], seed=1)
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        index.save(first)
        HnswIndex.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_load_save_identical_bytes_at_dim_8(self, tmp_path):
        """The loader keeps each float32 row as read. Renormalised rows of
        dimension 8 often fail to round back to the row they came from."""
        vecs = unit_rows(np.random.default_rng(52), 500, 8)
        index = build(dict(enumerate(vecs)), HnswParams(M=4, ef_construction=16), seed=1)
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        index.save(first)
        HnswIndex.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_build_save_load_leave_numpy_ma_unimported(self, tmp_path):
        """`np.unique` imports numpy.ma on its first call, about 1.3 MB of
        resident memory that a pipeline pass has no other use for."""
        script = textwrap.dedent(f"""
            import sys
            import numpy as np
            from geoforge.hnsw import HnswIndex, build
            rows = np.random.default_rng(0).standard_normal((50, 8))
            build(dict(enumerate(rows / np.linalg.norm(rows, axis=1, keepdims=True))),
                  seed=1).save({str(tmp_path / "index.bin")!r})
            HnswIndex.load({str(tmp_path / "index.bin")!r}).check_invariants()
            print("numpy.ma" in sys.modules)
        """)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(b"NOTINDEX" + b"\x00" * 64)
        with pytest.raises(HnswError, match="magic"):
            HnswIndex.load(path)

    def test_truncated(self, corpus_300, tmp_path):
        vectors, _ = corpus_300
        index = build(vectors, seed=1)
        path = tmp_path / "index.bin"
        index.save(path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(HnswError, match="truncated"):
            HnswIndex.load(path)


class TestBoundary:
    """Bad vectors and damaged files raise HnswError and nothing else."""

    @pytest.fixture
    def small(self, tmp_path):
        rng = np.random.default_rng(5)
        vecs = unit_rows(rng, 6, 8)
        index = build({i: vecs[i] for i in range(6)}, HnswParams(M=2, ef_construction=4), seed=3)
        path = tmp_path / "index.bin"
        index.save(path)
        return index, path

    def test_nan_insert_rejected(self, small):
        index, _ = small
        bad = np.full(8, np.nan)
        with pytest.raises(HnswError, match="unit norm"):
            index.insert(99, bad)
        half = np.zeros(8)
        half[0], half[1] = 1.0, np.nan
        with pytest.raises(HnswError, match="unit norm"):
            index.insert(99, half)
        assert len(index) == 6
        index.check_invariants()

    def test_nan_and_inf_search_rejected(self, small):
        index, _ = small
        for value in (np.nan, np.inf):
            query = np.zeros(8)
            query[3] = value
            with pytest.raises(HnswError, match="unit norm"):
                index.search(query, 3)

    def test_cut_at_every_byte(self, small):
        _, path = small
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(HnswError):
                HnswIndex.load(path)
        path.write_bytes(data)
        assert len(HnswIndex.load(path)) == 6

    def test_bit_flip_anywhere(self, small):
        """Every single-bit flip raises HnswError: the magic no longer
        matches, or the CRC-32 trailer does not."""
        _, path = small
        data = path.read_bytes()
        for pos in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[pos] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                with pytest.raises(HnswError):
                    HnswIndex.load(path)

    @staticmethod
    def _arrays(path):
        meta, arrays = load_arrays(path, INDEX_MAGIC, HnswError, INDEX_META)
        return meta, {name: a.copy() for name, a in arrays.items()}

    def test_entry_point_out_of_range(self, small):
        _, path = small
        meta, arrays = self._arrays(path)
        meta["entry"] = 6
        save_arrays(path, INDEX_MAGIC, meta, arrays)
        with pytest.raises(HnswError, match="entry point"):
            HnswIndex.load(path)

    def test_entry_point_below_top_layer(self, small):
        _, path = small
        meta, arrays = self._arrays(path)
        levels = arrays["levels"]
        meta["entry"] = int(np.flatnonzero(levels < levels.max())[0])
        save_arrays(path, INDEX_MAGIC, meta, arrays)
        with pytest.raises(HnswError, match="entry point"):
            HnswIndex.load(path)

    def test_duplicate_ids(self, small):
        _, path = small
        meta, arrays = self._arrays(path)
        arrays["ids"][1] = arrays["ids"][0]
        save_arrays(path, INDEX_MAGIC, meta, arrays)
        with pytest.raises(HnswError, match="ids repeat"):
            HnswIndex.load(path)

    @pytest.mark.parametrize("damage, match", [("degree", "degree"), ("repeat", "duplicate edges"),
                                               ("past", "past a row's degree")])
    def test_damaged_layer_rows(self, small, damage, match):
        """A search gathers whole rows, so a link in a slot past the row's
        degree is damage too."""
        _, path = small
        meta, arrays = self._arrays(path)
        adj, deg = arrays["adj0"], arrays["deg0"]
        node = int(np.flatnonzero(deg >= 2)[0])
        if damage == "degree":
            deg[node] = adj.shape[1] + 1
        elif damage == "repeat":
            adj[node, 1] = adj[node, 0]
        else:
            deg[node] -= 1
        save_arrays(path, INDEX_MAGIC, meta, arrays)
        with pytest.raises(HnswError, match=match):
            HnswIndex.load(path)

    @pytest.mark.parametrize("degree, match", [(1, "from a node outside layer 1"),
                                               (0, "past a row's degree")])
    def test_link_in_a_non_members_row(self, small, degree, match):
        """A node whose top layer is 0 keeps an empty row at layer 1."""
        index, _ = small
        levels = index._levels[: len(index)].tolist()
        outside = levels.index(0)
        lay = index._layers[1]
        lay.adj[outside, 0], lay.deg[outside] = levels.index(index.max_level), degree
        with pytest.raises(HnswError, match=match):
            index.check_invariants()

    def test_neighbour_id_out_of_range(self, small):
        _, path = small
        meta, arrays = self._arrays(path)
        arrays["adj0"][0, 0] = 6
        save_arrays(path, INDEX_MAGIC, meta, arrays)
        with pytest.raises(HnswError, match="outside layer"):
            HnswIndex.load(path)

    def test_node_id_out_of_range(self, small):
        _, path = small
        meta, arrays = self._arrays(path)
        arrays["levels"][0] = 1 << 30
        save_arrays(path, INDEX_MAGIC, meta, arrays)
        with pytest.raises(HnswError, match="out of range"):
            HnswIndex.load(path)


class TestBruteForce:
    def test_ties_break_to_lower_id(self):
        v = np.array([1.0, 0.0])
        vectors = {5: v, 2: v, 9: v}
        assert [i for i, _ in brute_force_search(vectors, v, 3)] == [2, 5, 9]

    def test_empty(self):
        assert brute_force_search({}, np.array([1.0]), 5) == []

    def test_dim_mismatch(self):
        with pytest.raises(HnswError, match="dim"):
            brute_force_search({1: np.ones(3)}, np.ones(2), 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        v = np.array([1.0, 0.0])
        for vectors in ({}, {1: v, 2: v}):
            with pytest.raises(HnswError, match=f"k must be >= 1, got {k}"):
                brute_force_search(vectors, v, k)

    @pytest.mark.parametrize("matrix", [np.eye(4), np.ones(4), np.ones((1, 4, 1))])
    def test_exact_top_k_needs_one_row_per_id(self, matrix):
        with pytest.raises(HnswError, match=r"is not 1 stacked rows"):
            exact_top_k([1], matrix, np.array([1.0, 0.0, 0.0, 0.0]), 3)

    @pytest.mark.parametrize("query", [np.ones((4, 1)), np.float64(1.0)])
    def test_exact_top_k_needs_a_vector_query(self, query):
        with pytest.raises(HnswError, match=r"query of shape .* does not match vectors of dim 4"):
            exact_top_k([1, 2], np.eye(4)[:2], query, 1)

    def test_exact_top_k_k_is_an_integer(self):
        with pytest.raises(HnswError, match=r"^k must be an int64 integer, got 2\.5$"):
            exact_top_k([1], np.eye(2)[:1], np.array([1.0, 0.0]), 2.5)

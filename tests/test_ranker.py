"""Two-tower ranker: tower math, margin loss, training, and checkpoint IO."""

from __future__ import annotations

import dataclasses
import functools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoforge import curation, synth
from geoforge.core import Corpus, QueryRecord, subseed
from geoforge.mlp import Mlp, backward_blocks, forward_blocks, save_nets, sgd_step
from geoforge.pipeline import PipelineConfig, _triplets_from_labels
from geoforge.ranker import (
    RANKER_MAGIC,
    RankerError,
    RankerModel,
    RankerTrainConfig,
    TowerConfig,
    Triplets,
    correct_rank,
    in_blocks,
    load_ranker,
    margin_loss_batch,
    pin_features,
    query_features,
    save_ranker,
    train_ranker,
)

from _oracles import (
    finite_difference, held_out_pins, rel_error, top1_cluster, unit_rows, whole_batch_correct_rank,
    whole_batch_embeddings,
)


SMALL = TowerConfig(d_v=4, d_t=3, hidden=[5], output_dim=3, dropout_rate=0.0)
# the towers of a default pipeline run
PIPELINE_TOWERS = TowerConfig(d_v=64, d_t=48)


class TestConfig:
    def test_validation(self):
        with pytest.raises(RankerError, match="hidden"):
            TowerConfig(4, 3, hidden=[])
        with pytest.raises(RankerError, match="dropout_rate"):
            TowerConfig(4, 3, dropout_rate=1.0)
        with pytest.raises(RankerError, match="margin"):
            TowerConfig(4, 3, margin=0.0)

    @pytest.mark.parametrize("fields, match", [
        ({"d_v": -10}, "d_v must be at least 1, got -10"),
        ({"d_t": 0}, "d_t must be at least 1, got 0"),
        ({"hidden": [-4]}, r"hidden widths must be at least 1, got \[-4\]"),
        ({"hidden": [8, 0]}, r"hidden widths must be at least 1, got \[8, 0\]"),
        ({"output_dim": 0}, "output_dim must be at least 1, got 0"),
        ({"margin": float("nan")}, "margin must be positive and finite, got nan"),
        ({"margin": float("inf")}, "margin must be positive and finite, got inf"),
    ])
    def test_bad_widths_and_margins_rejected(self, fields, match):
        with pytest.raises(RankerError, match=rf"^{match}$"):
            TowerConfig(**{"d_v": 4, "d_t": 3, **fields})

    def test_default_towers_run_at_their_declared_widths(self):
        model = RankerModel.init(PIPELINE_TOWERS)
        for tower, d_in in ((model.pin_tower, 64 + 48 + 1), (model.query_tower, 48 + 1)):
            assert [layer[0].shape for layer in tower.layers] == [
                (64, d_in), (48, 64), (32, 48), (16, 32)]


class TestFeatures:
    def test_pin_features_layout(self, small_synth):
        corpus, _, config = small_synth
        feats = pin_features(corpus)
        assert feats.shape == (config.n_pins, config.d_v + config.d_t + 1)
        for row, pin in zip(feats, corpus.pins.values()):
            assert row.tolist() == [*pin.visual_embedding, *pin.text_embedding, pin.perception_score]

    def test_query_features_layout(self, small_synth):
        corpus, _, config = small_synth
        feats = query_features(corpus)
        assert feats.shape == (len(corpus.queries), config.d_t + 1)
        np.testing.assert_array_equal(feats[:, :-1], corpus.query_embeddings)

    def test_query_features_length_score_caps_at_16_words(self):
        queries = [QueryRecord("one two three", "UseCase"), QueryRecord("w " * 20, "UseCase")]
        corpus = Corpus({}, queries, [], np.zeros((0, 1)), np.zeros((0, 3)), np.zeros((2, 3)))
        assert query_features(corpus)[:, -1].tolist() == [3 / 16, 1.0]


class TestMarginLoss:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_hinge_equivalence(self, seed):
        """On a one-row batch (the positive row over the negative row), the
        training hinge is zero exactly when the pin separates them by m."""
        rng = np.random.default_rng(seed)
        pin, pos, neg = unit_rows(rng, 3, 6)
        loss, _, _ = margin_loss_batch(pin[None], np.stack([pos, neg]), 0.95)
        separation = float(np.sum(pin * pos) - np.sum(pin * neg))
        assert (loss == 0.0) == (separation >= 0.95)
        assert loss >= 0.0

    def test_batch_mean_matches_scalar(self):
        """The batch loss is the mean of the hinge written out per row."""
        rng = np.random.default_rng(3)
        e_pin, e_pos, e_neg = (unit_rows(rng, 4, 5) for _ in range(3))
        batch_loss, _, _ = margin_loss_batch(e_pin, np.concatenate([e_pos, e_neg]), 0.95)
        scalar_mean = np.mean([
            max(0.0, float(e_pin[i] @ e_neg[i]) - float(e_pin[i] @ e_pos[i]) + 0.95) for i in range(4)
        ])
        assert abs(batch_loss - scalar_mean) <= 1e-12

    def test_gradients_are_laid_out_like_the_query_rows(self):
        """d_query holds the positive rows' gradient over the negative rows',
        matching central differences of the loss in ``e_query``."""
        rng = np.random.default_rng(5)
        e_pin, e_query = unit_rows(rng, 3, 4), unit_rows(rng, 6, 4)
        _, d_pin, d_query = margin_loss_batch(e_pin, e_query, 0.95)
        numeric = finite_difference(lambda: margin_loss_batch(e_pin, e_query, 0.95)[0], [e_pin, e_query])
        assert rel_error(d_pin, numeric[0]) <= 1e-6
        assert rel_error(d_query, numeric[1]) <= 1e-6

    @pytest.mark.parametrize("rows", [2, 3, 5])
    def test_query_rows_must_stack_two_batches(self, rows):
        rng = np.random.default_rng(0)
        with pytest.raises(RankerError, match="two stacks"):
            margin_loss_batch(unit_rows(rng, 2, 4), unit_rows(rng, rows, 4), 0.95)


def _tower(dims: list[int], rng: np.random.Generator) -> Mlp:
    return Mlp.init(dims, rng, layer_norm=True, last_gain=1.0)


def _one_block(net: Mlp, x: np.ndarray, dropout_rate: float = 0.0, rng=None):
    """The output rows and cache of `forward_blocks` over one block."""
    (out,), cache = forward_blocks([(net, x)], RankerError, dropout_rate, rng)
    return out, cache


def _gradients(net: Mlp, cache: dict, d_out: np.ndarray) -> list[np.ndarray]:
    """`backward_blocks` of a one-block cache, regrouped per parameter in
    `Mlp.parameters` order."""
    (grad,) = backward_blocks(cache, [d_out])
    return [g for layer in net.layered(grad) for g in layer]


class TestTowerGradients:
    def test_backward_matches_finite_differences(self):
        # kink-avoided: skip probes close to a ReLU boundary
        checked = 0
        seed = 100
        while checked < 5:
            rng = np.random.default_rng(seed)
            seed += 1
            tower = _tower([6, 5, 3], rng)
            x = rng.standard_normal((3, 6))
            target = rng.standard_normal((3, 3))

            out, cache = _one_block(tower, x)
            if any(
                float(np.min(np.abs(layer["z"]))) < 1e-4
                for layer in cache["layers"][:-1]
            ):
                continue

            def loss():
                return float(np.sum(tower.forward(x, RankerError) * target))

            analytic = _gradients(tower, cache, target)
            numeric = finite_difference(loss, tower.parameters())
            assert max(
                rel_error(a, n) for a, n in zip(analytic, numeric)
            ) <= 1e-3
            checked += 1

    def test_backward_with_dropout_matches_finite_differences(self):
        # every forward pass re-seeds the RNG, so each draws the same mask;
        # kink-avoided as above, and a probe whose mask empties a row (zero
        # output norm) is skipped
        checked = 0
        seed = 200
        while checked < 5:
            rng = np.random.default_rng(seed)
            seed += 1
            tower = _tower([6, 5, 3], rng)
            x = rng.standard_normal((3, 6))
            target = rng.standard_normal((3, 3))

            def forward():
                return _one_block(tower, x, 0.5, np.random.default_rng(seed))

            try:
                out, cache = forward()
            except RankerError:
                continue
            if any(
                float(np.min(np.abs(layer["z"]))) < 1e-4
                for layer in cache["layers"][:-1]
            ):
                continue
            assert (cache["layers"][0]["mask"] == 0.0).any()

            def loss():
                o, _ = forward()
                return float(np.sum(o * target))

            analytic = _gradients(tower, cache, target)
            numeric = finite_difference(loss, tower.parameters())
            assert max(
                rel_error(a, n) for a, n in zip(analytic, numeric)
            ) <= 1e-3
            checked += 1

    def test_dropout_requires_rng(self):
        tower = _tower([4, 3, 2], np.random.default_rng(0))
        with pytest.raises(RankerError, match="RNG"):
            _one_block(tower, np.ones((1, 4)), dropout_rate=0.5)

    def test_input_dim_mismatch(self):
        tower = _tower([4, 3, 2], np.random.default_rng(0))
        with pytest.raises(RankerError, match="input dim"):
            tower.forward(np.ones((1, 5)), RankerError)

    @pytest.mark.parametrize("tower", ["pin", "query"])
    def test_non_finite_input(self, tower):
        model = RankerModel.init(SMALL, seed=0)
        dim = SMALL.pin_input_dim if tower == "pin" else SMALL.query_input_dim
        row = np.ones(dim)
        row[1] = np.nan
        with pytest.raises(RankerError, match="non-finite"):
            getattr(model, f"embed_{tower}")(row)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("tower", ["pin", "query"])
    def test_overflowing_output_norm(self, tower):
        """Finite output rows whose squared norm overflows raise, rather
        than normalising to zero rows."""
        model = RankerModel.init(SMALL, seed=0)
        getattr(model, f"{tower}_tower").layers[-1][0][...] *= 1e200
        dim = SMALL.pin_input_dim if tower == "pin" else SMALL.query_input_dim
        with pytest.raises(RankerError, match="non-finite"):
            getattr(model, f"embed_{tower}")(np.ones(dim))


class TestBlockKernel:
    def test_two_block_pass_equals_one_block_passes(self):
        """Two nets of equal widths but different input widths: the stacked
        pass gives each block exactly its one-block pass, and the masks are
        drawn block after block, layer after layer."""
        rng = np.random.default_rng(0)
        nets = [_tower([6, 5, 4, 3], rng), _tower([4, 5, 4, 3], rng)]
        inputs = [rng.standard_normal((3, 6)), rng.standard_normal((5, 4))]
        d_outs = [rng.standard_normal((3, 3)), rng.standard_normal((5, 3))]
        outs, cache = forward_blocks(list(zip(nets, inputs)), RankerError, 0.3, np.random.default_rng(1))
        grads = backward_blocks(cache, d_outs)

        one_block_rng, reference, start = np.random.default_rng(1), np.random.default_rng(1), 0
        for net, x, d_out, out, grad in zip(nets, inputs, d_outs, outs, grads):
            single_out, single = _one_block(net, x, 0.3, one_block_rng)
            rows = slice(start, start + len(x))
            start += len(x)
            np.testing.assert_array_equal(out, single_out)
            for i, layer in enumerate(single["layers"]):
                np.testing.assert_array_equal(cache["layers"][i]["z"][rows], layer["z"])
            for i, layer in enumerate(single["layers"][:-1]):
                drawn = (reference.random(layer["z"].shape) >= 0.3) / 0.7
                np.testing.assert_array_equal(layer["mask"], drawn)
                np.testing.assert_array_equal(cache["layers"][i]["mask"][rows], drawn)
            single_grad = _gradients(net, single, d_out)
            views = [g for layer in net.layered(grad) for g in layer]
            assert len(views) == len(single_grad) == len(net.parameters())
            for got, want in zip(views, single_grad):
                np.testing.assert_array_equal(got, want)

    def test_gradient_is_laid_out_like_flat(self):
        """Each block's gradient has the shape of its net's `flat`, and its
        `layered` views take its values in `Mlp.parameters` order, with the
        parameters' shapes."""
        rng = np.random.default_rng(2)
        net = _tower([6, 8, 8, 3], rng)
        x, d_out = rng.standard_normal((4, 6)), rng.standard_normal((4, 3))
        _, cache = _one_block(net, x, 0.3, np.random.default_rng(3))
        (grad,) = backward_blocks(cache, [d_out])
        assert grad.shape == net.flat.shape and grad.dtype == net.flat.dtype
        got = [g for layer in net.layered(grad) for g in layer]
        assert [g.shape for g in got] == [p.shape for p in net.parameters()]
        assert all(np.shares_memory(g, grad) for g in got)
        np.testing.assert_array_equal(np.concatenate([g.ravel() for g in got]), grad)

    def test_gradients_share_no_memory(self):
        """Two blocks of one net, and two calls on one cache, each get a
        fresh gradient array: none aliases another or the parameters."""
        rng = np.random.default_rng(4)
        net = _tower([4, 5, 3], rng)
        blocks = [(net, rng.standard_normal((2, 4))), (net, rng.standard_normal((3, 4)))]
        d_outs = [rng.standard_normal((2, 3)), rng.standard_normal((3, 3))]
        _, cache = forward_blocks(blocks, RankerError)
        first = backward_blocks(cache, d_outs)
        second = backward_blocks(cache, d_outs)
        grads = [*first, *second, net.flat]
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_sgd_step_subtracts_the_scaled_gradient_bit_for_bit(self):
        rng = np.random.default_rng(5)
        net = _tower([4, 5, 3], rng)
        grad = rng.standard_normal(net.flat.shape)
        want = net.flat - 0.4 * grad
        sgd_step(net, grad, 0.4, RankerError, 7)
        np.testing.assert_array_equal(net.flat, want)
        assert all(np.shares_memory(p, net.flat) for p in net.parameters())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate, entry", [(1e160, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_sgd_step_rejects_an_overflowing_update_and_leaves_the_net(self, rate, entry):
        net = _tower([4, 5, 3], np.random.default_rng(5))
        before = net.flat.copy()
        grad = np.full_like(before, 1e-3)
        grad[2] = entry
        with pytest.raises(RankerError, match=rf"^SGD update at step 7 overflows at learning rate {re.escape(str(rate))}$"):
            sgd_step(net, grad, rate, RankerError, 7)
        np.testing.assert_array_equal(net.flat, before)

    def test_blocks_need_equal_widths(self):
        rng = np.random.default_rng(0)
        blocks = [(_tower([4, 5, 3], rng), np.ones((2, 4))), (_tower([4, 6, 3], rng), np.ones((2, 4)))]
        with pytest.raises(RankerError, match="equal layer widths"):
            forward_blocks(blocks, RankerError)


def _triplets(pins: np.ndarray, positives: np.ndarray, negatives: np.ndarray) -> Triplets:
    """Triplet i as row i of each matrix."""
    n = len(pins)
    return Triplets(pins, np.concatenate([positives, negatives]),
                    np.arange(n), np.arange(n), np.arange(n, 2 * n))


def _separable_triplets(n: int, seed: int) -> Triplets:
    """Pins near one direction; positives aligned, negatives orthogonal."""
    rng = np.random.default_rng(seed)
    axis_pin = np.zeros(SMALL.pin_input_dim)
    axis_pin[0] = 1.0
    axis_pos = np.zeros(SMALL.query_input_dim)
    axis_pos[0] = 1.0
    axis_neg = np.zeros(SMALL.query_input_dim)
    axis_neg[1] = 1.0
    triplets = []
    for _ in range(n):
        triplets.append(
            (
                axis_pin + 0.1 * rng.standard_normal(SMALL.pin_input_dim),
                axis_pos + 0.1 * rng.standard_normal(SMALL.query_input_dim),
                axis_neg + 0.1 * rng.standard_normal(SMALL.query_input_dim),
            )
        )
    return _triplets(*(np.stack(column) for column in zip(*triplets)))


class TestTraining:
    def test_empty_triplets(self):
        with pytest.raises(RankerError, match="at least one"):
            train_ranker(_triplets(*np.empty((3, 0, SMALL.pin_input_dim))), SMALL)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(RankerError, match=rf"^RankerTrainConfig\.steps must be at least 1, got {steps}$"):
            RankerTrainConfig(steps=steps)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(RankerError, match=rf"^RankerTrainConfig\.batch_size must be at least 1, got {batch_size}$"):
            RankerTrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("rate", [-0.1, 0.0, np.inf, np.nan])
    def test_learning_rate_not_positive_and_finite_rejected(self, rate):
        with pytest.raises(RankerError, match=rf"^RankerTrainConfig\.learning_rate must be positive and finite, got {rate}$"):
            RankerTrainConfig(learning_rate=rate)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate, match", [
        # an update too large to square fails the step that makes it
        (1e300, r"SGD update at step 0 overflows at learning rate 1e\+300"),
        # finite updates whose activations overflow fail the next pass
        (1e100, "non-finite activations in forward pass"),
    ])
    def test_overflowing_learning_rate_fails_typed_before_any_warning(self, rate, match):
        triplets = _separable_triplets(50, seed=5)
        with pytest.raises(RankerError, match=rf"^{match}$"):
            train_ranker(triplets, SMALL, RankerTrainConfig(steps=20, learning_rate=rate))

    def test_training_improves_correct_rank(self):
        triplets = _separable_triplets(200, seed=5)
        untrained = correct_rank(RankerModel.init(SMALL, seed=2), triplets)
        model, log = train_ranker(
            triplets, SMALL, RankerTrainConfig(steps=200, learning_rate=0.05, seed=2)
        )
        trained = correct_rank(model, triplets)
        assert trained > untrained
        assert trained >= 0.95
        assert log[-1][1] < log[0][1]

    def test_deterministic(self):
        triplets = _separable_triplets(50, seed=5)
        config = RankerTrainConfig(steps=20, seed=3)
        _, log_a = train_ranker(triplets, SMALL, config)
        _, log_b = train_ranker(triplets, SMALL, config)
        assert log_a == log_b

    def test_fused_query_pass_matches_separate_passes(self):
        """One query-tower pass over positives stacked on negatives gives
        the update of separate positive and negative passes (no dropout)."""
        triplets = _separable_triplets(30, seed=9)
        train = RankerTrainConfig(steps=5, batch_size=8, learning_rate=0.05, seed=4)
        fused, _ = train_ranker(triplets, SMALL, train)

        model = RankerModel.init(SMALL, seed=train.seed)
        rng = np.random.default_rng(train.seed + 1)
        pins, pos, neg = (
            triplets.pins[triplets.pin], triplets.queries[triplets.pos], triplets.queries[triplets.neg]
        )
        for _ in range(train.steps):
            idx = rng.choice(len(triplets), size=train.batch_size, replace=False)
            e_pin, c_pin = _one_block(model.pin_tower, pins[idx])
            e_pos, c_pos = _one_block(model.query_tower, pos[idx])
            e_neg, c_neg = _one_block(model.query_tower, neg[idx])
            _, d_pin, d_query = margin_loss_batch(e_pin, np.concatenate([e_pos, e_neg]), SMALL.margin)
            d_pos, d_neg = np.split(d_query, 2)
            g_pin = _gradients(model.pin_tower, c_pin, d_pin)
            g_pos = _gradients(model.query_tower, c_pos, d_pos)
            g_neg = _gradients(model.query_tower, c_neg, d_neg)
            for param, grad in zip(model.pin_tower.parameters(), g_pin):
                param -= train.learning_rate * grad
            for param, gp, gn in zip(model.query_tower.parameters(), g_pos, g_neg):
                param -= train.learning_rate * (gp + gn)

        for tower in ("pin_tower", "query_tower"):
            for got, want in zip(
                getattr(fused, tower).parameters(), getattr(model, tower).parameters()
            ):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_dropout_training_matches_per_tower_passes(self):
        """With dropout over two LayerNorm layers, training equals a loop of
        per-tower passes that draw from one RNG: the batch choice, then the
        pin tower's masks, then the query tower's."""
        config = dataclasses.replace(SMALL, hidden=[6, 5], dropout_rate=0.2)
        triplets = _separable_triplets(30, seed=9)
        train = RankerTrainConfig(steps=5, batch_size=8, learning_rate=0.05, seed=4)
        trained, log = train_ranker(triplets, config, train)

        model = RankerModel.init(config, seed=train.seed)
        rng = np.random.default_rng(train.seed + 1)
        pins, pos, neg = (
            triplets.pins[triplets.pin], triplets.queries[triplets.pos], triplets.queries[triplets.neg]
        )
        for step in range(train.steps):
            idx = rng.choice(len(triplets), size=train.batch_size, replace=False)
            e_pin, c_pin = _one_block(model.pin_tower, pins[idx], 0.2, rng)
            queries = np.concatenate([pos[idx], neg[idx]])
            e_query, c_query = _one_block(model.query_tower, queries, 0.2, rng)
            loss, d_pin, d_query = margin_loss_batch(e_pin, e_query, config.margin)
            assert log[step][1] == pytest.approx(loss, rel=0, abs=1e-12)
            g_pin = _gradients(model.pin_tower, c_pin, d_pin)
            g_query = _gradients(model.query_tower, c_query, d_query)
            for param, grad in zip(model.pin_tower.parameters(), g_pin):
                param -= train.learning_rate * grad
            for param, grad in zip(model.query_tower.parameters(), g_query):
                param -= train.learning_rate * grad

        for tower in ("pin_tower", "query_tower"):
            for got, want in zip(
                getattr(trained, tower).parameters(), getattr(model, tower).parameters()
            ):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_correct_rank_ties_fail(self):
        model = RankerModel.init(SMALL, seed=0)
        feats_pin = np.ones(SMALL.pin_input_dim)
        feats_q = np.ones(SMALL.query_input_dim)
        assert correct_rank(model, _triplets(feats_pin[None], feats_q[None], feats_q[None])) == 0.0

    def test_correct_rank_empty(self):
        with pytest.raises(RankerError, match="empty"):
            correct_rank(RankerModel.init(SMALL, seed=0), _triplets(*np.empty((3, 0, 4))))

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_blocked_correct_rank_equals_whole_batch(self, n):
        """Block edges change nothing: the ratio equals one whole-set pass,
        a tie (positive == negative) still counting as a failure."""
        model = RankerModel.init(PIPELINE_TOWERS, seed=1)
        rng = np.random.default_rng(n)
        pins = rng.standard_normal((n, PIPELINE_TOWERS.pin_input_dim))
        positives, negatives = rng.standard_normal((2, n, PIPELINE_TOWERS.query_input_dim))
        negatives[n // 2] = positives[n // 2]
        triplets = _triplets(pins, positives, negatives)
        got = correct_rank(model, triplets)
        assert got == whole_batch_correct_rank(model, triplets)
        assert 0.0 < got < 1.0 or n == 1

    def test_correct_rank_memory_does_not_grow_with_the_set(self):
        """Scoring 4,096 triplets peaks at most 2x scoring 256."""
        model = RankerModel.init(PIPELINE_TOWERS, seed=0)
        rng = np.random.default_rng(0)
        pins = rng.standard_normal((4096, PIPELINE_TOWERS.pin_input_dim))
        queries = rng.standard_normal((2, 4096, PIPELINE_TOWERS.query_input_dim))
        triplets = _triplets(pins, *queries)

        def peak(subset) -> int:
            tracemalloc.start()
            try:
                correct_rank(model, subset)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(triplets) <= 2 * peak(triplets[:256])

    def test_training_memory_does_not_grow_with_the_triplets(self):
        """Training on 4,096 triplets peaks at most 1.5x training on 256
        triplets over the same 256 pin rows and 64 query rows."""
        rng = np.random.default_rng(0)
        pins = rng.standard_normal((256, PIPELINE_TOWERS.pin_input_dim))
        queries = rng.standard_normal((64, PIPELINE_TOWERS.query_input_dim))
        index = rng.integers(0, [256, 64, 64], size=(4096, 3)).T
        triplets = Triplets(pins, queries, *index)

        def peak(subset) -> int:
            tracemalloc.start()
            try:
                train_ranker(subset, PIPELINE_TOWERS, RankerTrainConfig(steps=3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(triplets) <= 1.5 * peak(triplets[:256])

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_blocked_embeddings_equal_one_pass_bit_for_bit(self, n):
        model = RankerModel.init(PIPELINE_TOWERS, seed=1)
        rng = np.random.default_rng(n)
        for embed, dim in [(model.embed_pin, PIPELINE_TOWERS.pin_input_dim),
                           (model.embed_query, PIPELINE_TOWERS.query_input_dim)]:
            rows = rng.standard_normal((n, dim))
            np.testing.assert_array_equal(
                in_blocks(n, lambda block: embed(rows[block])), whole_batch_embeddings(embed, rows)
            )


class TestHeldOut:
    """The pipeline's ranker budget scored on pins it never trained on: a
    corpus seed's default corpus, built and curated as criterion 07 builds
    its own, with a seeded 20% of its pins held out. On seed 11 the former
    budget (1,500 steps at rate 0.1) wandered most; seed 6 with split 1 is
    the cell where the default budget reads closest to the bars. README,
    "The ranker's budget", has the curve over seeds, splits and rates."""

    # the former budget reads top-1 cluster 0.98 and correct_rank 0.995 on
    # seed 11, split 12345; a bar is that less the spread over 13 corpus
    # seeds, 4 splits and 2 ranker seeds (0.02 and 0.005)
    TOP1_BAR = 0.96
    CORRECT_RANK_BAR = 0.99

    @pytest.fixture(scope="class")
    def held_out(self):
        """(corpus seed, split seed) -> ((steps, rate) -> held-out (top-1
        cluster, correct_rank)), each corpus built once."""

        @functools.cache
        def corpus_split(seed: int, split: int):
            corpus, sidecar = synth.generate_corpus(synth.SynthConfig(seed=seed))
            queries = curation.dedup_queries(corpus.queries)
            labeled, _ = curation.curate(corpus, queries, PipelineConfig.neg_per_pos,
                                         seed=subseed(seed, "curation"))
            pins, query_rows = pin_features(corpus), query_features(corpus)
            triplets = _triplets_from_labels(corpus, pins, query_rows, labeled)
            held = held_out_pins(len(corpus.pins), 0.2, seed=split)
            in_held = np.isin(triplets.pin, held)
            train_set, eval_set = triplets[np.flatnonzero(~in_held)], triplets[np.flatnonzero(in_held)]
            deduped = query_rows[[corpus.query_row[q.text] for q in queries]]
            pin_clusters = np.array([sidecar["pin_cluster"][s] for s in corpus.signatures[held].tolist()])
            query_clusters = np.array([sidecar["query_cluster"][q.text] for q in queries])
            tower = TowerConfig(d_v=corpus.d_v, d_t=corpus.d_t)

            def measure(steps: int, rate: float) -> tuple[float, float]:
                model, _ = train_ranker(train_set, tower, RankerTrainConfig(
                    steps=steps, learning_rate=rate, seed=subseed(seed, "ranker")))
                return (top1_cluster(model, pins[held], deduped, pin_clusters, query_clusters),
                        correct_rank(model, eval_set))

            return measure

        return corpus_split

    @pytest.mark.parametrize("seed, split", [(11, 12345), (6, 1)])
    def test_default_budget_holds_the_bar(self, held_out, seed, split):
        top1, rank = held_out(seed, split)(PipelineConfig().ranker_steps, RankerTrainConfig.learning_rate)
        assert top1 >= self.TOP1_BAR and rank >= self.CORRECT_RANK_BAR, (top1, rank)

    def test_a_weakened_budget_falls_below_the_bar(self, held_out):
        top1, rank = held_out(11, 12345)(25, 0.1)
        assert top1 < self.TOP1_BAR and rank < self.CORRECT_RANK_BAR, (top1, rank)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        model, _ = train_ranker(
            _separable_triplets(40, seed=5), SMALL, RankerTrainConfig(steps=10)
        )
        path = tmp_path / "ranker.bin"
        save_ranker(model, path)
        loaded = load_ranker(path)
        assert loaded.config == model.config
        feats_pin = np.ones(SMALL.pin_input_dim)
        feats_q = np.ones(SMALL.query_input_dim)
        np.testing.assert_allclose(
            loaded.embed_pin(feats_pin), model.embed_pin(feats_pin), rtol=0, atol=1e-5
        )
        np.testing.assert_allclose(
            loaded.embed_query(feats_q), model.embed_query(feats_q), rtol=0, atol=1e-5
        )

    def test_save_load_save_identical_bytes(self, tmp_path):
        model, _ = train_ranker(
            _separable_triplets(40, seed=5), SMALL, RankerTrainConfig(steps=10)
        )
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_ranker(model, first)
        save_ranker(load_ranker(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("towers", [
        # wider hidden layers than the config declares
        lambda rng: [Mlp.init([dim, 6, 3], rng, layer_norm=True) for dim in (8, 4)],
        # the declared widths, without LayerNorm
        lambda rng: [Mlp.init([dim, 5, 3], rng) for dim in (8, 4)],
        # the towers swapped
        lambda rng: [Mlp.init([dim, 5, 3], rng, layer_norm=True) for dim in (4, 8)],
    ])
    def test_towers_that_do_not_fit_the_config_rejected(self, tmp_path, towers):
        path = tmp_path / "ranker.bin"
        pin, query = towers(np.random.default_rng(0))
        save_nets(path, RANKER_MAGIC, dataclasses.asdict(SMALL), {"pin": pin, "query": query})
        with pytest.raises(RankerError, match=r"^tower shapes in .* do not fit its config"):
            load_ranker(path)

    def test_bad_config_in_meta_rejected(self, tmp_path):
        """A checkpoint with a valid CRC whose meta declares a negative
        hidden width fails typed, before any tower is built from it."""
        path = tmp_path / "ranker.bin"
        model = RankerModel.init(SMALL, seed=0)
        save_nets(path, RANKER_MAGIC, {**dataclasses.asdict(SMALL), "hidden": [-4]},
                  {"pin": model.pin_tower, "query": model.query_tower})
        with pytest.raises(RankerError, match=r"^hidden widths must be at least 1, got \[-4\]$"):
            load_ranker(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ranker.bin"
        path.write_bytes(b"NOTRANKR" + b"\x00" * 64)
        with pytest.raises(RankerError, match="magic"):
            load_ranker(path)

    def test_truncated_at_every_offset(self, tmp_path):
        path = tmp_path / "ranker.bin"
        save_ranker(RankerModel.init(SMALL, seed=0), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(RankerError):
                load_ranker(path)

    def test_bit_flip_anywhere(self, tmp_path):
        """Every single-bit flip raises RankerError: the magic no longer
        matches, or the CRC-32 trailer does not."""
        path = tmp_path / "ranker.bin"
        save_ranker(RankerModel.init(SMALL, seed=0), path)
        data = path.read_bytes()
        for pos in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[pos] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                with pytest.raises(RankerError):
                    load_ranker(path)

"""Two-tower ranker: tower math, margin loss, training, and checkpoint IO."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoforge.core import PinRecord, QueryRecord
from geoforge.mlp import Mlp, backward_blocks, forward_blocks
from geoforge.ranker import (
    RankerError,
    RankerModel,
    RankerTrainConfig,
    TowerConfig,
    correct_rank,
    load_ranker,
    margin_loss,
    margin_loss_batch,
    pin_features,
    query_features,
    save_ranker,
    train_ranker,
)

from _oracles import finite_difference, rel_error, unit_rows


SMALL = TowerConfig(d_v=4, d_t=3, hidden=[5], output_dim=3, dropout_rate=0.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(RankerError, match="hidden"):
            TowerConfig(hidden=[])
        with pytest.raises(RankerError, match="dropout_rate"):
            TowerConfig(dropout_rate=1.0)
        with pytest.raises(RankerError, match="margin"):
            TowerConfig(margin=0.0)

    def test_width_multiplier_floor(self):
        config = TowerConfig(hidden=[512, 8], output_dim=128, width_mult=0.01)
        assert config.scaled_hidden() == [5, 2]
        assert config.scaled_output() == 2


class TestFeatures:
    def test_pin_features_layout(self):
        pin = PinRecord(
            signature=1,
            visual_embedding=np.arange(4.0),
            text_embedding=np.arange(3.0),
            perception_score=0.5,
        )
        feats = pin_features(pin)
        assert feats.shape == (8,)
        assert feats[-1] == 0.5

    def test_query_features_length_score(self):
        query = QueryRecord("one two three", "UseCase", embedding=np.zeros(3))
        feats = query_features(query)
        assert feats.shape == (4,)
        assert feats[-1] == 3 / 16

    def test_query_features_missing_embedding(self):
        with pytest.raises(RankerError, match="lacks an embedding"):
            query_features(QueryRecord("q", "UseCase"))


class TestMarginLoss:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_hinge_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        pin, pos, neg = unit_rows(rng, 3, 6)
        loss = margin_loss(pin, pos, neg, m=0.95)
        separation = float(np.dot(pin, pos) - np.dot(pin, neg))
        assert (loss == 0.0) == (separation >= 0.95)
        assert loss >= 0.0

    def test_batch_mean_matches_scalar(self):
        rng = np.random.default_rng(3)
        e_pin, e_pos, e_neg = (unit_rows(rng, 4, 5) for _ in range(3))
        batch_loss, _, _, _ = margin_loss_batch(e_pin, e_pos, e_neg, 0.95)
        scalar_mean = np.mean(
            [margin_loss(e_pin[i], e_pos[i], e_neg[i], 0.95) for i in range(4)]
        )
        assert abs(batch_loss - scalar_mean) <= 1e-12


def _tower(dims: list[int], rng: np.random.Generator) -> Mlp:
    return Mlp.init(dims, rng, layer_norm=True, last_gain=1.0)


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

            out, cache = tower.forward(x, RankerError)
            if any(
                float(np.min(np.abs(layer["z"]))) < 1e-4
                for layer in cache["layers"][:-1]
            ):
                continue

            def loss():
                o, _ = tower.forward(x, RankerError)
                return float(np.sum(o * target))

            analytic = tower.backward(cache, target)
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
                return tower.forward(x, RankerError, 0.5, np.random.default_rng(seed))

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

            analytic = tower.backward(cache, target)
            numeric = finite_difference(loss, tower.parameters())
            assert max(
                rel_error(a, n) for a, n in zip(analytic, numeric)
            ) <= 1e-3
            checked += 1

    def test_dropout_requires_rng(self):
        tower = _tower([4, 3, 2], np.random.default_rng(0))
        with pytest.raises(RankerError, match="RNG"):
            tower.forward(np.ones((1, 4)), RankerError, dropout_rate=0.5)

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
            single_out, single = net.forward(x, RankerError, 0.3, one_block_rng)
            rows = slice(start, start + len(x))
            start += len(x)
            np.testing.assert_array_equal(out, single_out)
            for i, layer in enumerate(single["layers"]):
                np.testing.assert_array_equal(cache["layers"][i]["z"][rows], layer["z"])
            for i, layer in enumerate(single["layers"][:-1]):
                drawn = (reference.random(layer["z"].shape) >= 0.3) / 0.7
                np.testing.assert_array_equal(layer["mask"], drawn)
                np.testing.assert_array_equal(cache["layers"][i]["mask"][rows], drawn)
            single_grad = net.backward(single, d_out)
            assert len(grad) == len(single_grad) == len(net.parameters())
            for got, want in zip(grad, single_grad):
                np.testing.assert_array_equal(got, want)

    def test_blocks_need_equal_widths(self):
        rng = np.random.default_rng(0)
        blocks = [(_tower([4, 5, 3], rng), np.ones((2, 4))), (_tower([4, 6, 3], rng), np.ones((2, 4)))]
        with pytest.raises(RankerError, match="equal layer widths"):
            forward_blocks(blocks, RankerError)


def _separable_triplets(n: int, seed: int):
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
    return triplets


class TestTraining:
    def test_empty_triplets(self):
        with pytest.raises(RankerError, match="at least one"):
            train_ranker([], SMALL)

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
        pins, pos, neg = (np.stack(col) for col in zip(*triplets))
        for _ in range(train.steps):
            idx = rng.choice(len(triplets), size=train.batch_size, replace=False)
            e_pin, c_pin = model.pin_tower.forward(pins[idx], RankerError)
            e_pos, c_pos = model.query_tower.forward(pos[idx], RankerError)
            e_neg, c_neg = model.query_tower.forward(neg[idx], RankerError)
            _, d_pin, d_pos, d_neg = margin_loss_batch(e_pin, e_pos, e_neg, SMALL.margin)
            g_pin = model.pin_tower.backward(c_pin, d_pin)
            g_pos = model.query_tower.backward(c_pos, d_pos)
            g_neg = model.query_tower.backward(c_neg, d_neg)
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
        pins, pos, neg = (np.stack(col) for col in zip(*triplets))
        for step in range(train.steps):
            idx = rng.choice(len(triplets), size=train.batch_size, replace=False)
            e_pin, c_pin = model.pin_tower.forward(pins[idx], RankerError, 0.2, rng)
            e_query, c_query = model.query_tower.forward(
                np.concatenate([pos[idx], neg[idx]]), RankerError, 0.2, rng
            )
            loss, d_pin, d_pos, d_neg = margin_loss_batch(e_pin, *np.split(e_query, 2), config.margin)
            assert log[step][1] == pytest.approx(loss, rel=0, abs=1e-12)
            g_pin = model.pin_tower.backward(c_pin, d_pin)
            g_query = model.query_tower.backward(c_query, np.concatenate([d_pos, d_neg]))
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
        assert correct_rank(model, [(feats_pin, feats_q, feats_q)]) == 0.0

    def test_correct_rank_empty(self):
        with pytest.raises(RankerError, match="empty"):
            correct_rank(RankerModel.init(SMALL, seed=0), [])


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
        """Every single-bit flip either loads a model that can embed or
        raises RankerError."""
        path = tmp_path / "ranker.bin"
        save_ranker(RankerModel.init(SMALL, seed=0), path)
        data = path.read_bytes()
        feats_pin = np.ones(SMALL.pin_input_dim)
        feats_q = np.ones(SMALL.query_input_dim)
        for pos in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[pos] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                try:
                    loaded = load_ranker(path)
                    loaded.embed_pin(feats_pin)
                    loaded.embed_query(feats_q)
                except RankerError:
                    pass

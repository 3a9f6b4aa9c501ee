"""Two-tower ranker: tower math, margin loss, training, and checkpoint IO."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoforge.core import PinRecord, QueryRecord
from geoforge.ranker import (
    RankerError,
    RankerModel,
    RankerTrainConfig,
    Tower,
    TowerConfig,
    correct_rank,
    load_ranker,
    margin_loss,
    margin_loss_batch,
    pin_features,
    query_features,
    save_ranker,
    tower_backward,
    tower_forward,
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


class TestTowerGradients:
    def test_backward_matches_finite_differences(self):
        # kink-avoided: skip probes close to a ReLU boundary
        checked = 0
        seed = 100
        while checked < 5:
            rng = np.random.default_rng(seed)
            seed += 1
            tower = Tower.init(6, [5], 3, rng)
            x = rng.standard_normal((3, 6))
            target = rng.standard_normal((3, 3))

            out, cache = tower_forward(tower, x)
            if any(
                float(np.min(np.abs(layer["z"]))) < 1e-4
                for layer in cache["layers"]
            ):
                continue

            def loss():
                o, _ = tower_forward(tower, x)
                return float(np.sum(o * target))

            analytic = tower_backward(tower, cache, target)
            numeric = finite_difference(loss, tower.parameters())
            assert max(
                rel_error(a, n) for a, n in zip(analytic, numeric)
            ) <= 1e-3
            checked += 1

    def test_dropout_requires_rng(self):
        tower = Tower.init(4, [3], 2, np.random.default_rng(0))
        with pytest.raises(RankerError, match="RNG"):
            tower_forward(tower, np.ones((1, 4)), train=True, dropout_rate=0.5)

    def test_input_dim_mismatch(self):
        tower = Tower.init(4, [3], 2, np.random.default_rng(0))
        with pytest.raises(RankerError, match="input dim"):
            tower_forward(tower, np.ones((1, 5)))


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
        assert loaded.config.margin == SMALL.margin
        feats_pin = np.ones(SMALL.pin_input_dim)
        feats_q = np.ones(SMALL.query_input_dim)
        assert abs(model.score(feats_pin, feats_q) - loaded.score(feats_pin, feats_q)) <= 1e-5

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

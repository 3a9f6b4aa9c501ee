"""Encoder MLP, contrastive losses, analytic gradients, training loop,
and checkpoint IO."""

from __future__ import annotations

import math

import numpy as np
import pytest

from geoforge.encoders import (
    EncoderError,
    EncoderModel,
    ENCODER_MAGIC,
    TrainConfig,
    load_encoders,
    pinclip_loss,
    save_encoders,
    searchsage_loss,
    softmax_contrastive_loss,
    train_encoder,
)
from geoforge.core import save_arrays
from geoforge.mlp import Mlp, backward_blocks, forward_blocks, save_nets

from _oracles import finite_difference, rel_error


class TestEncoderModel:
    def test_forward_unit_rows(self):
        rng = np.random.default_rng(1)
        model = EncoderModel(Mlp.init([6, 5, 4], rng))
        out = model.encode_batch(0.1 + np.abs(rng.standard_normal((8, 6))))
        assert out.shape == (8, 4)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_dim_mismatch(self):
        model = EncoderModel(Mlp.init([6, 4], np.random.default_rng(0)))
        with pytest.raises(EncoderError, match="input dim"):
            model.encode_batch(np.ones((2, 5)))

    def test_non_finite_input(self):
        model = EncoderModel(Mlp.init([6, 5, 4], np.random.default_rng(0)))
        row = np.ones(6)
        row[2] = np.nan
        with pytest.raises(EncoderError, match="non-finite"):
            model.encode(row)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_output_norm(self):
        """Finite output rows whose squared norm overflows raise, rather
        than normalising to zero rows."""
        model = EncoderModel(Mlp([(np.eye(2), np.zeros(2))]))
        with pytest.raises(EncoderError, match="non-finite"):
            model.encode(np.array([1e155, 1e155]))

    def test_dropout_requires_rng(self):
        net = Mlp.init([6, 4], np.random.default_rng(0))
        with pytest.raises(EncoderError, match="RNG"):
            forward_blocks([(net, np.ones((2, 6)))], EncoderError, dropout_rate=0.5)

    def test_backward_matches_finite_differences(self):
        # end-to-end through ReLU hidden layer and L2 normalization,
        # kink-avoided by discarding seeds with near-zero pre-activations
        checked = 0
        seed = 0
        while checked < 5:
            rng = np.random.default_rng(seed)
            seed += 1
            net = Mlp.init([4, 5, 3], rng)
            x = rng.standard_normal((3, 4))
            target = rng.standard_normal((3, 3))

            def loss():
                return float(np.sum(net.forward(x, EncoderError) * target))

            _, cache = forward_blocks([(net, x)], EncoderError)
            if float(np.min(np.abs(cache["layers"][0]["z"]))) < 1e-4:
                continue
            numeric = finite_difference(loss, net.parameters())
            (grad,) = backward_blocks(cache, [target])
            analytic = [g for layer in net.layered(grad) for g in layer]
            assert max(
                rel_error(a, n) for a, n in zip(analytic, numeric)
            ) <= 1e-3
            checked += 1


class TestContrastiveLoss:
    def test_uniform_logits_equal_ln_batch(self):
        for batch_size in (2, 4, 8):
            x = np.tile(np.array([1.0, 0.0]), (batch_size, 1))
            y = np.tile(np.array([0.0, 1.0]), (batch_size, 1))
            loss, _, _ = softmax_contrastive_loss(x, y)
            assert abs(loss - math.log(batch_size)) <= 1e-12

    # a subnormal temperature's reciprocal overflows
    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("inf"), float("nan"), 1e-310])
    def test_temperature_must_be_positive_and_finite(self, temperature):
        x = np.ones((2, 3))
        with pytest.raises(EncoderError, match=(
            rf"^temperature and its reciprocal must be positive and finite, got {temperature}$"
        )):
            softmax_contrastive_loss(x, x, temperature=temperature)

    def test_validation_errors(self):
        x = np.ones((2, 3))
        with pytest.raises(EncoderError, match="mismatch"):
            softmax_contrastive_loss(x, np.ones((2, 4)))
        with pytest.raises(EncoderError, match="at least 2"):
            softmax_contrastive_loss(np.ones((1, 3)), np.ones((1, 3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5))
        y = rng.standard_normal((4, 5))
        _, d_x, d_y = softmax_contrastive_loss(x, y, 0.1)
        numeric = finite_difference(lambda: softmax_contrastive_loss(x, y, 0.1)[0], [x, y])
        assert rel_error(d_x, numeric[0]) <= 1e-4
        assert rel_error(d_y, numeric[1]) <= 1e-4

    def test_pinclip_is_sum_of_terms(self):
        rng = np.random.default_rng(9)
        vis, a, b, txt = (rng.standard_normal((3, 4)) for _ in range(4))
        total, _ = pinclip_loss([vis, a, b, txt])
        parts = [softmax_contrastive_loss(x, y)[0] for x, y in ((vis, txt), (a, b))]
        assert abs(total - sum(parts)) <= 1e-12

    def test_searchsage_empty_tasks(self):
        with pytest.raises(EncoderError, match="empty"):
            searchsage_loss({})


class TestTraining:
    @pytest.mark.parametrize("loss_kind,towers", [
        ("pinclip", {"img", "txt"}),
    ])
    def test_training_reduces_loss(self, small_synth, loss_kind, towers):
        corpus, _, _ = small_synth
        config = TrainConfig(output_dim=8, steps=60, batch_size=32, seed=1)
        result = train_encoder(corpus, loss_kind, config)
        assert set(result.encoders) == towers
        assert len(result.log) == config.steps
        assert result.log[-1][1] < result.log[0][1]

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(EncoderError, match=rf"^TrainConfig\.steps must be at least 1, got {steps}$"):
            TrainConfig(steps=steps)

    @pytest.mark.parametrize("fields, match", [
        ({"batch_size": -1}, r"TrainConfig\.batch_size must be at least 2, got -1"),
        ({"batch_size": 1}, r"TrainConfig\.batch_size must be at least 2, got 1"),
        ({"output_dim": -1}, r"TrainConfig\.output_dim must be at least 1, got -1"),
        ({"output_dim": 0}, r"TrainConfig\.output_dim must be at least 1, got 0"),
        ({"hidden_dims": [0]}, r"TrainConfig\.hidden_dims widths must be at least 1, got \[0\]"),
        ({"hidden_dims": [8, -3]}, r"TrainConfig\.hidden_dims widths must be at least 1, got \[8, -3\]"),
    ])
    def test_bad_widths_rejected_naming_the_field(self, fields, match):
        with pytest.raises(EncoderError, match=rf"^{match}$"):
            TrainConfig(**fields)
        # the pipeline's widths stay valid
        TrainConfig(batch_size=64, output_dim=48, hidden_dims=[])

    @pytest.mark.parametrize("rate", [-0.1, 0.0, float("inf"), float("nan")])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(
            EncoderError, match=rf"^TrainConfig\.learning_rate must be positive and finite, got {rate}$"
        ):
            TrainConfig(learning_rate=rate)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_learning_rate_fails_typed_before_any_warning(self, small_synth):
        corpus, _, _ = small_synth
        with pytest.raises(EncoderError, match=r"^SGD update at step 0 overflows at learning rate 1e\+300$"):
            train_encoder(corpus, "pinclip", TrainConfig(output_dim=8, steps=5, learning_rate=1e300))

    def test_unknown_loss_kind(self, small_synth):
        corpus, _, _ = small_synth
        with pytest.raises(EncoderError, match="unknown loss kind"):
            train_encoder(corpus, "tripleclip", TrainConfig(steps=1))

    def test_deterministic(self, small_synth):
        corpus, _, _ = small_synth
        config = TrainConfig(output_dim=8, steps=10, batch_size=16, seed=2)
        a = train_encoder(corpus, "pinclip", config)
        b = train_encoder(corpus, "pinclip", config)
        assert a.log == b.log
        for key in a.encoders:
            for wa, wb in zip(a.encoders[key].net.parameters(), b.encoders[key].net.parameters()):
                assert np.array_equal(wa, wb)


def _pair(dims: list[int], seed: int) -> dict[str, EncoderModel]:
    rng = np.random.default_rng(seed)
    return {name: EncoderModel(Mlp.init(dims, rng)) for name in ("img", "txt")}


class TestCheckpoints:
    def test_roundtrip_through_f32(self, tmp_path):
        models = _pair([6, 5, 4], seed=3)
        path = tmp_path / "encoders.bin"
        save_encoders(models, path)
        loaded = load_encoders(path)
        assert set(loaded) == {"img", "txt"}
        probe = np.random.default_rng(4).standard_normal(6)
        for name, model in models.items():
            for w, lw in zip(model.net.parameters(), loaded[name].net.parameters()):
                assert np.allclose(w, lw, atol=1e-6)
            assert np.allclose(model.encode(probe), loaded[name].encode(probe), atol=1e-5)

    def test_towers_may_differ_in_input_width(self, tmp_path):
        rng = np.random.default_rng(0)
        models = {"img": EncoderModel(Mlp.init([6, 4], rng)), "txt": EncoderModel(Mlp.init([3, 5, 4], rng))}
        path = tmp_path / "encoders.bin"
        save_encoders(models, path)
        loaded = load_encoders(path)
        assert [loaded[n].net.input_dim for n in ("img", "txt")] == [6, 3]
        assert len(loaded["txt"].net.layers) == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(EncoderError, match="magic"):
            load_encoders(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "encoders.bin"
        save_encoders(_pair([4, 3], seed=0), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(EncoderError, match="truncated"):
            load_encoders(path)

    def test_bit_flip_anywhere(self, tmp_path):
        """Every single-bit flip raises EncoderError: the magic no longer
        matches, or the CRC-32 trailer does not."""
        path = tmp_path / "encoders.bin"
        save_encoders(_pair([4, 3, 2], seed=0), path)
        data = path.read_bytes()
        for pos in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[pos] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                with pytest.raises(EncoderError):
                    load_encoders(path)

    def test_unchained_layers_rejected(self, tmp_path):
        unchained = EncoderModel(Mlp([(np.ones((3, 4)), np.zeros(3)), (np.ones((2, 5)), np.zeros(2))]))
        path = tmp_path / "encoders.bin"
        save_encoders({"img": unchained, "txt": unchained}, path)
        with pytest.raises(EncoderError, match="chain"):
            load_encoders(path)

    @pytest.mark.parametrize("arrays", [
        {},  # no tower at all
        {"img0": np.ones((2, 3), "<f4"), "img1": np.ones(2, "<f4")},  # no txt tower
        {"img0": np.ones(2, "<f4"), "txt0": np.ones((2, 3), "<f4"), "txt1": np.ones(2, "<f4")},
        {"img0": np.ones((2, 3), "<f4"), "img1": np.ones(2, "<f4"), "img2": np.ones(2, "<f4"),
         "txt0": np.ones((2, 3), "<f4"), "txt1": np.ones(2, "<f4")},  # a bias past the last layer
        {**{f"img{i}": np.ones((2, 3) if i == 0 else 2, "<f4") for i in range(4)},
         "txt0": np.ones((2, 3), "<f4"), "txt1": np.ones(2, "<f4")},  # a LayerNorm output layer
    ])
    def test_parameters_that_are_not_layers_rejected(self, tmp_path, arrays):
        path = tmp_path / "encoders.bin"
        save_arrays(path, ENCODER_MAGIC, {}, arrays)
        with pytest.raises(EncoderError, match=r"do not lie as chained layers"):
            load_encoders(path)

    @pytest.mark.parametrize("name, array", [
        ("pin0", np.ones((2, 3), "<f4")),  # another net's name
        ("img2", np.ones(2, "<f4")),  # a gap in the numbering
        ("img", np.ones(2, "<f4")),  # no number
        ("img1", np.ones(2, "<i4")),  # not float32
    ])
    def test_unexpected_array_rejected(self, tmp_path, name, array):
        path = tmp_path / "encoders.bin"
        save_arrays(path, ENCODER_MAGIC, {}, {"img0": np.ones((2, 3), "<f4"), name: array})
        with pytest.raises(EncoderError, match=rf"^unexpected array '{name}' of dtype {array.dtype.str} in "):
            load_encoders(path)

    def test_layout_is_each_nets_parameters_in_order(self, tmp_path):
        models = _pair([4, 3, 2], seed=1)
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_encoders(models, first)
        save_arrays(second, ENCODER_MAGIC, {}, {
            f"{name}{i}": p.astype("<f4")
            for name in ("img", "txt") for i, p in enumerate(models[name].net.parameters())
        })
        assert first.read_bytes() == second.read_bytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_encoders(_pair([6, 5, 4], seed=3), first)
        save_encoders(load_encoders(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_layer_norm_towers_roundtrip_through_save_nets(self, tmp_path):
        rng = np.random.default_rng(5)
        nets = {"img": Mlp.init([4, 3, 2], rng, layer_norm=True), "txt": Mlp.init([4, 2], rng)}
        path = tmp_path / "encoders.bin"
        save_nets(path, ENCODER_MAGIC, {}, nets)
        loaded = load_encoders(path)
        assert [len(layer) for layer in loaded["img"].net.layers] == [4, 2]

    def test_truncated_at_every_offset(self, tmp_path):
        path = tmp_path / "encoders.bin"
        save_encoders(_pair([4, 3, 2], seed=0), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(EncoderError):
                load_encoders(path)
        # a cut inside the header length
        path.write_bytes(b"GEOENC03\x01\x00")
        with pytest.raises(EncoderError, match="truncated"):
            load_encoders(path)

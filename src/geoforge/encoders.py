"""Trainable MLP encoders and the contrastive objectives.

Three losses share one softmax core: the temperature-scaled in-batch
softmax loss, the two-term sum used for multimodal pin embeddings
(image-text plus board-co-save pin-pin), and the per-task sum for
query/entity encoders. Only the pin pair is trained; the per-task sum is
kept as the checked query/entity objective. All gradients are analytic and
checked against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Corpus, load_arrays, save_arrays
from .mlp import Mlp

ENCODER_MAGIC = b"GEOENC02"
DEFAULT_TEMPERATURE = 0.07


class EncoderError(ValueError):
    pass


@dataclass
class EncoderModel:
    """An encoder tower: ReLU hidden layers and an L2-normalized linear
    output (`mlp.Mlp` without LayerNorm)."""

    net: Mlp

    @property
    def output_dim(self) -> int:
        return self.net.output_dim

    def encode(self, vector: np.ndarray) -> np.ndarray:
        out, _ = self.net.forward(vector, EncoderError)
        return out[0]

    def encode_batch(self, matrix: np.ndarray) -> np.ndarray:
        out, _ = self.net.forward(matrix, EncoderError)
        return out


@dataclass
class ContrastiveBatch:
    anchors: np.ndarray
    positives: np.ndarray
    temperature: float = DEFAULT_TEMPERATURE

    def validate(self) -> None:
        if self.temperature <= 0:
            raise EncoderError(f"temperature must be positive, got {self.temperature}")
        if self.anchors.shape != self.positives.shape:
            raise EncoderError(
                f"anchor/positive shape mismatch: {self.anchors.shape} vs "
                f"{self.positives.shape}"
            )
        if self.anchors.shape[0] < 2:
            raise EncoderError("in-batch negatives require at least 2 rows")


def softmax_contrastive_loss(
    batch: ContrastiveBatch,
) -> tuple[float, np.ndarray, np.ndarray]:
    """In-batch softmax loss with temperature scaling.

    Row i's positive is positives[i]; all other rows' positives act as its
    negatives. Returns (mean loss, d/d anchors, d/d positives).
    """
    batch.validate()
    x, y, tau = (
        np.asarray(batch.anchors, dtype=np.float64),
        np.asarray(batch.positives, dtype=np.float64),
        batch.temperature,
    )
    n = x.shape[0]
    logits = (x @ y.T) / tau
    # row-wise stable log-softmax
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -float(np.mean(np.diag(log_probs)))
    probs = np.exp(log_probs)
    d_logits = (probs - np.eye(n)) / n
    d_x = (d_logits @ y) / tau
    d_y = (d_logits.T @ x) / tau
    return loss, d_x, d_y


def pinclip_loss(
    img_txt: ContrastiveBatch, pin_pin: ContrastiveBatch
) -> tuple[float, dict[str, np.ndarray]]:
    """Sum of the image-text loss and the board-co-save pin-pin loss."""
    loss_it, d_it_x, d_it_y = softmax_contrastive_loss(img_txt)
    loss_pp, d_pp_x, d_pp_y = softmax_contrastive_loss(pin_pin)
    grads = {
        "img_txt_anchors": d_it_x,
        "img_txt_positives": d_it_y,
        "pin_pin_anchors": d_pp_x,
        "pin_pin_positives": d_pp_y,
    }
    return loss_it + loss_pp, grads


def searchsage_loss(
    tasks: dict[str, ContrastiveBatch],
) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Per-task softmax losses summed over all task types."""
    if not tasks:
        raise EncoderError("task set is empty")
    total = 0.0
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, batch in tasks.items():
        loss, d_x, d_y = softmax_contrastive_loss(batch)
        total += loss
        grads[name] = (d_x, d_y)
    return total, grads


@dataclass
class TrainConfig:
    # linear towers by default: hidden ReLU layers skew all pairwise cosines
    # positive, which breaks judge thresholds on out-of-cluster probes
    hidden_dims: list[int] = field(default_factory=list)
    output_dim: int = 48
    steps: int = 200
    batch_size: int = 128
    learning_rate: float = 0.05
    temperature: float = DEFAULT_TEMPERATURE
    seed: int = 0


def _coboard_pairs(corpus: Corpus) -> list[tuple[int, int]]:
    boards: dict[int, list[int]] = {}
    for sig, pin in corpus.pins.items():
        if pin.board_id is not None:
            boards.setdefault(pin.board_id, []).append(sig)
    pairs = []
    for members in boards.values():
        members.sort()
        for i in range(len(members) - 1):
            pairs.append((members[i], members[i + 1]))
    return pairs


@dataclass
class TrainResult:
    encoders: dict[str, EncoderModel]
    log: list[tuple[int, float, float]]  # (step, loss, grad_norm)


def train_encoder(corpus: Corpus, loss_kind: str, config: TrainConfig) -> TrainResult:
    """Train the encoder pair for one embedding family with plain SGD.

    Only ``pinclip`` is trained: an image tower and a text tower on
    image-text plus co-board pin-pin pairs.
    """
    if loss_kind != "pinclip":
        raise EncoderError(f"unknown loss kind {loss_kind!r}")
    rng = np.random.default_rng(config.seed)
    img = Mlp.init([corpus.d_v, *config.hidden_dims, config.output_dim], rng)
    txt = Mlp.init([corpus.d_t, *config.hidden_dims, config.output_dim], rng)
    encoders = {"img": EncoderModel(img), "txt": EncoderModel(txt)}
    signatures = sorted(corpus.pins)
    coboard = _coboard_pairs(corpus)
    if not coboard:
        raise EncoderError("pinclip training needs board co-save pairs")

    log: list[tuple[int, float, float]] = []
    for step in range(config.steps):
        idx = rng.choice(len(signatures), size=min(config.batch_size, len(signatures)), replace=False)
        sigs = [signatures[int(i)] for i in idx]
        vis = np.stack([corpus.pins[s].visual_embedding for s in sigs])
        txt_in = np.stack([corpus.pins[s].text_embedding for s in sigs])
        pp_idx = rng.choice(len(coboard), size=min(config.batch_size, len(coboard)), replace=False)
        pp = [coboard[int(i)] for i in pp_idx]
        vis_a = np.stack([corpus.pins[a].visual_embedding for a, _ in pp])
        vis_b = np.stack([corpus.pins[b].visual_embedding for _, b in pp])

        enc_vis, cache_vis = img.forward(vis, EncoderError)
        enc_txt, cache_txt = txt.forward(txt_in, EncoderError)
        enc_a, cache_a = img.forward(vis_a, EncoderError)
        enc_b, cache_b = img.forward(vis_b, EncoderError)
        loss, grads = pinclip_loss(
            ContrastiveBatch(enc_vis, enc_txt, config.temperature),
            ContrastiveBatch(enc_a, enc_b, config.temperature),
        )
        g_img = img.backward(cache_vis, grads["img_txt_anchors"])
        g_a = img.backward(cache_a, grads["pin_pin_anchors"])
        g_b = img.backward(cache_b, grads["pin_pin_positives"])
        g_img = [g + (a + b) for g, a, b in zip(g_img, g_a, g_b)]
        g_txt = txt.backward(cache_txt, grads["img_txt_positives"])
        img.sgd_step(g_img, config.learning_rate)
        txt.sgd_step(g_txt, config.learning_rate)
        # all weights, then all biases: the order the logged norm has always summed in
        _log_step(log, step, loss, g_img[::2] + g_txt[::2] + g_img[1::2] + g_txt[1::2], encoders)
    return TrainResult(encoders=encoders, log=log)


def _log_step(
    log: list[tuple[int, float, float]], step: int, loss: float,
    grads: list[np.ndarray], encoders: dict[str, EncoderModel],
) -> None:
    """Append (step, loss, gradient norm) to the log; a non-finite loss raises."""
    if not np.isfinite(loss):
        norms = {k: float(np.linalg.norm(m.net.layers[0][0])) for k, m in encoders.items()}
        raise EncoderError(f"NaN loss at step {step}; parameter norms {norms}")
    log.append((step, float(loss), float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))))


def save_model(model: EncoderModel, path: str | Path) -> None:
    """Save each layer's weights and biases as float32 ``w{i}`` and ``b{i}``."""
    arrays = {}
    for i, (w, b) in enumerate(model.net.layers):
        arrays[f"w{i}"] = w.astype("<f4")
        arrays[f"b{i}"] = b.astype("<f4")
    save_arrays(path, ENCODER_MAGIC, {}, arrays)


def load_model(path: str | Path) -> EncoderModel:
    """Read a `save_model` checkpoint; damage or unchained shapes raise EncoderError."""
    _, arrays = load_arrays(path, ENCODER_MAGIC, EncoderError, {})
    n_layers = len(arrays) // 2
    names = [f"{kind}{i}" for i in range(n_layers) for kind in "wb"]
    if n_layers == 0 or {n: a.dtype.str for n, a in arrays.items()} != dict.fromkeys(names, "<f4"):
        raise EncoderError(f"unexpected array names or dtypes in {path}")
    params = [arrays[name] for name in names]
    # layer sizes: the first weight's fan-in, then each bias's length
    dims = [*params[0].shape[1:2], *(b.size for b in params[1::2])]
    return EncoderModel(Mlp.from_parameters(params, dims, False, EncoderError, path))

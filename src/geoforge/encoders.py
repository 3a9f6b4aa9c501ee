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
from .mlp import Mlp, backward_blocks, forward_blocks

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
    coboard = _coboard_pairs(corpus)
    if not coboard:
        raise EncoderError("pinclip training needs board co-save pairs")
    visual, text = corpus.visual, corpus.text
    pair_rows = np.searchsorted(corpus.signatures, coboard)

    log: list[tuple[int, float, float]] = []
    for step in range(config.steps):
        idx = rng.choice(len(visual), size=min(config.batch_size, len(visual)), replace=False)
        pp_idx = rng.choice(len(coboard), size=min(config.batch_size, len(coboard)), replace=False)
        rows_a, rows_b = pair_rows[pp_idx].T
        (enc_vis, enc_a, enc_b, enc_txt), cache = forward_blocks(
            [(img, visual[idx]), (img, visual[rows_a]), (img, visual[rows_b]), (txt, text[idx])],
            EncoderError,
        )
        loss, grads = pinclip_loss(
            ContrastiveBatch(enc_vis, enc_txt, config.temperature),
            ContrastiveBatch(enc_a, enc_b, config.temperature),
        )
        g_img, g_a, g_b, g_txt = backward_blocks(
            cache,
            [grads[k] for k in ("img_txt_anchors", "pin_pin_anchors", "pin_pin_positives", "img_txt_positives")],
        )
        g_img += g_a + g_b
        img.flat -= config.learning_rate * g_img
        txt.flat -= config.learning_rate * g_txt
        # all weights, then all biases: the order the logged norm has always summed in
        (w_img, b_img), (w_txt, b_txt) = zip(*img.layered(g_img)), zip(*txt.layered(g_txt))
        _log_step(log, step, loss, [*w_img, *w_txt, *b_img, *b_txt], encoders)
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

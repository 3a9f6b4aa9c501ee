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

from .core import Corpus
from .mlp import Mlp, backward_blocks, forward_blocks, load_nets, save_nets, sgd_step

ENCODER_MAGIC = b"GEOENC03"
# the towers `train_encoder` trains, by name in its result and its checkpoint
ENCODER_NETS = ("img", "txt")
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
        return self.net.forward(vector, EncoderError)[0]

    def encode_batch(self, matrix: np.ndarray) -> np.ndarray:
        return self.net.forward(matrix, EncoderError)


def softmax_contrastive_loss(
    x: np.ndarray, y: np.ndarray, temperature: float = DEFAULT_TEMPERATURE,
) -> tuple[float, np.ndarray, np.ndarray]:
    """In-batch softmax loss with temperature scaling.

    Row i's positive is y[i]; all other rows of y act as its negatives.
    Returns (mean loss, d/d x, d/d y).
    """
    if not (0.0 < temperature < np.inf and 1.0 / float(temperature) < np.inf):
        raise EncoderError(f"temperature and its reciprocal must be positive and finite, got {temperature}")
    if x.shape != y.shape:
        raise EncoderError(f"anchor/positive shape mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] < 2:
        raise EncoderError("in-batch negatives require at least 2 rows")
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    logits = (x @ y.T) / temperature
    # row-wise stable log-softmax
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -float(np.mean(np.diag(log_probs)))
    probs = np.exp(log_probs)
    d_logits = (probs - np.eye(n)) / n
    d_x = (d_logits @ y) / temperature
    d_y = (d_logits.T @ x) / temperature
    return loss, d_x, d_y


def pinclip_loss(
    outputs: list[np.ndarray], temperature: float = DEFAULT_TEMPERATURE,
) -> tuple[float, list[np.ndarray]]:
    """The image-text loss plus the board-co-save pin-pin loss over the
    block outputs ``(vis, a, b, txt)`` in `forward_blocks` order: image
    rows against their text rows, and co-board pins a against b. The
    gradients come back in that same order."""
    vis, a, b, txt = outputs
    loss_it, d_vis, d_txt = softmax_contrastive_loss(vis, txt, temperature)
    loss_pp, d_a, d_b = softmax_contrastive_loss(a, b, temperature)
    return loss_it + loss_pp, [d_vis, d_a, d_b, d_txt]


def searchsage_loss(
    tasks: dict[str, tuple[np.ndarray, np.ndarray]], temperature: float = DEFAULT_TEMPERATURE,
) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Per-task softmax losses over ``(x, y)`` pairs, summed over all task types."""
    if not tasks:
        raise EncoderError("task set is empty")
    total = 0.0
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, (x, y) in tasks.items():
        loss, d_x, d_y = softmax_contrastive_loss(x, y, temperature)
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

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise EncoderError(f"TrainConfig.steps must be at least 1, got {self.steps}")
        if self.batch_size < 2:  # in-batch negatives need a second row
            raise EncoderError(f"TrainConfig.batch_size must be at least 2, got {self.batch_size}")
        if self.output_dim < 1:
            raise EncoderError(f"TrainConfig.output_dim must be at least 1, got {self.output_dim}")
        if any(width < 1 for width in self.hidden_dims):
            raise EncoderError(
                f"TrainConfig.hidden_dims widths must be at least 1, got {self.hidden_dims}"
            )
        if not 0.0 < self.learning_rate < np.inf:
            raise EncoderError(
                f"TrainConfig.learning_rate must be positive and finite, got {self.learning_rate}"
            )


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
        outputs, cache = forward_blocks(
            [(img, visual[idx]), (img, visual[rows_a]), (img, visual[rows_b]), (txt, text[idx])],
            EncoderError,
        )
        loss, grads = pinclip_loss(outputs, config.temperature)
        g_img, g_a, g_b, g_txt = backward_blocks(cache, grads)
        g_img += g_a + g_b
        if not np.isfinite(loss):
            norms = {k: float(np.linalg.norm(m.net.layers[0][0])) for k, m in encoders.items()}
            raise EncoderError(f"NaN loss at step {step}; parameter norms {norms}")
        sgd_step(img, g_img, config.learning_rate, EncoderError, step)
        sgd_step(txt, g_txt, config.learning_rate, EncoderError, step)
        log.append((step, loss, float(np.sqrt(g_img @ g_img + g_txt @ g_txt))))
    return TrainResult(encoders=encoders, log=log)


def save_encoders(encoders: dict[str, EncoderModel], path: str | Path) -> None:
    """Save the ENCODER_NETS towers in one `mlp.save_nets` file."""
    save_nets(path, ENCODER_MAGIC, {}, {name: encoders[name].net for name in ENCODER_NETS})


def load_encoders(path: str | Path) -> dict[str, EncoderModel]:
    """Read a `save_encoders` file; damage or unchained shapes raise EncoderError."""
    _, nets = load_nets(path, ENCODER_MAGIC, EncoderError, {}, ENCODER_NETS)
    return {name: EncoderModel(net) for name, net in nets.items()}

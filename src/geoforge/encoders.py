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

ENCODER_MAGIC = b"GEOENC02"
DEFAULT_TEMPERATURE = 0.07


class EncoderError(ValueError):
    pass


@dataclass
class EncoderModel:
    """MLP with ReLU hidden layers and an L2-normalized linear output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @classmethod
    def init(
        cls,
        input_dim: int,
        hidden_dims: list[int],
        output_dim: int,
        rng: np.random.Generator,
    ) -> "EncoderModel":
        dims = [input_dim, *hidden_dims, output_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases)

    def forward(self, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
        """Batch forward pass (rows are inputs); returns unit-norm rows and
        the cache needed for backprop."""
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise EncoderError(
                f"input dim {x.shape[1]} does not match model dim {self.input_dim}"
            )
        cache: dict = {"inputs": [x], "pre": []}
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            cache["pre"].append(z)
            if i < len(self.weights) - 1:
                h = np.maximum(z, 0.0)
                cache["inputs"].append(h)
            else:
                h = z
        if not np.all(np.isfinite(h)):
            raise EncoderError("non-finite activations in forward pass")
        norms = np.linalg.norm(h, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise EncoderError("zero-norm output before normalization")
        cache["raw"] = h
        cache["norms"] = norms
        return h / norms, cache

    def backward(self, cache: dict, d_out: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradients of the loss w.r.t. weights and biases given d(loss)/d(output)."""
        raw, norms = cache["raw"], cache["norms"]
        unit = raw / norms
        # through L2 normalization: dz = (du - u (u . du)) / ||z||
        dz = (d_out - unit * np.sum(unit * d_out, axis=1, keepdims=True)) / norms
        d_weights = [np.zeros_like(w) for w in self.weights]
        d_biases = [np.zeros_like(b) for b in self.biases]
        grad = dz
        for i in reversed(range(len(self.weights))):
            if i < len(self.weights) - 1:
                grad = grad * (cache["pre"][i] > 0.0)
            d_weights[i] = grad.T @ cache["inputs"][i]
            d_biases[i] = grad.sum(axis=0)
            if i > 0:
                grad = grad @ self.weights[i]
        return d_weights, d_biases

    def encode(self, vector: np.ndarray) -> np.ndarray:
        out, _ = self.forward(vector)
        return out[0]

    def encode_batch(self, matrix: np.ndarray) -> np.ndarray:
        out, _ = self.forward(matrix)
        return out

    def apply_gradients(self, d_weights, d_biases, lr: float) -> None:
        for w, dw in zip(self.weights, d_weights):
            w -= lr * dw
        for b, db in zip(self.biases, d_biases):
            b -= lr * db


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
    img = EncoderModel.init(corpus.d_v, config.hidden_dims, config.output_dim, rng)
    txt = EncoderModel.init(corpus.d_t, config.hidden_dims, config.output_dim, rng)
    encoders = {"img": img, "txt": txt}
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

        enc_vis, cache_vis = img.forward(vis)
        enc_txt, cache_txt = txt.forward(txt_in)
        enc_a, cache_a = img.forward(vis_a)
        enc_b, cache_b = img.forward(vis_b)
        loss, grads = pinclip_loss(
            ContrastiveBatch(enc_vis, enc_txt, config.temperature),
            ContrastiveBatch(enc_a, enc_b, config.temperature),
        )
        dw_img, db_img = img.backward(cache_vis, grads["img_txt_anchors"])
        dw_a, db_a = img.backward(cache_a, grads["pin_pin_anchors"])
        dw_b, db_b = img.backward(cache_b, grads["pin_pin_positives"])
        for i in range(len(dw_img)):
            dw_img[i] += dw_a[i] + dw_b[i]
            db_img[i] += db_a[i] + db_b[i]
        dw_txt, db_txt = txt.backward(cache_txt, grads["img_txt_positives"])
        img.apply_gradients(dw_img, db_img, config.learning_rate)
        txt.apply_gradients(dw_txt, db_txt, config.learning_rate)
        _log_step(log, step, loss, dw_img + dw_txt + db_img + db_txt, encoders)
    return TrainResult(encoders=encoders, log=log)


def _log_step(
    log: list[tuple[int, float, float]], step: int, loss: float,
    grads: list[np.ndarray], encoders: dict[str, EncoderModel],
) -> None:
    """Append (step, loss, gradient norm) to the log; a non-finite loss raises."""
    if not np.isfinite(loss):
        norms = {k: float(np.linalg.norm(m.weights[0])) for k, m in encoders.items()}
        raise EncoderError(f"NaN loss at step {step}; parameter norms {norms}")
    log.append((step, float(loss), float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))))


def save_model(model: EncoderModel, path: str | Path) -> None:
    """Save each layer's weights and biases as float32 ``w{i}`` and ``b{i}``."""
    arrays = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
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
    weights = [arrays[f"w{i}"].astype(np.float64) for i in range(n_layers)]
    biases = [arrays[f"b{i}"].astype(np.float64) for i in range(n_layers)]
    if any(w.ndim != 2 or b.shape != w.shape[:1] for w, b in zip(weights, biases)) or any(
        w.shape[0] != nxt.shape[1] for w, nxt in zip(weights, weights[1:])
    ):
        raise EncoderError(f"layer shapes do not chain in {path}")
    return EncoderModel(weights=weights, biases=biases)


def write_train_log(log: list[tuple[int, float, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss,grad_norm\n")
        for step, loss, grad_norm in log:
            fh.write(f"{step},{loss:.10g},{grad_norm:.10g}\n")

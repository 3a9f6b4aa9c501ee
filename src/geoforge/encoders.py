"""Trainable MLP encoders and the contrastive objectives.

Three losses share one softmax core: the temperature-scaled in-batch
softmax loss, the two-term sum used for multimodal pin embeddings
(image-text plus board-co-save pin-pin), and the per-task sum used for
engagement-trained query/entity encoders. All gradients are analytic and
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Corpus, rng_for

ENCODER_MAGIC = b"GEOENC01"
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


def _engagement_pairs(corpus: Corpus) -> list[tuple[str, int]]:
    from .curation import retain

    seen = set()
    pairs = []
    by_text = {q.text: q for q in corpus.queries}
    for record in corpus.engagement:
        key = (record.query_text, record.pin_signature)
        if key in seen or record.query_text not in by_text:
            continue
        if retain(record):
            seen.add(key)
            pairs.append(key)
    return pairs


@dataclass
class TrainResult:
    encoders: dict[str, EncoderModel]
    log: list[tuple[int, float, float]]  # (step, loss, grad_norm)


def train_encoder(corpus: Corpus, loss_kind: str, config: TrainConfig) -> TrainResult:
    """Train the encoder pair for one embedding family with plain SGD.

    ``pinclip`` trains an image tower and a text tower on image-text plus
    co-board pin-pin pairs; ``searchsage`` trains a query tower and an
    entity tower on retained engagement pairs.
    """
    rng = np.random.default_rng(config.seed)
    if loss_kind == "pinclip":
        encoders = {
            "img": EncoderModel.init(corpus.d_v, config.hidden_dims, config.output_dim, rng),
            "txt": EncoderModel.init(corpus.d_t, config.hidden_dims, config.output_dim, rng),
        }
        signatures = sorted(corpus.pins)
        coboard = _coboard_pairs(corpus)
        if not coboard:
            raise EncoderError("pinclip training needs board co-save pairs")
    elif loss_kind == "searchsage":
        encoders = {
            "qry": EncoderModel.init(corpus.d_t, config.hidden_dims, config.output_dim, rng),
            "ent": EncoderModel.init(corpus.d_t, config.hidden_dims, config.output_dim, rng),
        }
        engaged = _engagement_pairs(corpus)
        if not engaged:
            raise EncoderError("searchsage training needs retained engagement pairs")
        by_text = {q.text: q for q in corpus.queries}
    else:
        raise EncoderError(f"unknown loss kind {loss_kind!r}")

    log: list[tuple[int, float, float]] = []
    for step in range(config.steps):
        if loss_kind == "pinclip":
            idx = rng.choice(len(signatures), size=min(config.batch_size, len(signatures)), replace=False)
        elif loss_kind == "searchsage":
            idx = rng.choice(len(engaged), size=min(config.batch_size, len(engaged)), replace=False)
        if loss_kind == "pinclip":
            sigs = [signatures[int(i)] for i in idx]
            vis = np.stack([corpus.pins[s].visual_embedding for s in sigs])
            txt = np.stack([corpus.pins[s].text_embedding for s in sigs])
            pp_idx = rng.choice(len(coboard), size=min(config.batch_size, len(coboard)), replace=False)
            pp = [coboard[int(i)] for i in pp_idx]
            vis_a = np.stack([corpus.pins[a].visual_embedding for a, _ in pp])
            vis_b = np.stack([corpus.pins[b].visual_embedding for _, b in pp])

            enc_vis, cache_vis = encoders["img"].forward(vis)
            enc_txt, cache_txt = encoders["txt"].forward(txt)
            enc_a, cache_a = encoders["img"].forward(vis_a)
            enc_b, cache_b = encoders["img"].forward(vis_b)
            loss, grads = pinclip_loss(
                ContrastiveBatch(enc_vis, enc_txt, config.temperature),
                ContrastiveBatch(enc_a, enc_b, config.temperature),
            )
            dw_img, db_img = encoders["img"].backward(cache_vis, grads["img_txt_anchors"])
            dw_a, db_a = encoders["img"].backward(cache_a, grads["pin_pin_anchors"])
            dw_b, db_b = encoders["img"].backward(cache_b, grads["pin_pin_positives"])
            for i in range(len(dw_img)):
                dw_img[i] += dw_a[i] + dw_b[i]
                db_img[i] += db_a[i] + db_b[i]
            dw_txt, db_txt = encoders["txt"].backward(cache_txt, grads["img_txt_positives"])
            grad_norm = float(
                np.sqrt(sum(float(np.sum(g * g)) for g in dw_img + dw_txt + db_img + db_txt))
            )
            encoders["img"].apply_gradients(dw_img, db_img, config.learning_rate)
            encoders["txt"].apply_gradients(dw_txt, db_txt, config.learning_rate)
        else:
            chosen = [engaged[int(i)] for i in idx]
            q_emb = np.stack([by_text[q].embedding for q, _ in chosen])
            e_emb = np.stack([corpus.pins[s].text_embedding for _, s in chosen])
            enc_q, cache_q = encoders["qry"].forward(q_emb)
            enc_e, cache_e = encoders["ent"].forward(e_emb)
            loss, grads = searchsage_loss(
                {"QueryPin": ContrastiveBatch(enc_q, enc_e, config.temperature)}
            )
            d_q, d_e = grads["QueryPin"]
            dw_q, db_q = encoders["qry"].backward(cache_q, d_q)
            dw_e, db_e = encoders["ent"].backward(cache_e, d_e)
            grad_norm = float(
                np.sqrt(sum(float(np.sum(g * g)) for g in dw_q + dw_e + db_q + db_e))
            )
            encoders["qry"].apply_gradients(dw_q, db_q, config.learning_rate)
            encoders["ent"].apply_gradients(dw_e, db_e, config.learning_rate)

        if not np.isfinite(loss):
            norms = {k: float(np.linalg.norm(m.weights[0])) for k, m in encoders.items()}
            raise EncoderError(f"NaN loss at step {step}; parameter norms {norms}")
        log.append((step, float(loss), grad_norm))

    return TrainResult(encoders=encoders, log=log)


def save_model(model: EncoderModel, path: str | Path, magic: bytes = ENCODER_MAGIC) -> None:
    """Checkpoint envelope: magic, layer count, per-layer dims, f32 weights."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(model.weights)))
        for w in model.weights:
            fh.write(struct.pack("<II", *w.shape))
        for w, b in zip(model.weights, model.biases):
            fh.write(w.astype("<f4").tobytes())
            fh.write(b.astype("<f4").tobytes())


def load_model(path: str | Path, magic: bytes = ENCODER_MAGIC) -> EncoderModel:
    with open(path, "rb") as fh:
        header = fh.read(len(magic))
        if header != magic:
            raise EncoderError(f"bad checkpoint magic in {path}")
        try:
            (n_layers,) = struct.unpack("<I", fh.read(4))
            shapes = [struct.unpack("<II", fh.read(8)) for _ in range(n_layers)]
        except struct.error as exc:
            raise EncoderError(f"truncated checkpoint {path}: {exc}") from exc
        weights, biases = [], []
        for rows, cols in shapes:
            weights.append(_read_f32(fh, rows * cols, path).reshape(rows, cols))
            biases.append(_read_f32(fh, rows, path))
    return EncoderModel(weights=weights, biases=biases)


def _read_f32(fh, count: int, path: str | Path) -> np.ndarray:
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise EncoderError(f"truncated checkpoint {path}")
    return np.frombuffer(raw, dtype="<f4").astype(np.float64)


def write_train_log(log: list[tuple[int, float, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss,grad_norm\n")
        for step, loss, grad_norm in log:
            fh.write(f"{step},{loss:.10g},{grad_norm:.10g}\n")

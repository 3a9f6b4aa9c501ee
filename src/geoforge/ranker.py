"""Two-tower annotation ranker.

Each tower is an MLP (linear -> ReLU -> LayerNorm -> Dropout per hidden
layer, then a final linear projection, L2 normalized). Training minimizes
the margin ranking loss max(0, pin.neg - pin.pos + m) with exact analytic
gradients; scoring is the cosine of the two tower outputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import PinRecord, QueryRecord, load_arrays, save_arrays

RANKER_MAGIC = b"GEORNK02"
RANKER_META = {"d_v": int, "d_t": int, "hidden": [int], "output_dim": int,
               "dropout_rate": float, "margin": float, "width_mult": float}
LN_EPS = 1e-5


class RankerError(ValueError):
    pass


@dataclass
class TowerConfig:
    d_v: int = 1028
    d_t: int = 768
    hidden: list[int] = field(default_factory=lambda: [512, 384, 256])
    output_dim: int = 128
    dropout_rate: float = 0.1
    margin: float = 0.95
    width_mult: float = 1.0

    def __post_init__(self) -> None:
        if not self.hidden:
            raise RankerError("hidden layer list must be non-empty")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise RankerError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if self.margin <= 0:
            raise RankerError(f"margin must be positive, got {self.margin}")

    @property
    def pin_input_dim(self) -> int:
        return self.d_v + self.d_t + 1

    @property
    def query_input_dim(self) -> int:
        return self.d_t + 1

    def scaled_hidden(self) -> list[int]:
        return [max(2, int(round(h * self.width_mult))) for h in self.hidden]

    def scaled_output(self) -> int:
        return max(2, int(round(self.output_dim * self.width_mult)))


def pin_features(pin: PinRecord) -> np.ndarray:
    return np.concatenate(
        [pin.visual_embedding, pin.text_embedding, [pin.perception_score]]
    )


def query_features(query: QueryRecord) -> np.ndarray:
    if query.embedding is None:
        raise RankerError(f"query {query.text!r} lacks an embedding")
    length_score = min(len(query.text.split()), 16) / 16.0
    return np.concatenate([query.embedding, [length_score]])


@dataclass
class Tower:
    """Parameters for one tower: hidden (W, b, gamma, beta) plus final (W, b)."""

    hidden: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    final_w: np.ndarray
    final_b: np.ndarray

    @classmethod
    def init(
        cls, input_dim: int, hidden_dims: list[int], output_dim: int,
        rng: np.random.Generator,
    ) -> "Tower":
        layers = []
        fan_in = input_dim
        for width in hidden_dims:
            scale = np.sqrt(2.0 / fan_in)
            layers.append(
                (
                    rng.standard_normal((width, fan_in)) * scale,
                    np.zeros(width),
                    np.ones(width),
                    np.zeros(width),
                )
            )
            fan_in = width
        final_w = rng.standard_normal((output_dim, fan_in)) * np.sqrt(1.0 / fan_in)
        return cls(hidden=layers, final_w=final_w, final_b=np.zeros(output_dim))

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b, gamma, beta in self.hidden:
            out.extend([w, b, gamma, beta])
        out.extend([self.final_w, self.final_b])
        return out


def tower_forward(
    tower: Tower,
    inputs: np.ndarray,
    train: bool = False,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Forward pass; Train mode applies a seeded inverted-scaling dropout mask."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    expected = tower.hidden[0][0].shape[1]
    if x.shape[1] != expected:
        raise RankerError(f"input dim {x.shape[1]} does not match tower dim {expected}")
    cache: dict = {"inputs": [x], "layers": []}
    h = x
    for w, b, gamma, beta in tower.hidden:
        z = h @ w.T + b
        a = np.maximum(z, 0.0)
        mu = a.mean(axis=1, keepdims=True)
        var = a.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (a - mu) * inv_std
        ln = gamma * xhat + beta
        if train and dropout_rate > 0.0:
            if rng is None:
                raise RankerError("Train-mode dropout needs an RNG")
            mask = (rng.random(ln.shape) >= dropout_rate) / (1.0 - dropout_rate)
        else:
            mask = np.ones_like(ln)
        out = ln * mask
        cache["layers"].append(
            {"z": z, "a": a, "inv_std": inv_std, "xhat": xhat, "mask": mask}
        )
        cache["inputs"].append(out)
        h = out
    raw = h @ tower.final_w.T + tower.final_b
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise RankerError("zero-norm tower output before normalization")
    cache["raw"] = raw
    cache["norms"] = norms
    return raw / norms, cache


def tower_backward(tower: Tower, cache: dict, d_out: np.ndarray) -> list[np.ndarray]:
    """Gradients in the same order as tower.parameters()."""
    raw, norms = cache["raw"], cache["norms"]
    unit = raw / norms
    d_raw = (d_out - unit * np.sum(unit * d_out, axis=1, keepdims=True)) / norms
    grads: list[np.ndarray] = []
    d_final_w = d_raw.T @ cache["inputs"][-1]
    d_final_b = d_raw.sum(axis=0)
    grad = d_raw @ tower.final_w
    hidden_grads: list[list[np.ndarray]] = []
    for i in reversed(range(len(tower.hidden))):
        w, b, gamma, beta = tower.hidden[i]
        layer = cache["layers"][i]
        d_ln = grad * layer["mask"]
        d_gamma = (d_ln * layer["xhat"]).sum(axis=0)
        d_beta = d_ln.sum(axis=0)
        d_xhat = d_ln * gamma
        # LayerNorm backward over the feature axis
        dim = d_xhat.shape[1]
        a_centered = layer["xhat"] / layer["inv_std"]
        d_var = np.sum(d_xhat * a_centered * -0.5 * layer["inv_std"] ** 3, axis=1, keepdims=True)
        d_mu = (
            np.sum(-d_xhat * layer["inv_std"], axis=1, keepdims=True)
            + d_var * np.mean(-2.0 * a_centered, axis=1, keepdims=True)
        )
        d_a = d_xhat * layer["inv_std"] + d_var * 2.0 * a_centered / dim + d_mu / dim
        d_z = d_a * (layer["z"] > 0.0)
        d_w = d_z.T @ cache["inputs"][i]
        d_b = d_z.sum(axis=0)
        hidden_grads.append([d_w, d_b, d_gamma, d_beta])
        grad = d_z @ w
    for layer_grads in reversed(hidden_grads):
        grads.extend(layer_grads)
    grads.extend([d_final_w, d_final_b])
    return grads


@dataclass
class RankerModel:
    pin_tower: Tower
    query_tower: Tower
    config: TowerConfig

    @classmethod
    def init(cls, config: TowerConfig, seed: int = 0) -> "RankerModel":
        rng = np.random.default_rng(seed)
        hidden = config.scaled_hidden()
        out = config.scaled_output()
        return cls(
            pin_tower=Tower.init(config.pin_input_dim, hidden, out, rng),
            query_tower=Tower.init(config.query_input_dim, hidden, out, rng),
            config=config,
        )

    def embed_pin(self, features: np.ndarray) -> np.ndarray:
        out, _ = tower_forward(self.pin_tower, features)
        return out

    def embed_query(self, features: np.ndarray) -> np.ndarray:
        out, _ = tower_forward(self.query_tower, features)
        return out


def margin_loss(
    e_pin: np.ndarray, e_pos: np.ndarray, e_neg: np.ndarray, m: float = 0.95
) -> float:
    """Hinge on the similarity gap: max(0, pin.neg - pin.pos + m)."""
    return float(max(0.0, float(np.dot(e_pin, e_neg) - np.dot(e_pin, e_pos)) + m))


def margin_loss_batch(
    e_pin: np.ndarray, e_pos: np.ndarray, e_neg: np.ndarray, m: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean hinge over rows plus gradients w.r.t. the three embeddings."""
    gap = np.sum(e_pin * e_neg, axis=1) - np.sum(e_pin * e_pos, axis=1) + m
    active = (gap > 0.0).astype(np.float64)[:, None]
    n = e_pin.shape[0]
    loss = float(np.maximum(gap, 0.0).mean())
    d_pin = active * (e_neg - e_pos) / n
    d_pos = active * -e_pin / n
    d_neg = active * e_pin / n
    return loss, d_pin, d_pos, d_neg


@dataclass
class RankerTrainConfig:
    steps: int = 300
    batch_size: int = 64
    learning_rate: float = 0.01
    seed: int = 0


def train_ranker(
    triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    config: TowerConfig,
    train: RankerTrainConfig | None = None,
) -> tuple[RankerModel, list[tuple[int, float]]]:
    """SGD over triplets (pin features, positive query feats, negative query
    feats); returns the model and a (step, loss) log.

    Each step runs the query tower once, forward and backward, on the
    positive rows stacked over the negative rows: LayerNorm and dropout act
    per row and weight gradients sum over rows, so this is the gradient of
    separate positive and negative passes."""
    if not triplets:
        raise RankerError("at least one training triplet required")
    train = train or RankerTrainConfig()
    model = RankerModel.init(config, seed=train.seed)
    rng = np.random.default_rng(train.seed + 1)
    pins = np.stack([t[0] for t in triplets])
    positives = np.stack([t[1] for t in triplets])
    negatives = np.stack([t[2] for t in triplets])
    log: list[tuple[int, float]] = []
    for step in range(train.steps):
        idx = rng.choice(len(triplets), size=min(train.batch_size, len(triplets)), replace=False)
        b_pin, b_pos, b_neg = pins[idx], positives[idx], negatives[idx]
        e_pin, cache_pin = tower_forward(
            model.pin_tower, b_pin, train=True,
            dropout_rate=config.dropout_rate, rng=rng,
        )
        e_query, cache_query = tower_forward(
            model.query_tower, np.concatenate([b_pos, b_neg]), train=True,
            dropout_rate=config.dropout_rate, rng=rng,
        )
        e_pos, e_neg = np.split(e_query, 2)
        loss, d_pin, d_pos, d_neg = margin_loss_batch(e_pin, e_pos, e_neg, config.margin)
        if not np.isfinite(loss):
            raise RankerError(f"non-finite loss at step {step}")
        g_pin = tower_backward(model.pin_tower, cache_pin, d_pin)
        g_query = tower_backward(model.query_tower, cache_query, np.concatenate([d_pos, d_neg]))
        for param, grad in zip(model.pin_tower.parameters(), g_pin):
            param -= train.learning_rate * grad
        for param, grad in zip(model.query_tower.parameters(), g_query):
            param -= train.learning_rate * grad
        log.append((step, loss))
    return model, log


def correct_rank(
    model: RankerModel,
    triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> float:
    """Fraction of triplets where the positive outscores the negative.
    Ties count as failures."""
    if not triplets:
        raise RankerError("empty evaluation set")
    pins, positives, negatives = (np.stack(column) for column in zip(*triplets))
    e_pin = model.embed_pin(pins)
    pos_scores = np.sum(e_pin * model.embed_query(positives), axis=1)
    neg_scores = np.sum(e_pin * model.embed_query(negatives), axis=1)
    return float(np.mean(pos_scores > neg_scores))


def save_ranker(model: RankerModel, path: str | Path) -> None:
    """Save the TowerConfig as meta and each tower's `Tower.parameters` as
    float32 arrays ``pin{i}`` and ``query{i}``."""
    arrays = {}
    for prefix, tower in (("pin", model.pin_tower), ("query", model.query_tower)):
        for i, param in enumerate(tower.parameters()):
            arrays[f"{prefix}{i}"] = param.astype("<f4")
    save_arrays(path, RANKER_MAGIC, asdict(model.config), arrays)


def _parameter_shapes(input_dim: int, hidden: list[int], output_dim: int) -> list[tuple]:
    """Shapes of `Tower.parameters`, in order."""
    shapes: list[tuple] = []
    for width in hidden:
        shapes += [(width, input_dim), (width,), (width,), (width,)]
        input_dim = width
    return shapes + [(output_dim, input_dim), (output_dim,)]


def load_ranker(path: str | Path) -> RankerModel:
    """Read a `save_ranker` checkpoint; damage or a shape misfit raises RankerError."""
    meta, arrays = load_arrays(path, RANKER_MAGIC, RankerError, RANKER_META)
    config = TowerConfig(**meta)
    expected = {}
    for prefix, input_dim in (("pin", config.pin_input_dim), ("query", config.query_input_dim)):
        shapes = _parameter_shapes(input_dim, config.scaled_hidden(), config.scaled_output())
        expected |= {f"{prefix}{i}": ("<f4", shape) for i, shape in enumerate(shapes)}
    if {name: (a.dtype.str, a.shape) for name, a in arrays.items()} != expected:
        raise RankerError(f"parameters do not match the tower config in {path}")

    def rebuild(prefix: str) -> Tower:
        params = [
            arrays[f"{prefix}{i}"].astype(np.float64) for i in range(len(expected) // 2)
        ]
        hidden = [tuple(params[i : i + 4]) for i in range(0, len(params) - 2, 4)]
        return Tower(hidden=hidden, final_w=params[-2], final_b=params[-1])

    return RankerModel(pin_tower=rebuild("pin"), query_tower=rebuild("query"), config=config)

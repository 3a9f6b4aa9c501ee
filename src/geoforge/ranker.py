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
from .mlp import Mlp, backward_blocks, forward_blocks

RANKER_MAGIC = b"GEORNK02"
RANKER_META = {"d_v": int, "d_t": int, "hidden": [int], "output_dim": int,
               "dropout_rate": float, "margin": float, "width_mult": float}


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
class RankerModel:
    """Pin and query towers: `mlp.Mlp` with LayerNorm hidden layers."""

    pin_tower: Mlp
    query_tower: Mlp
    config: TowerConfig

    @classmethod
    def init(cls, config: TowerConfig, seed: int = 0) -> "RankerModel":
        rng = np.random.default_rng(seed)
        pin, query = (
            Mlp.init(dims, rng, layer_norm=True, last_gain=1.0) for dims in _tower_dims(config)
        )
        return cls(pin_tower=pin, query_tower=query, config=config)

    def embed_pin(self, features: np.ndarray) -> np.ndarray:
        out, _ = self.pin_tower.forward(features, RankerError)
        return out

    def embed_query(self, features: np.ndarray) -> np.ndarray:
        out, _ = self.query_tower.forward(features, RankerError)
        return out


def _tower_dims(config: TowerConfig) -> list[list[int]]:
    """Layer sizes of the pin tower and of the query tower."""
    hidden, out = config.scaled_hidden(), config.scaled_output()
    return [[config.pin_input_dim, *hidden, out], [config.query_input_dim, *hidden, out]]


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

    Each step runs both towers in one `mlp.forward_blocks` pass, forward and
    backward: the pin rows are one block and the positive rows stacked over
    the negative rows are the other. LayerNorm and dropout act per row and
    weight gradients sum over rows, so this is the gradient of separate
    pin, positive and negative passes."""
    if not triplets:
        raise RankerError("at least one training triplet required")
    train = train or RankerTrainConfig()
    model = RankerModel.init(config, seed=train.seed)
    rng = np.random.default_rng(train.seed + 1)
    n = len(triplets)
    pins = np.stack([t[0] for t in triplets])
    # positives in rows [0, n), negatives in rows [n, 2n)
    queries = np.stack([t[1] for t in triplets] + [t[2] for t in triplets])
    log: list[tuple[int, float]] = []
    for step in range(train.steps):
        idx = rng.choice(n, size=min(train.batch_size, n), replace=False)
        (e_pin, e_query), cache = forward_blocks(
            [(model.pin_tower, pins[idx]), (model.query_tower, queries[np.concatenate([idx, idx + n])])],
            RankerError, config.dropout_rate, rng,
        )
        e_pos, e_neg = np.split(e_query, 2)
        loss, d_pin, d_pos, d_neg = margin_loss_batch(e_pin, e_pos, e_neg, config.margin)
        if not np.isfinite(loss):
            raise RankerError(f"non-finite loss at step {step}")
        g_pin, g_query = backward_blocks(cache, [d_pin, np.concatenate([d_pos, d_neg])])
        model.pin_tower.sgd_step(g_pin, train.learning_rate)
        model.query_tower.sgd_step(g_query, train.learning_rate)
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
    """Save the TowerConfig as meta and each tower's `Mlp.parameters` as
    float32 arrays ``pin{i}`` and ``query{i}``."""
    arrays = {}
    for prefix, tower in (("pin", model.pin_tower), ("query", model.query_tower)):
        for i, param in enumerate(tower.parameters()):
            arrays[f"{prefix}{i}"] = param.astype("<f4")
    save_arrays(path, RANKER_MAGIC, asdict(model.config), arrays)


def load_ranker(path: str | Path) -> RankerModel:
    """Read a `save_ranker` checkpoint; damage or a shape misfit raises RankerError."""
    meta, arrays = load_arrays(path, RANKER_MAGIC, RankerError, RANKER_META)
    config = TowerConfig(**meta)
    n_params = len(arrays) // 2
    names = [f"{prefix}{i}" for prefix in ("pin", "query") for i in range(n_params)]
    if {name: a.dtype.str for name, a in arrays.items()} != dict.fromkeys(names, "<f4"):
        raise RankerError(f"unexpected array names or dtypes in {path}")
    pin, query = (
        Mlp.from_parameters(
            [arrays[f"{prefix}{i}"] for i in range(n_params)], dims, True, RankerError, path
        )
        for prefix, dims in zip(("pin", "query"), _tower_dims(config))
    )
    return RankerModel(pin_tower=pin, query_tower=query, config=config)

"""Two-tower annotation ranker.

Each tower is an MLP (linear -> ReLU -> LayerNorm -> Dropout per hidden
layer, then a final linear projection, L2 normalized). Training minimizes
the margin ranking loss max(0, pin.neg - pin.pos + m) with exact analytic
gradients; scoring is the cosine of the two tower outputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .core import Corpus
from .mlp import Mlp, backward_blocks, forward_blocks, load_nets, save_nets, sgd_step

RANKER_MAGIC = b"GEORNK02"
RANKER_META = {"d_v": int, "d_t": int, "hidden": [int], "output_dim": int,
               "dropout_rate": float, "margin": float}


# Rows per tower pass in `in_blocks`. A pass over 128 rows or more gives each
# row the bits of one whole pass; blocks below 128 rows change them (1, 32 and
# 64 rows did).
_SCORE_BLOCK = 128


class RankerError(ValueError):
    pass


@dataclass
class TowerConfig:
    d_v: int
    d_t: int
    # one eighth of the 512-384-256 -> 128 towers
    hidden: list[int] = field(default_factory=lambda: [64, 48, 32])
    output_dim: int = 16
    dropout_rate: float = 0.1
    margin: float = 0.95

    def __post_init__(self) -> None:
        if not self.hidden:
            raise RankerError("hidden layer list must be non-empty")
        for name in ("d_v", "d_t", "output_dim"):
            if getattr(self, name) < 1:
                raise RankerError(f"{name} must be at least 1, got {getattr(self, name)}")
        if any(width < 1 for width in self.hidden):
            raise RankerError(f"hidden widths must be at least 1, got {self.hidden}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise RankerError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if not 0 < self.margin < np.inf:
            raise RankerError(f"margin must be positive and finite, got {self.margin}")

    @property
    def pin_input_dim(self) -> int:
        return self.d_v + self.d_t + 1

    @property
    def query_input_dim(self) -> int:
        return self.d_t + 1


def pin_features(corpus: Corpus) -> np.ndarray:
    """Pin tower inputs, one row per pin in signature order: its visual and
    text vectors and its perception score."""
    return np.hstack([corpus.visual, corpus.text, [[p.perception_score] for p in corpus.pins.values()]])


def query_features(corpus: Corpus) -> np.ndarray:
    """Query tower inputs, one row per corpus query in order: its embedding
    and its word count over 16, capped at 1."""
    lengths = [[min(len(q.text.split()), 16) / 16.0] for q in corpus.queries]
    return np.hstack([corpus.query_embeddings, lengths])


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
            Mlp.init([dim, *config.hidden, config.output_dim], rng, layer_norm=True, last_gain=1.0)
            for dim in (config.pin_input_dim, config.query_input_dim)
        )
        return cls(pin_tower=pin, query_tower=query, config=config)

    def embed_pin(self, features: np.ndarray) -> np.ndarray:
        return self.pin_tower.forward(features, RankerError)

    def embed_query(self, features: np.ndarray) -> np.ndarray:
        return self.query_tower.forward(features, RankerError)


def margin_loss_batch(
    e_pin: np.ndarray, e_query: np.ndarray, m: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean over rows of the hinge max(0, pin.neg - pin.pos + m), where
    ``e_query`` holds the positive rows over the negative rows, as a
    `mlp.forward_blocks` block lays them out; plus its gradients w.r.t.
    ``e_pin`` and ``e_query``."""
    n = len(e_pin)
    if e_query.shape != (2 * n, e_pin.shape[1]):
        raise RankerError(f"query rows {e_query.shape} are not two stacks of pin rows {e_pin.shape}")
    e_pos, e_neg = e_query[:n], e_query[n:]
    gap = np.sum(e_pin * e_neg, axis=1) - np.sum(e_pin * e_pos, axis=1) + m
    active = (gap > 0.0).astype(np.float64)[:, None]
    loss = float(np.maximum(gap, 0.0).mean())
    d_pin = active * (e_neg - e_pos) / n
    d_neg = active * e_pin / n
    return loss, d_pin, np.concatenate([-d_neg, d_neg])


@dataclass
class RankerTrainConfig:
    # the pipeline's budget (train-ranker trains at learning_rate, and at
    # steps unless PipelineConfig.ranker_steps says otherwise), chosen by
    # held-out top-1 cluster and correct_rank over corpus, split and ranker
    # seeds: see README, "The ranker's budget"
    steps: int = 500
    batch_size: int = 64
    learning_rate: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise RankerError(f"RankerTrainConfig.steps must be at least 1, got {self.steps}")
        if self.batch_size < 1:
            raise RankerError(f"RankerTrainConfig.batch_size must be at least 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:
            raise RankerError(
                f"RankerTrainConfig.learning_rate must be positive and finite, got {self.learning_rate}"
            )


@dataclass(frozen=True, eq=False)
class Triplets:
    """(pin, positive query, negative query) feature triplets over rows kept
    once: triplet i is ``pins[pin[i]]``, ``queries[pos[i]]`` and
    ``queries[neg[i]]``."""

    pins: np.ndarray
    queries: np.ndarray
    pin: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __len__(self) -> int:
        return len(self.pin)

    def __getitem__(self, index) -> "Triplets":
        """The triplets at ``index`` (a slice or an index array), over the same rows."""
        return Triplets(self.pins, self.queries, self.pin[index], self.pos[index], self.neg[index])


def in_blocks(n: int, fn: Callable[[slice], np.ndarray]) -> np.ndarray:
    """``fn`` of consecutive slices of range(n), concatenated: blocks of
    _SCORE_BLOCK rows, the last taking the rest, so a block has 128 to 255
    rows unless n is smaller and tower passes keep one whole pass's bits."""
    bounds = [*range(0, max(n // _SCORE_BLOCK, 1) * _SCORE_BLOCK, _SCORE_BLOCK), n]
    return np.concatenate([fn(slice(start, end)) for start, end in zip(bounds, bounds[1:])])


def train_ranker(
    triplets: Triplets,
    config: TowerConfig,
    train: RankerTrainConfig | None = None,
) -> tuple[RankerModel, list[tuple[int, float]]]:
    """SGD over the triplets; returns the model and a (step, loss) log.

    Each step gathers its batch's rows from the triplets' matrices, so memory
    does not grow with the number of triplets, and runs both towers in one
    `mlp.forward_blocks` pass, forward and backward: the pin rows are one
    block and the positive rows over the negative rows the other. LayerNorm
    and dropout act per row and weight gradients sum over rows, so this is
    the gradient of separate pin, positive and negative passes."""
    if not len(triplets):
        raise RankerError("at least one training triplet required")
    train = train or RankerTrainConfig()
    model = RankerModel.init(config, seed=train.seed)
    rng = np.random.default_rng(train.seed + 1)
    n = len(triplets)
    log: list[tuple[int, float]] = []
    for step in range(train.steps):
        idx = rng.choice(n, size=min(train.batch_size, n), replace=False)
        queries = triplets.queries[np.concatenate([triplets.pos[idx], triplets.neg[idx]])]
        (e_pin, e_query), cache = forward_blocks(
            [(model.pin_tower, triplets.pins[triplets.pin[idx]]), (model.query_tower, queries)],
            RankerError, config.dropout_rate, rng,
        )
        loss, d_pin, d_query = margin_loss_batch(e_pin, e_query, config.margin)
        if not np.isfinite(loss):
            raise RankerError(f"non-finite loss at step {step}")
        g_pin, g_query = backward_blocks(cache, [d_pin, d_query])
        sgd_step(model.pin_tower, g_pin, train.learning_rate, RankerError, step)
        sgd_step(model.query_tower, g_query, train.learning_rate, RankerError, step)
        log.append((step, loss))
    return model, log


def correct_rank(model: RankerModel, triplets: Triplets) -> float:
    """Fraction of triplets where the positive outscores the negative.
    Ties count as failures. The towers run on `in_blocks` blocks of
    triplets, so memory does not grow with the evaluation set."""
    if not len(triplets):
        raise RankerError("empty evaluation set")

    def wins(block: slice) -> np.ndarray:
        t = triplets[block]
        e_pin = model.embed_pin(t.pins[t.pin])
        pos_scores = np.sum(e_pin * model.embed_query(t.queries[t.pos]), axis=1)
        neg_scores = np.sum(e_pin * model.embed_query(t.queries[t.neg]), axis=1)
        return pos_scores > neg_scores

    return int(np.count_nonzero(in_blocks(len(triplets), wins))) / len(triplets)


def save_ranker(model: RankerModel, path: str | Path) -> None:
    """Save the TowerConfig as meta and the towers as `mlp.save_nets`
    nets ``pin`` and ``query``."""
    save_nets(path, RANKER_MAGIC, asdict(model.config),
              {"pin": model.pin_tower, "query": model.query_tower})


def load_ranker(path: str | Path) -> RankerModel:
    """Read a `save_ranker` checkpoint; damage, or towers whose shapes are
    not the ones its TowerConfig declares, raise RankerError."""
    meta, towers = load_nets(path, RANKER_MAGIC, RankerError, RANKER_META, ("pin", "query"))
    model = RankerModel(towers["pin"], towers["query"], TowerConfig(**meta))
    # equal spans are equal parameter shapes, layer by layer
    declared = RankerModel.init(model.config)
    if [t.spans for t in (model.pin_tower, model.query_tower)] != [
            t.spans for t in (declared.pin_tower, declared.query_tower)]:
        raise RankerError(f"tower shapes in {path} do not fit its config {meta}")
    return model

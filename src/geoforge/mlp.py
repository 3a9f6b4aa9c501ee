"""The dense network under the contrastive encoders and the ranker towers.

Hidden layers are linear -> ReLU, followed by LayerNorm and inverted
dropout when the layer carries ``(gamma, beta)``. The last layer is linear
and its output rows are L2-normalised. Gradients are analytic and come
back in `Mlp.parameters` order; bad input raises the caller's error type.

One pass runs over blocks ``(net, rows)`` of nets with equal hidden and
output widths: each block's matmuls and per-feature steps (bias, LayerNorm
affine) write into its row slice of one stacked buffer, and ReLU,
LayerNorm, dropout and the output L2 norm run once over all rows.
`Mlp.forward` and `Mlp.backward` are the one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LN_EPS = 1e-5

_add = np.add.reduce


@dataclass
class Mlp:
    """Layers of ``(w, b)``, or ``(w, b, gamma, beta)`` for a LayerNorm
    hidden layer, with ``w`` shaped (fan_out, fan_in)."""

    layers: list[tuple[np.ndarray, ...]]
    # every parameter is a float64 view of this one buffer, so that an SGD
    # step is one update
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.flat = np.concatenate([p.ravel() for p in self.parameters()], dtype=np.float64)
        start, layers = 0, []
        for layer in self.layers:
            views = []
            for p in layer:
                views.append(self.flat[start:start + p.size].reshape(p.shape))
                start += p.size
            layers.append(tuple(views))
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @classmethod
    def init(
        cls, dims: list[int], rng: np.random.Generator,
        layer_norm: bool = False, last_gain: float = 2.0,
    ) -> "Mlp":
        """He init: weight variance 2/fan_in on hidden layers and
        ``last_gain``/fan_in on the last; zero biases, unit gammas."""
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            last = i == len(dims) - 2
            gain = last_gain if last else 2.0
            layer = (rng.standard_normal((fan_out, fan_in)) * np.sqrt(gain / fan_in), np.zeros(fan_out))
            if layer_norm and not last:
                layer += (np.ones(fan_out), np.zeros(fan_out))
            layers.append(layer)
        return cls(layers)

    @classmethod
    def from_parameters(
        cls, params: list[np.ndarray], dims: list[int], layer_norm: bool,
        error: type[Exception], source: object,
    ) -> "Mlp":
        """Regroup a flat `parameters` list laid out for ``dims`` into
        layers; a missing, extra or misshapen array raises ``error``."""
        layers, rest = [], list(params)
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            n = 4 if layer_norm and i < len(dims) - 2 else 2
            layer, rest = rest[:n], rest[n:]
            if [p.shape for p in layer] != [(fan_out, fan_in)] + [(fan_out,)] * (n - 1):
                raise error(f"parameter shapes do not chain as layers {dims} in {source}")
            layers.append(tuple(layer))
        if rest:
            raise error(f"parameter shapes do not chain as layers {dims} in {source}")
        return cls(layers)

    def parameters(self) -> list[np.ndarray]:
        return [param for layer in self.layers for param in layer]

    def forward(
        self, inputs: np.ndarray, error: type[Exception],
        dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Unit-norm output rows (one per input row) and the cache `backward`
        reads: `forward_blocks` over the one block ``(self, inputs)``."""
        (out,), cache = forward_blocks([(self, inputs)], error, dropout_rate, rng)
        return out, cache

    def backward(self, cache: dict, d_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of the loss w.r.t. `parameters`, in that order, given
        d(loss)/d(output rows)."""
        return backward_blocks(cache, [d_out])[0]

    def sgd_step(self, grads: list[np.ndarray], learning_rate: float) -> None:
        """Plain SGD, in place: each parameter moves by -learning_rate * grad."""
        self.flat -= learning_rate * np.concatenate([g.ravel() for g in grads])


def forward_blocks(
    blocks: list[tuple[Mlp, np.ndarray]], error: type[Exception],
    dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
) -> tuple[list[np.ndarray], dict]:
    """Each block's unit-norm output rows, and the cache `backward_blocks`
    reads. With ``dropout_rate`` > 0, each LayerNorm layer's output is
    multiplied by an inverted dropout mask; each block draws all its masks
    from ``rng`` in one call, blocks in order, layer after layer."""
    nets = [net for net, _ in blocks]
    inputs = [np.atleast_2d(np.asarray(rows, dtype=np.float64)) for _, rows in blocks]
    for net, x in zip(nets, inputs):
        if x.shape[1] != net.input_dim:
            raise error(f"input dim {x.shape[1]} does not match model dim {net.input_dim}")
    if len(nets) > 1:
        widths = [[(layer[0].shape[0], len(layer)) for layer in net.layers] for net in nets]
        if any(w != widths[0] for w in widths[1:]):
            raise error(f"blocks need equal layer widths and LayerNorm layers, got {widths}")
    if dropout_rate > 0.0 and rng is None:
        raise error("dropout needs an RNG")
    slices, n = [], 0
    for x in inputs:
        slices.append(slice(n, n + len(x)))
        n += len(x)
    top = nets[0].layers
    normed = {i: layer[0].shape[0] for i, layer in enumerate(top[:-1]) if len(layer) == 4}
    masks = _dropout_masks([len(x) for x in inputs], normed, dropout_rate, rng) if dropout_rate > 0.0 else {}
    cache: dict = {"nets": nets, "slices": slices, "layers": []}
    for i in range(len(top)):
        z = np.empty((n, top[i][0].shape[0]))
        for net, x, sl in zip(nets, inputs, slices):
            w, b = net.layers[i][:2]
            np.matmul(x, w.T, out=z[sl])
            z[sl] += b
        layer = {"x": inputs, "z": z}
        cache["layers"].append(layer)
        if i == len(top) - 1:
            break
        h = np.maximum(z, 0.0)
        if i in normed:
            # LayerNorm row means are products with a column of 1/width:
            # over rows this short, one BLAS call beats np.add.reduce
            mean = _mean_column(h.shape[1])
            xhat = h
            xhat -= h @ mean
            inv_std = 1.0 / np.sqrt((xhat * xhat) @ mean + LN_EPS)
            xhat *= inv_std
            h = np.empty_like(xhat)
            for net, sl in zip(nets, slices):
                gamma, beta = net.layers[i][2:]
                np.multiply(xhat[sl], gamma, out=h[sl])
                h[sl] += beta
            layer |= {"inv_std": inv_std, "xhat": xhat}
            if i in masks:
                layer["mask"] = masks[i]
                h *= masks[i]
        inputs = [h[sl] for sl in slices]
    norms = np.sqrt(_add(z * z, axis=1, keepdims=True))
    # a non-finite activation, or a squared norm that overflows, shows here
    if not np.isfinite(norms).all():
        raise error("non-finite activations in forward pass")
    if not norms.all():
        raise error("zero-norm output before normalization")
    unit = z / norms
    cache |= {"norms": norms, "unit": unit}
    return [unit[sl] for sl in slices], cache


def _mean_column(width: int) -> np.ndarray:
    """A (width, 1) column of 1/width: a matrix times it is its row means."""
    return np.full((width, 1), 1.0 / width)


def _dropout_masks(
    rows: list[int], widths: dict[int, int], rate: float, rng: np.random.Generator,
) -> dict[int, np.ndarray]:
    """Inverted dropout masks over the stacked rows of the layers in
    ``widths`` (layer index -> width). One ``rng.random`` call per block
    draws that block's masks, layer after layer, as per-layer draws would."""
    per_row = sum(widths.values())
    keep = np.empty(sum(rows) * per_row)
    start = 0
    for n in rows:
        rng.random(out=keep[start:start + n * per_row])
        start += n * per_row
    np.greater_equal(keep, rate, out=keep)
    keep *= 1.0 / (1.0 - rate)
    pieces: dict[int, list[np.ndarray]] = {i: [] for i in widths}
    start = 0
    for n in rows:
        for i, width in widths.items():
            pieces[i].append(keep[start:start + n * width].reshape(n, width))
            start += n * width
    return {i: p[0] if len(p) == 1 else np.concatenate(p) for i, p in pieces.items()}


def backward_blocks(cache: dict, d_outs: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Per block, the gradients of the loss w.r.t. that block's net's
    `parameters`, given each block's d(loss)/d(output rows)."""
    nets, slices, layers = cache["nets"], cache["slices"], cache["layers"]
    d_out = d_outs[0] if len(d_outs) == 1 else np.concatenate(d_outs)
    unit, norms = cache["unit"], cache["norms"]
    # through L2 normalization: dz = (du - u (u . du)) / ||z||
    grad = (d_out - unit * _add(unit * d_out, axis=1, keepdims=True)) / norms
    grads: list[list[np.ndarray]] = [[] for _ in nets]
    for i in reversed(range(len(layers))):
        layer = layers[i]
        norm_grads: list[list[np.ndarray]] = [[] for _ in nets]
        if "xhat" in layer:
            xhat = layer["xhat"]
            if "mask" in layer:
                grad *= layer["mask"]
            d_gamma = grad * xhat
            for k, (net, sl) in enumerate(zip(nets, slices)):
                norm_grads[k] = [_add(d_gamma[sl], axis=0), _add(grad[sl], axis=0)]
                grad[sl] *= net.layers[i][2]
            d_xhat = grad
            # LayerNorm backward over the feature axis:
            # inv_std * (d_xhat - mean(d_xhat) - xhat * mean(d_xhat * xhat))
            mean = _mean_column(d_xhat.shape[1])
            mean_dot = (d_xhat * xhat) @ mean
            d_xhat -= d_xhat @ mean
            d_xhat -= xhat * mean_dot
            d_xhat *= layer["inv_std"]
        if i < len(layers) - 1:
            grad *= layer["z"] > 0.0
        below = np.empty((len(grad), layer["x"][0].shape[1])) if i > 0 else None
        for k, (net, x, sl) in enumerate(zip(nets, layer["x"], slices)):
            g = grad[sl]
            grads[k][:0] = [g.T @ x, _add(g, axis=0), *norm_grads[k]]
            if below is not None:
                np.matmul(g, net.layers[i][0], out=below[sl])
        grad = below
    return grads

"""The dense network under the contrastive encoders and the ranker towers.

Hidden layers are linear -> ReLU, followed by LayerNorm and inverted
dropout when the layer carries ``(gamma, beta)``. The last layer is linear
and its output rows are L2-normalised. Gradients are analytic and come
back laid out like `Mlp.flat`, so an SGD step is one subtraction; bad input
raises the caller's error type.

One pass runs over blocks ``(net, rows)`` of nets with equal hidden and
output widths: each block's matmuls and per-feature steps (bias, LayerNorm
affine) write into its row slice of one stacked buffer, and ReLU,
LayerNorm, dropout and the output L2 norm run once over all rows.
`Mlp.forward` is inference: one block without dropout, output rows only.

`save_nets` and `load_nets` are the one checkpoint layout of named nets:
net ``name``'s `Mlp.parameters` as float32 arrays ``{name}0``, ``{name}1``,
… in one `core.save_arrays` file.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import load_arrays, save_arrays

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
    # per layer, each parameter's (start, stop, shape) in `flat`
    spans: list[list[tuple[int, int, tuple[int, ...]]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        start, self.spans = 0, []
        for layer in self.layers:
            self.spans.append([(start, start := start + p.size, p.shape) for p in layer])
        self.flat = np.concatenate([p.ravel() for p in self.parameters()], dtype=np.float64)
        self.layers = self.layered(self.flat)

    def layered(self, buffer: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Views of a buffer laid out like `flat` (the parameters, or a
        gradient from `backward_blocks`), grouped and shaped as `layers`."""
        return [tuple(buffer[a:b].reshape(shape) for a, b, shape in spans) for spans in self.spans]

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
    def from_parameters(cls, params: list[np.ndarray], error: type[Exception], source: object) -> "Mlp":
        """Regroup a flat `parameters` list into layers: each matrix opens a
        layer, and the vectors after it are its bias, or its bias, gamma and
        beta. Parameters that do not lie so, or layers whose widths do not
        chain, raise ``error``."""
        starts = [i for i, p in enumerate(params) if p.ndim == 2]
        layers = [tuple(params[a:b]) for a, b in zip(starts, [*starts[1:], len(params)])]
        dims = [layers[0][0].shape[1], *(layer[0].shape[0] for layer in layers)] if layers else []
        shapes = [[(fan_out, fan_in)] + [(fan_out,)] * (len(layer) - 1)
                  for fan_in, fan_out, layer in zip(dims, dims[1:], layers)]
        if (starts[:1] != [0] or [[p.shape for p in layer] for layer in layers] != shapes
                or any(len(layer) not in (2, 4) for layer in layers) or len(layers[-1]) != 2):
            raise error(f"parameters in {source} do not lie as chained layers")
        return cls(layers)

    def parameters(self) -> list[np.ndarray]:
        return [param for layer in self.layers for param in layer]

    def forward(self, inputs: np.ndarray, error: type[Exception]) -> np.ndarray:
        """Unit-norm output rows, one per input row: `forward_blocks` over
        the one block ``(self, inputs)``, without dropout."""
        return forward_blocks([(self, inputs)], error)[0][0]


def forward_blocks(
    blocks: list[tuple[Mlp, np.ndarray]], error: type[Exception],
    dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
) -> tuple[list[np.ndarray], dict]:
    """Each block's unit-norm output rows, and the cache `backward_blocks`
    reads. With ``dropout_rate`` > 0, each LayerNorm layer's output is
    multiplied by an inverted dropout mask, drawn from ``rng`` straight into
    that layer's rows, block after block, layer after layer."""
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
    masks = {i: np.empty((n, width)) for i, width in normed.items()} if dropout_rate > 0.0 else {}
    for sl in slices:
        for mask in masks.values():
            rng.random(out=mask[sl])
    for mask in masks.values():
        np.greater_equal(mask, dropout_rate, out=mask)
        mask *= 1.0 / (1.0 - dropout_rate)
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


@functools.cache
def _mean_column(width: int) -> np.ndarray:
    """A read-only (width, 1) column of 1/width, built once per width: a
    matrix times it is its row means."""
    column = np.full((width, 1), 1.0 / width)
    column.flags.writeable = False
    return column


def backward_blocks(cache: dict, d_outs: list[np.ndarray]) -> list[np.ndarray]:
    """Per block, the gradient of the loss w.r.t. that block's net's
    parameters, given each block's d(loss)/d(output rows). Each is one
    fresh array laid out like the net's `Mlp.flat`, filled in place through
    the views `Mlp.layered` gives."""
    nets, slices, layers = cache["nets"], cache["slices"], cache["layers"]
    d_out = d_outs[0] if len(d_outs) == 1 else np.concatenate(d_outs)
    unit, norms = cache["unit"], cache["norms"]
    # through L2 normalization: dz = (du - u (u . du)) / ||z||
    grad = (d_out - unit * _add(unit * d_out, axis=1, keepdims=True)) / norms
    flats = [np.empty_like(net.flat) for net in nets]
    views = [net.layered(flat) for net, flat in zip(nets, flats)]
    for i in reversed(range(len(layers))):
        layer = layers[i]
        if "xhat" in layer:
            xhat = layer["xhat"]
            if "mask" in layer:
                grad *= layer["mask"]
            d_gamma = grad * xhat
            for net, view, sl in zip(nets, views, slices):
                _add(d_gamma[sl], axis=0, out=view[i][2])
                _add(grad[sl], axis=0, out=view[i][3])
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
        for net, view, x, sl in zip(nets, views, layer["x"], slices):
            g = grad[sl]
            np.matmul(g.T, x, out=view[i][0])
            _add(g, axis=0, out=view[i][1])
            if below is not None:
                np.matmul(g, net.layers[i][0], out=below[sl])
        grad = below
    return flats


def save_nets(path: str | Path, magic: bytes, meta: dict, nets: dict[str, Mlp]) -> None:
    """Write ``meta`` and each net's `Mlp.parameters` as float32 arrays
    ``{name}0``, ``{name}1``, … through `core.save_arrays`."""
    save_arrays(path, magic, meta, {f"{name}{i}": param.astype("<f4")
                                    for name, net in nets.items()
                                    for i, param in enumerate(net.parameters())})


def load_nets(
    path: str | Path, magic: bytes, error: type[Exception], meta_kinds: dict,
    names: tuple[str, ...],
) -> tuple[dict, dict[str, Mlp]]:
    """Read a `save_nets` file as (meta, each of ``names``' nets). Damage
    (see `core.load_arrays`), an array that is not float32 or not the next
    ``{name}{i}`` of one of ``names``, or parameters that `Mlp.from_parameters`
    rejects raise ``error``."""
    meta, arrays = load_arrays(path, magic, error, meta_kinds)
    params: dict[str, list[np.ndarray]] = {name: [] for name in names}
    for key, array in arrays.items():
        name = key.rstrip("0123456789")
        if name not in params or key != f"{name}{len(params[name])}" or array.dtype.str != "<f4":
            raise error(f"unexpected array {key!r} of dtype {array.dtype.str} in {path}")
        params[name].append(array)
    return meta, {name: Mlp.from_parameters(p, error, path) for name, p in params.items()}

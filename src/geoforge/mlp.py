"""The dense network under the contrastive encoders and the ranker towers.

Hidden layers are linear -> ReLU, followed by LayerNorm and inverted
dropout when the layer carries ``(gamma, beta)``. The last layer is linear
and its output rows are L2-normalised. Gradients are analytic and come
back in `Mlp.parameters` order; bad input raises the caller's error type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LN_EPS = 1e-5


@dataclass
class Mlp:
    """Layers of ``(w, b)``, or ``(w, b, gamma, beta)`` for a LayerNorm
    hidden layer, with ``w`` shaped (fan_out, fan_in)."""

    layers: list[tuple[np.ndarray, ...]]

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
        """Regroup a flat `parameters` list laid out for ``dims`` into float64
        layers; a missing, extra or misshapen array raises ``error``."""
        layers, rest = [], list(params)
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            n = 4 if layer_norm and i < len(dims) - 2 else 2
            layer, rest = rest[:n], rest[n:]
            if [p.shape for p in layer] != [(fan_out, fan_in)] + [(fan_out,)] * (n - 1):
                raise error(f"parameter shapes do not chain as layers {dims} in {source}")
            layers.append(tuple(p.astype(np.float64) for p in layer))
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
        reads. With ``dropout_rate`` > 0, each LayerNorm layer's output is
        multiplied by an inverted dropout mask drawn from ``rng``."""
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise error(f"input dim {x.shape[1]} does not match model dim {self.input_dim}")
        if dropout_rate > 0.0 and rng is None:
            raise error("dropout needs an RNG")
        cache: dict = {"layers": []}
        h = x
        for w, b, *norm in self.layers[:-1]:
            z = h @ w.T + b
            layer = {"x": h, "z": z}
            h = np.maximum(z, 0.0)
            if norm:
                gamma, beta = norm
                mu = h.mean(axis=1, keepdims=True)
                var = h.var(axis=1, keepdims=True)
                inv_std = 1.0 / np.sqrt(var + LN_EPS)
                xhat = (h - mu) * inv_std
                h = gamma * xhat + beta
                layer |= {"inv_std": inv_std, "xhat": xhat}
                if dropout_rate > 0.0:
                    layer["mask"] = (rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
                    h = h * layer["mask"]
            cache["layers"].append(layer)
        w, b = self.layers[-1]
        raw = h @ w.T + b
        cache["layers"].append({"x": h, "z": raw})
        if not np.all(np.isfinite(raw)):
            raise error("non-finite activations in forward pass")
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise error("zero-norm output before normalization")
        cache["norms"] = norms
        return raw / norms, cache

    def backward(self, cache: dict, d_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of the loss w.r.t. `parameters`, in that order, given
        d(loss)/d(output rows)."""
        layers, norms = cache["layers"], cache["norms"]
        unit = layers[-1]["z"] / norms
        # through L2 normalization: dz = (du - u (u . du)) / ||z||
        grad = (d_out - unit * np.sum(unit * d_out, axis=1, keepdims=True)) / norms
        grads: list[np.ndarray] = []
        for i in reversed(range(len(self.layers))):
            w, norm, layer = self.layers[i][0], self.layers[i][2:], layers[i]
            norm_grads = []
            if norm:
                d_ln = grad * layer["mask"] if "mask" in layer else grad
                norm_grads = [(d_ln * layer["xhat"]).sum(axis=0), d_ln.sum(axis=0)]
                d_xhat = d_ln * norm[0]
                # LayerNorm backward over the feature axis
                dim = d_xhat.shape[1]
                a_centered = layer["xhat"] / layer["inv_std"]
                d_var = np.sum(d_xhat * a_centered * -0.5 * layer["inv_std"] ** 3, axis=1, keepdims=True)
                d_mu = (
                    np.sum(-d_xhat * layer["inv_std"], axis=1, keepdims=True)
                    + d_var * np.mean(-2.0 * a_centered, axis=1, keepdims=True)
                )
                grad = d_xhat * layer["inv_std"] + d_var * 2.0 * a_centered / dim + d_mu / dim
            if i < len(self.layers) - 1:
                grad = grad * (layer["z"] > 0.0)
            grads[:0] = [grad.T @ layer["x"], grad.sum(axis=0), *norm_grads]
            if i > 0:
                grad = grad @ w
        return grads

    def sgd_step(self, grads: list[np.ndarray], learning_rate: float) -> None:
        """Plain SGD, in place: each parameter moves by -learning_rate * grad."""
        for param, grad in zip(self.parameters(), grads):
            param -= learning_rate * grad

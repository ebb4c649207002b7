"""Minimal dense network stack with verifiable analytic gradients.

Everything is float64 numpy.  A hidden layer is linear -> batch norm -> ReLU
-> inverted dropout; the output layer is linear with an optional softmax.
Batch norm keeps running statistics for eval mode; train mode uses the batch
statistics and backpropagates through them.  The Adam step and the central
finite-difference gradient checker live here too, so a network and its
optimizer can be tested as one unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError


def relu(x):
    return np.maximum(x, 0.0)


def softmax(x, axis=-1):
    """Row-wise softmax, stabilized by subtracting the row max."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


class Mlp:
    """Fully connected network: layer_sizes = [n_in, hidden..., n_out].

    Weights use fan-in scaled uniform init (ReLU oriented), biases start at
    zero.  Batch norm applies to hidden layers only, never to the output
    layer; dropout applies to hidden activations only.
    """

    def __init__(self, layer_sizes, out_activation="identity", batchnorm=True,
                 dropout=0.0, rng=None, bn_eps=1e-5, bn_momentum=0.1):
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 1 or any(s < 1 for s in layer_sizes):
            raise ConfigurationError(f"bad layer sizes {layer_sizes}")
        if out_activation not in ("identity", "softmax"):
            raise ConfigurationError(f"unknown output activation {out_activation!r}")
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout rate must lie in [0, 1), got {dropout}")
        if rng is None:
            rng = np.random.default_rng(0)
        elif isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        self.layer_sizes = layer_sizes
        self.out_activation = out_activation
        self.batchnorm = bool(batchnorm)
        self.dropout = float(dropout)
        self.bn_eps = float(bn_eps)
        self.bn_momentum = float(bn_momentum)

        n_layers = len(layer_sizes) - 1
        self.weights, self.biases = [], []
        for i in range(n_layers):
            fan_in, fan_out = layer_sizes[i], layer_sizes[i + 1]
            limit = np.sqrt(6.0 / fan_in)
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        n_hidden = max(n_layers - 1, 0)
        self.bn_scale = [np.ones(layer_sizes[i + 1]) for i in range(n_hidden)]
        self.bn_shift = [np.zeros(layer_sizes[i + 1]) for i in range(n_hidden)]
        self.bn_run_mean = [np.zeros(layer_sizes[i + 1]) for i in range(n_hidden)]
        self.bn_run_var = [np.ones(layer_sizes[i + 1]) for i in range(n_hidden)]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_hidden(self) -> int:
        return max(self.n_layers - 1, 0)

    def params(self) -> dict:
        """Trainable parameter arrays by block name (live views, not copies)."""
        out = {}
        for i in range(self.n_layers):
            out[f"w{i}"] = self.weights[i]
            out[f"b{i}"] = self.biases[i]
        if self.batchnorm:
            for i in range(self.n_hidden):
                out[f"bn{i}_scale"] = self.bn_scale[i]
                out[f"bn{i}_shift"] = self.bn_shift[i]
        return out

    def state_arrays(self) -> dict:
        """Trainable parameters plus batch-norm running statistics."""
        out = dict(self.params())
        if self.batchnorm:
            for i in range(self.n_hidden):
                out[f"bn{i}_run_mean"] = self.bn_run_mean[i]
                out[f"bn{i}_run_var"] = self.bn_run_var[i]
        return out

    def snapshot(self) -> dict:
        return {k: v.copy() for k, v in self.state_arrays().items()}

    def restore(self, snap: dict):
        for k, v in self.state_arrays().items():
            v[...] = snap[k]

    def _bn_forward(self, i, a, mode, update_stats, in_place=False):
        """Batch norm of a; in_place overwrites a, for callers keeping no cache."""
        eps = self.bn_eps
        if mode == "train":
            mu = a.mean(axis=0)
            var = a.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + eps)
            xhat = np.subtract(a, mu, out=a if in_place else None)
            if update_stats:
                mom = self.bn_momentum
                b = a.shape[0]
                unbiased = var * (b / (b - 1)) if b > 1 else var
                self.bn_run_mean[i] = (1 - mom) * self.bn_run_mean[i] + mom * mu
                self.bn_run_var[i] = (1 - mom) * self.bn_run_var[i] + mom * unbiased
        else:
            inv_std = 1.0 / np.sqrt(self.bn_run_var[i] + eps)
            xhat = np.subtract(a, self.bn_run_mean[i], out=a if in_place else None)
        xhat *= inv_std
        out = np.multiply(xhat, self.bn_scale[i], out=xhat if in_place else None)
        out += self.bn_shift[i]
        cache = {"xhat": xhat, "inv_std": inv_std, "train": mode == "train"}
        return out, cache

    def _bn_backward(self, i, dout, cache):
        xhat, inv_std = cache["xhat"], cache["inv_std"]
        dscale = np.sum(dout * xhat, axis=0)
        dshift = np.sum(dout, axis=0)
        if cache["train"]:
            b = dout.shape[0]
            dxhat = dout * self.bn_scale[i]
            da = (inv_std / b) * (
                b * dxhat - dxhat.sum(axis=0) - xhat * np.sum(dxhat * xhat, axis=0)
            )
        else:
            da = dout * self.bn_scale[i] * inv_std
        return da, dscale, dshift

    def forward(self, X, mode="eval", rng=None, want_cache=False, update_stats=None):
        """Run the network; mode "train" uses batch statistics and dropout.

        update_stats defaults to (mode == "train"); pass False to keep the
        running statistics frozen, which makes train-mode forward a pure
        function of the parameters (needed for finite-difference checks).
        """
        if mode not in ("train", "eval"):
            raise ConfigurationError(f"unknown mode {mode!r}")
        if update_stats is None:
            update_stats = mode == "train"
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.layer_sizes[0]:
            raise ConfigurationError(
                f"input shape {X.shape} does not match input width {self.layer_sizes[0]}"
            )
        if mode == "train" and self.dropout > 0.0 and rng is None:
            raise ConfigurationError("train-mode forward with dropout needs an rng")

        # without a cache nothing needs the intermediates, so layers work in place
        layers = []
        h = X
        for i in range(self.n_hidden):
            a = h @ self.weights[i]
            a += self.biases[i]
            if self.batchnorm:
                bn_out, bn_cache = self._bn_forward(i, a, mode, update_stats,
                                                    in_place=not want_cache)
            else:
                bn_out, bn_cache = a, None
            r = relu(bn_out) if want_cache else np.maximum(bn_out, 0.0, out=bn_out)
            mask = None
            if self.dropout > 0.0 and mode == "train":
                keep = 1.0 - self.dropout
                mask = (rng.random(r.shape) < keep) / keep
                r = r * mask
            if want_cache:
                layers.append({"inp": h, "bn": bn_cache, "relu_in": bn_out, "mask": mask})
            h = r
        if self.n_layers:
            out = h @ self.weights[-1] + self.biases[-1]
        else:
            out = h
        final = {"inp": h}
        if self.out_activation == "softmax":
            out = softmax(out, axis=1)
            final["probs"] = out
        if want_cache:
            return out, {"layers": layers, "final": final}
        return out

    def backward(self, dout, cache):
        """Gradients of a scalar loss given d loss / d output.

        Returns (grads keyed like params(), d loss / d input).
        """
        grads = {}
        if self.n_layers == 0:
            return grads, np.asarray(dout, dtype=float)
        final = cache["final"]
        if self.out_activation == "softmax":
            p = final["probs"]
            dlogits = p * (dout - np.sum(dout * p, axis=1, keepdims=True))
        else:
            dlogits = np.asarray(dout, dtype=float)
        grads[f"w{self.n_layers - 1}"] = final["inp"].T @ dlogits
        grads[f"b{self.n_layers - 1}"] = dlogits.sum(axis=0)
        dh = dlogits @ self.weights[-1].T
        for i in range(self.n_hidden - 1, -1, -1):
            layer = cache["layers"][i]
            if layer["mask"] is not None:
                dh = dh * layer["mask"]
            dh = dh * (layer["relu_in"] > 0)
            if self.batchnorm:
                dh, dscale, dshift = self._bn_backward(i, dh, layer["bn"])
                grads[f"bn{i}_scale"] = dscale
                grads[f"bn{i}_shift"] = dshift
            grads[f"w{i}"] = layer["inp"].T @ dh
            grads[f"b{i}"] = dh.sum(axis=0)
            dh = dh @ self.weights[i].T
        return grads, dh

    def meta(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "out_activation": self.out_activation,
            "batchnorm": self.batchnorm,
            "dropout": self.dropout,
            "bn_eps": self.bn_eps,
            "bn_momentum": self.bn_momentum,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "Mlp":
        return cls(
            meta["layer_sizes"],
            out_activation=meta["out_activation"],
            batchnorm=meta["batchnorm"],
            dropout=meta["dropout"],
            bn_eps=meta["bn_eps"],
            bn_momentum=meta["bn_momentum"],
        )


@dataclass
class AdamState:
    """First/second moment accumulators for a named set of parameter blocks."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigurationError("Adam betas must lie in [0, 1)")
        if self.lr <= 0 or self.eps <= 0:
            raise ConfigurationError("Adam lr and eps must be positive")


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update, applied to the arrays in place."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g
        m_hat = m / (1 - state.beta1 ** t)
        v_hat = v / (1 - state.beta2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def grad_check(params: dict, loss_and_grads, eps: float = 1e-5,
               max_entries: int | None = None, rng=None) -> dict:
    """Max relative error per parameter block, analytic vs central differences.

    params maps block names to arrays that loss_and_grads reads; the arrays
    are perturbed in place and restored.  loss_and_grads() must be a pure
    deterministic function of the current parameter values returning
    (loss, grads dict).  Relative error is |a - n| / max(|a|, |n|, 1e-6); the
    floor keeps central-difference cancellation noise (about 1e-11 for unit
    scale losses) from registering on gradients that are exactly zero.

    max_entries caps the coordinates probed per block (a seeded sample when a
    block is larger); wide layers are otherwise quadratic-cost to check.
    """
    _, analytic = loss_and_grads()
    report = {}
    for name, arr in params.items():
        flat = arr.ravel()
        g = np.asarray(analytic[name], dtype=float).ravel()
        if max_entries is not None and flat.size > max_entries:
            picker = rng if rng is not None else np.random.default_rng(0)
            coords = picker.choice(flat.size, size=max_entries, replace=False)
        else:
            coords = range(flat.size)
        worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_and_grads()
            flat[i] = orig - eps
            lm, _ = loss_and_grads()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            denom = max(abs(g[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(g[i] - numeric) / denom)
        report[name] = worst
    return report

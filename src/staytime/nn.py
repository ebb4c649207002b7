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


def softmax(x, axis=-1, out=None):
    """Row-wise softmax, stabilized by subtracting the row max; out=x works
    in place."""
    shifted = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    e = np.exp(shifted, out=shifted)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


def log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


class Workspace:
    """Train-mode buffers kept for one fit.  buf(key, rows, cols) gives the
    first rows of the buffer kept under key, reallocated only when a batch
    outgrows it.  A network's workspace also holds its flat gradient (grad,
    possibly a view of a larger vector) and named views of its blocks."""

    def __init__(self, net=None, grad=None):
        self._bufs = {}
        if net is not None:
            self.grad = np.zeros(net.n_params) if grad is None else grad
            self.grads = net.blocks(self.grad)

    def buf(self, key, rows, cols, dtype=float):
        b = self._bufs.get(key)
        if b is None or b.shape[0] < rows:
            b = self._bufs[key] = np.empty((rows, cols), dtype)
        return b[:rows]


class Mlp:
    """Fully connected network: layer_sizes = [n_in, hidden..., n_out].

    Weights use fan-in scaled uniform init (ReLU oriented), biases start at
    zero.  Batch norm applies to hidden layers only, never to the output
    layer; dropout applies to hidden activations only.

    The parameters (flat_params, in params() order) and then the batch-norm
    running statistics fill one vector, flat; named arrays are views into it.
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
        hidden = range(max(n_layers - 1, 0) if self.batchnorm else 0)
        shapes = self._shapes = {}
        for i in range(n_layers):
            shapes[f"w{i}"] = (layer_sizes[i], layer_sizes[i + 1])
            shapes[f"b{i}"] = (layer_sizes[i + 1],)
        shapes.update({f"bn{i}_{k}": (layer_sizes[i + 1],)
                       for i in hidden for k in ("scale", "shift")})
        self.n_params = sum(int(np.prod(s)) for s in shapes.values())  # statistics follow
        shapes.update({f"bn{i}_{k}": (layer_sizes[i + 1],)
                       for i in hidden for k in ("run_mean", "run_var")})
        self.flat = np.zeros(sum(int(np.prod(s)) for s in shapes.values()))
        self.flat_params = self.flat[: self.n_params]
        views = self.blocks(self.flat)
        self.weights = [views[f"w{i}"] for i in range(n_layers)]
        self.biases = [views[f"b{i}"] for i in range(n_layers)]
        self.bn_scale, self.bn_shift, self.bn_run_mean, self.bn_run_var = (
            [views[f"bn{i}_{k}"] for i in hidden] for k in ("scale", "shift", "run_mean", "run_var")
        )
        for w in self.weights:
            limit = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        for v in self.bn_scale + self.bn_run_var:
            v.fill(1.0)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_hidden(self) -> int:
        return max(self.n_layers - 1, 0)

    def blocks(self, vec) -> dict:
        """Named reshaped views of a vector laid out like flat: every block
        that fits, so a vector of n_params entries gives the parameters."""
        out, lo = {}, 0
        for name, shape in self._shapes.items():
            hi = lo + int(np.prod(shape))
            if hi > len(vec):
                break
            out[name], lo = vec[lo:hi].reshape(shape), hi
        return out

    def params(self) -> dict:
        """Trainable parameter arrays by block name (live views, not copies)."""
        return self.blocks(self.flat_params)

    def state_arrays(self) -> dict:
        """Trainable parameters plus batch-norm running statistics."""
        return self.blocks(self.flat)

    def _bn_forward(self, i, a, mode, update_stats, xhat_out):
        """Batch norm of a, with xhat written to xhat_out (a fresh array when
        None).  The output goes over a unless xhat_out is None; train mode
        also uses a for the squared deviations."""
        eps = self.bn_eps
        if mode == "train":
            mu = a.mean(axis=0)
            xhat = np.subtract(a, mu, out=xhat_out)
            var = np.multiply(xhat, xhat, out=a).sum(axis=0) / a.shape[0]  # a.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + eps)
            if update_stats:
                mom = self.bn_momentum
                b = a.shape[0]
                unbiased = var * (b / (b - 1)) if b > 1 else var
                self.bn_run_mean[i][...] = (1 - mom) * self.bn_run_mean[i] + mom * mu
                self.bn_run_var[i][...] = (1 - mom) * self.bn_run_var[i] + mom * unbiased
        else:
            inv_std = 1.0 / np.sqrt(self.bn_run_var[i] + eps)
            xhat = np.subtract(a, self.bn_run_mean[i], out=xhat_out)
        xhat *= inv_std
        out = np.multiply(xhat, self.bn_scale[i], out=None if xhat_out is None else a)
        out += self.bn_shift[i]
        cache = {"xhat": xhat, "inv_std": inv_std, "train": mode == "train"}
        return out, cache

    def _bn_backward(self, i, dout, cache, work):
        """d loss / d a, written over dout; dscale and dshift go to the
        workspace gradient."""
        xhat, inv_std = cache["xhat"], cache["inv_std"]
        tmp = work.buf(("bn", i), *dout.shape)
        np.sum(np.multiply(dout, xhat, out=tmp), axis=0, out=work.grads[f"bn{i}_scale"])
        np.sum(dout, axis=0, out=work.grads[f"bn{i}_shift"])
        dxhat = np.multiply(dout, self.bn_scale[i], out=dout)
        if not cache["train"]:
            return np.multiply(dxhat, inv_std, out=dxhat)
        # (inv_std / b) * (b * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
        b = dout.shape[0]
        s1 = dxhat.sum(axis=0)
        s2 = np.sum(np.multiply(dxhat, xhat, out=tmp), axis=0)
        dxhat *= b
        dxhat -= s1
        dxhat -= np.multiply(xhat, s2, out=tmp)
        return np.multiply(inv_std / b, dxhat, out=dxhat)

    def forward(self, X, mode="eval", rng=None, want_cache=False, update_stats=None,
                work=None):
        """Run the network; mode "train" uses batch statistics and dropout.

        update_stats defaults to (mode == "train"); pass False to keep the
        running statistics frozen, which makes train-mode forward a pure
        function of the parameters (needed for finite-difference checks).

        Train mode writes every per-row array into work, a Workspace of this
        network (a fresh one when None), so the output and the cache are
        views valid until its next train-mode call.  Eval mode allocates.
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
        train = mode == "train"
        if train and self.dropout > 0.0 and rng is None:
            raise ConfigurationError("train-mode forward with dropout needs an rng")
        if train and work is None:
            work = Workspace(self)
        n = X.shape[0]

        # eval without a cache needs no intermediates, so its layers work in place
        layers, h = [], X
        for i in range(self.n_hidden):
            width = self.layer_sizes[i + 1]
            a = np.matmul(h, self.weights[i], out=work.buf(("a", i), n, width) if train else None)
            a += self.biases[i]
            if train:
                xhat_out, r = work.buf(("xhat", i), n, width), work.buf(("h", i), n, width)
            else:
                xhat_out = r = None if want_cache else a
            bn_out, bn_cache = (self._bn_forward(i, a, mode, update_stats, xhat_out)
                                if self.batchnorm else (a, None))
            r = np.maximum(bn_out, 0.0, out=r)
            mask = None
            if self.dropout > 0.0 and train:
                keep = 1.0 - self.dropout
                mask = rng.random(out=work.buf(("mask", i), n, width))
                np.less(mask, keep, out=mask)
                mask /= keep
                r *= mask
            layers.append({"inp": h, "bn": bn_cache, "relu_in": bn_out, "mask": mask})
            h = r
        out = h
        if self.n_layers:
            out = np.matmul(h, self.weights[-1],
                            out=work.buf("out", n, self.layer_sizes[-1]) if train else None)
            out += self.biases[-1]
        final = {"inp": h}
        if self.out_activation == "softmax":  # in place over the last layer's output
            out = final["probs"] = softmax(out, axis=1, out=out if self.n_layers else None)
        if want_cache:
            return out, {"layers": layers, "final": final, "work": work}
        return out

    def backward(self, dout, cache):
        """(flat gradient laid out like flat_params, d loss / d input) of a
        scalar loss given d loss / d output; a train-mode cache writes both
        into its workspace, an eval-mode cache gets fresh arrays."""
        work = cache.get("work") or Workspace(self)
        if self.n_layers == 0:
            return work.grad, np.asarray(dout, dtype=float)
        final, grads = cache["final"], work.grads
        n, last = final["inp"].shape[0], self.n_layers - 1
        dlogits = np.asarray(dout, dtype=float)
        if self.out_activation == "softmax":
            p = final["probs"]
            dl = work.buf("dlogits", n, p.shape[1])
            s = np.multiply(dlogits, p, out=dl).sum(axis=1, keepdims=True)
            dlogits = np.multiply(p, np.subtract(dlogits, s, out=dl), out=dl)
        np.matmul(final["inp"].T, dlogits, out=grads[f"w{last}"])
        np.sum(dlogits, axis=0, out=grads[f"b{last}"])
        dh = np.matmul(dlogits, self.weights[-1].T,
                       out=work.buf(("dh", last), n, self.layer_sizes[last]))
        for i in range(self.n_hidden - 1, -1, -1):
            layer = cache["layers"][i]
            if layer["mask"] is not None:
                dh *= layer["mask"]
            dh *= np.greater(layer["relu_in"], 0.0, out=work.buf(("pos", i), *dh.shape, bool))
            if self.batchnorm:
                dh = self._bn_backward(i, dh, layer["bn"], work)
            np.matmul(layer["inp"].T, dh, out=grads[f"w{i}"])
            np.sum(dh, axis=0, out=grads[f"b{i}"])
            dh = np.matmul(dh, self.weights[i].T, out=work.buf(("dh", i), n, self.layer_sizes[i]))
        return work.grad, dh

    _META = ("out_activation", "batchnorm", "dropout", "bn_eps", "bn_momentum")

    def meta(self) -> dict:
        return {"layer_sizes": list(self.layer_sizes), **{k: getattr(self, k) for k in self._META}}

    @classmethod
    def from_meta(cls, meta: dict) -> "Mlp":
        return cls(meta["layer_sizes"], **{k: meta[k] for k in cls._META})


@dataclass
class AdamState:
    """Adam's settings, step count and flat first/second moment vectors."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigurationError("Adam betas must lie in [0, 1)")
        if self.lr <= 0 or self.eps <= 0:
            raise ConfigurationError("Adam lr and eps must be positive")


def adam_step(params, grad, state: AdamState):
    """One bias-corrected Adam update (Kingma and Ba, arXiv 1412.6980) of the
    contiguous arrays in params, in place.  grad is one flat vector matching
    their flattened concatenation, so a step is a fixed handful of vectorised
    operations, each element updated exactly as a per-block step would."""
    sizes = [p.size for p in params]
    if grad.shape != (sum(sizes),):
        raise ContractError(f"gradient shape {grad.shape} != parameter count {sum(sizes)}")
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
        state.scratch = np.empty((2, grad.size))
    state.t += 1
    t = state.t
    m, v, (a, step) = state.m, state.v, state.scratch
    m *= state.beta1
    m += np.multiply(grad, 1 - state.beta1, out=a)
    v *= state.beta2
    np.multiply(grad, 1 - state.beta2, out=a)
    v += np.multiply(a, grad, out=a)
    # step = lr * m_hat / (sqrt(v_hat) + eps)
    np.sqrt(np.divide(v, 1 - state.beta2 ** t, out=a), out=a)
    a += state.eps
    np.divide(m, 1 - state.beta1 ** t, out=step)
    step *= state.lr
    step /= a
    lo = 0
    for p, size in zip(params, sizes):
        p -= step[lo:lo + size].reshape(p.shape)
        lo += size


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

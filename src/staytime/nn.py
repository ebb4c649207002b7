"""Minimal dense network stack with verifiable analytic gradients.

Everything is float64 numpy.  A hidden layer is h @ W -> batch norm -> + b
-> ReLU -> inverted dropout, its one bias b serving as batch norm's shift; the
output layer is h @ W + b with an optional softmax.
Batch norm keeps running statistics for eval mode, which folds it with the
bias into one affine and runs in fixed blocks of rows, so a row's output does
not depend on the call; train mode uses the batch statistics and
backpropagates through them.  The Adam step and the central finite-difference
gradient checker live here too, so a network and its optimizer can be tested
as one unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, require_array_fits

BN_EPS = 1e-5  # added to the batch-norm variance
BN_MOMENTUM = 0.1  # weight of each train batch in the running statistics
# BLAS rounds a product by its shape, so eval mode runs every layer on a stack
# of zero-padded EVAL_ROWS-row blocks: one same-shape product per block keeps
# each row's output the same bits however many rows share the call.
EVAL_ROWS = 64


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
                 dropout=0.0, rng=None):
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ConfigurationError(f"bad layer sizes {layer_sizes}: need an input and "
                                     "an output width, each at least 1")
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

        n_layers = len(layer_sizes) - 1
        hidden = range(n_layers - 1 if self.batchnorm else 0)
        shapes = self._shapes = {}
        for i in range(n_layers):
            shapes[f"w{i}"] = (layer_sizes[i], layer_sizes[i + 1])
            shapes[f"b{i}"] = (layer_sizes[i + 1],)
        shapes.update({f"bn{i}_scale": (layer_sizes[i + 1],) for i in hidden})
        self.n_params = sum(math.prod(s) for s in shapes.values())  # statistics follow
        shapes.update({f"bn{i}_{k}": (layer_sizes[i + 1],)
                       for i in hidden for k in ("run_mean", "run_var")})
        n_flat = sum(math.prod(s) for s in shapes.values())
        require_array_fits(f"the parameter vector of layer sizes {layer_sizes}", n_flat)
        self.flat = np.zeros(n_flat)
        self.flat_params = self.flat[: self.n_params]
        views = self.blocks(self.flat)
        self.weights = [views[f"w{i}"] for i in range(n_layers)]
        self.biases = [views[f"b{i}"] for i in range(n_layers)]
        self.bn_scale, self.bn_run_mean, self.bn_run_var = (
            [views[f"bn{i}_{k}"] for i in hidden] for k in ("scale", "run_mean", "run_var")
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
        return self.n_layers - 1

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

    def _bn_forward(self, i, a, work):
        """Train-mode batch norm of a, written over a: (a - mean) * k with
        k = inv_std * scale; the layer bias is its shift.  Folds the batch
        statistics into the running ones, which only eval mode reads, and
        caches the centred input xc and inv_std."""
        n = a.shape[0]
        mu = a.mean(axis=0)
        xc = np.subtract(a, mu, out=work.buf(("xc", i), *a.shape))
        var = np.einsum("ij,ij->j", xc, xc) / n  # a.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        mom = BN_MOMENTUM
        unbiased = var * (n / (n - 1)) if n > 1 else var
        self.bn_run_mean[i][...] = (1 - mom) * self.bn_run_mean[i] + mom * mu
        self.bn_run_var[i][...] = (1 - mom) * self.bn_run_var[i] + mom * unbiased
        np.multiply(xc, inv_std * self.bn_scale[i], out=a)
        return {"xc": xc, "inv_std": inv_std}

    def _bn_backward(self, i, dout, cache, dshift, work):
        """d loss / d a of train-mode batch norm, written over dout, given
        dshift = dout summed over rows (the layer bias's gradient); dscale
        goes to the workspace gradient."""
        xc, inv_std = cache["xc"], cache["inv_std"]
        n = dout.shape[0]
        dscale = np.einsum("ij,ij->j", dout, xc, out=work.grads[f"bn{i}_scale"])
        dscale *= inv_std
        # k * (dout - dshift / n - xc * (inv_std * dscale / n)), k = inv_std * scale
        tmp = np.multiply(xc, inv_std * dscale / n, out=work.buf(("bn", i), *dout.shape))
        dout -= dshift / n
        dout -= tmp
        return np.multiply(dout, inv_std * self.bn_scale[i], out=dout)

    def _folded_bn(self, i):
        """Eval-mode batch norm and the bias as one affine: (k, c) with
        bn(h @ W) + b = (h @ W) * k + c under the running statistics."""
        k = self.bn_scale[i] / np.sqrt(self.bn_run_var[i] + BN_EPS)
        return k, self.biases[i] - self.bn_run_mean[i] * k

    def _relu_dropout_mask(self, i, a, rng, work):
        """One mask per hidden layer: 1/keep where a > 0 and the unit is kept
        (one uniform draw per entry), else 0; ReLU and inverted dropout are
        then a * mask, and their backward is dh * mask."""
        pos = np.greater(a, 0.0, out=work.buf(("pos", i), *a.shape, bool))
        mask, keep = work.buf(("mask", i), *a.shape), 1.0 - self.dropout
        if self.dropout > 0.0:
            pos &= np.less(rng.random(out=mask), keep, out=work.buf(("kept", i), *a.shape, bool))
        return np.multiply(pos, 1.0 / keep, out=mask)

    def forward(self, X, mode="eval", rng=None, work=None):
        """Run the network.  Eval mode returns the output: it allocates, runs
        on zero-padded blocks of EVAL_ROWS rows and folds batch norm into one
        affine per layer.  Train mode uses the batch statistics and dropout,
        folds the batch statistics into the running ones, which it never
        reads, and returns (output, cache) for backward: views into work, a
        Workspace of this network (a fresh one when None), valid until its
        next train-mode call."""
        if mode not in ("train", "eval"):
            raise ConfigurationError(f"unknown mode {mode!r}")
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

        layers, h = [], X
        if not train:
            h = np.zeros((-(-n // EVAL_ROWS), EVAL_ROWS, X.shape[1]))
            h.reshape(-1, X.shape[1])[:n] = X
        for i in range(self.n_hidden):
            width = self.layer_sizes[i + 1]
            a = np.matmul(h, self.weights[i], out=work.buf(("a", i), n, width) if train else None)
            if train:
                bn = self._bn_forward(i, a, work) if self.batchnorm else None
                a += self.biases[i]
                mask = self._relu_dropout_mask(i, a, rng, work)
                layers.append({"inp": h, "bn": bn, "mask": mask})
                h = np.multiply(a, mask, out=a)
                continue
            c = self.biases[i]
            if self.batchnorm:
                k, c = self._folded_bn(i)
                a *= k
            a += c
            h = np.maximum(a, 0.0, out=a)
        out = np.matmul(h, self.weights[-1],
                        out=work.buf("out", n, self.layer_sizes[-1]) if train else None)
        out += self.biases[-1]
        final = {"inp": h}
        if self.out_activation == "softmax":  # in place over the last layer's output
            out = final["probs"] = softmax(out, out=out)
        if not train:
            return out.reshape(-1, self.layer_sizes[-1])[:n]
        return out, {"layers": layers, "final": final, "work": work}

    def backward(self, dout, cache):
        """(flat gradient laid out like flat_params, d loss / d (X @ W0)) of
        a scalar loss given d loss / d output and the cache of a train-mode
        forward; both are written into the cache's workspace.  The input
        gradient is that second array @ W0.T, left to the one caller that
        needs it."""
        work = cache["work"]
        final, grads = cache["final"], work.grads
        n, last = final["inp"].shape[0], self.n_layers - 1
        dlogits = np.asarray(dout, dtype=float)
        if self.out_activation == "softmax":
            p = final["probs"]
            s = np.einsum("ij,ij->i", dlogits, p)[:, None]
            dlogits = np.subtract(dlogits, s, out=work.buf("dlogits", n, p.shape[1]))
            dlogits *= p
        np.matmul(final["inp"].T, dlogits, out=grads[f"w{last}"])
        np.sum(dlogits, axis=0, out=grads[f"b{last}"])
        dz = dlogits  # d loss / d (h @ W) of the layer at hand
        for i in range(self.n_hidden - 1, -1, -1):
            layer = cache["layers"][i]
            dz = np.matmul(dz, self.weights[i + 1].T,
                           out=work.buf(("dh", i), n, self.layer_sizes[i + 1]))
            dz *= layer["mask"]
            db = np.sum(dz, axis=0, out=grads[f"b{i}"])
            if self.batchnorm:
                dz = self._bn_backward(i, dz, layer["bn"], db, work)
            np.matmul(layer["inp"].T, dz, out=grads[f"w{i}"])
        return work.grad, dz


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

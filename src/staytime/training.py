"""Losses, configuration, and gradient training of the survival regressor.

The predictor f is a small MLP reading either a cumulative stay-time vector
(discrete, kernel, or neural state function) or a static summary-feature
vector.  Everything trainable, including the state network g of the neural
variant and the decay factor, is updated jointly by Adam: the chain rule runs
from the loss through f's input gradient into the stay-time weights.
"""

from __future__ import annotations

import dataclasses
import numbers
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    ValidationError,
)
from .nn import AdamState, Mlp, Workspace, adam_step, grad_check, log_sigmoid
from .representation import DecayParameter, PackedRecords, segment_ctr, sigmoid, stay_time_matrix
from .sequences import SurvivalDataset, as_dataset
from .states import KernelBasisSet, NeuralStateFunction, SegmentGrid, StateFunction

MODEL_KINDS = ("ctr-d", "ctr-k", "ctr-n", "static")
LOSS_KINDS = ("squared", "combined")
STATIC_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def squared_loss(preds, times):
    """Mean squared error over the minibatch and its gradient in preds."""
    preds = np.asarray(preds, dtype=float)
    times = np.asarray(times, dtype=float)
    if preds.shape != times.shape:
        raise ValidationError("predictions and times disagree on shape")
    diff = preds - times
    loss = float(np.mean(diff**2))
    return loss, 2.0 * diff / preds.shape[0]


def admissible_pairs(times, censored):
    """Index pairs (n, l) with times[n] < times[l] and n uncensored.

    These are the pairs whose ordering a survival model can be scored on:
    the event of n was observed, and l is known to have lasted longer
    (whether or not l's own event was observed).
    """
    times = np.asarray(times, dtype=float)
    censored = np.asarray(censored, dtype=bool)
    earlier = times[:, None] < times[None, :]
    earlier &= ~censored[:, None]
    return np.nonzero(earlier)


def has_admissible_pair(times, censored) -> bool:
    """Whether admissible_pairs(times, censored) is non-empty, in O(B): some
    uncensored record's time lies below the largest time."""
    times = np.asarray(times, dtype=float)
    censored = np.asarray(censored, dtype=bool)
    return bool(times.size) and bool(np.any(times[~censored] < times.max()))


def combined_loss(preds, times, censored):
    """Squared loss over uncensored records plus a pairwise ranking penalty.

    The ranking term averages -ln sigmoid(pred_l - pred_n) over admissible
    pairs, so a pair predicted in the wrong order (earlier event scored
    higher) is penalized and a tied pair costs exactly ln 2.  Batches with no
    admissible pairs contribute a ranking term of zero.  Returns
    (loss, grad); callers can count zero-pair batches via has_admissible_pair.
    """
    preds = np.asarray(preds, dtype=float)
    times = np.asarray(times, dtype=float)
    censored = np.asarray(censored, dtype=bool)
    grad = np.zeros_like(preds)
    unc = ~censored
    n_unc = int(unc.sum())
    if n_unc:
        diff = preds[unc] - times[unc]
        loss = float(np.mean(diff**2))
        grad[unc] = 2.0 * diff / n_unc
    else:
        loss = 0.0
    idx_n, idx_l = admissible_pairs(times, censored)
    if idx_n.size:
        margins = preds[idx_l] - preds[idx_n]
        loss += float(np.mean(-log_sigmoid(margins)))
        # d/dm of -ln sigmoid(m) is sigmoid(m) - 1
        pair_grad = (sigmoid(margins) - 1.0) / idx_n.size
        np.add.at(grad, idx_l, pair_grad)
        np.add.at(grad, idx_n, -pair_grad)
    return loss, grad


def static_features(seq) -> np.ndarray:
    """Per-column summary of the M x (D+1) matrix of observations plus stay times.

    Each column yields mean, population std, and the {0.1, 0.25, 0.5, 0.75,
    0.9} quantiles (linear interpolation), giving 7 * (D + 1) features.
    """
    return static_features_batch([seq])[0]


def static_features_batch(records) -> np.ndarray:
    """static_features of every record (a SurvivalDataset or
    ObservationSequence objects), one row each."""
    data = as_dataset(records)
    pooled = np.column_stack([data.rows, data.gaps])
    feats = np.empty((len(data), pooled.shape[1], 2 + len(STATIC_QUANTILES)))
    counts = np.diff(data.offsets)
    for m in np.unique(counts):  # the records of m observations, as one (n_m, m, D+1) stack
        idx = np.flatnonzero(counts == m)
        stack = pooled[data.offsets[idx, None] + np.arange(m)]
        feats[idx, :, 0] = stack.mean(axis=1)
        feats[idx, :, 1] = stack.std(axis=1)
        feats[idx, :, 2:] = np.moveaxis(np.quantile(stack, STATIC_QUANTILES, axis=1), 0, -1)
    return feats.reshape(len(data), -1)


@dataclass
class Standardizer:
    """Column-wise z-normalization with statistics frozen at fit time."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray, skip_binary: bool = False) -> "Standardizer":
        rows = np.asarray(rows, dtype=float)
        mean = rows.mean(axis=0)
        scale = rows.std(axis=0)
        scale[scale == 0.0] = 1.0
        if skip_binary:
            binary = ((rows == 0) | (rows == 1)).all(axis=0)
            mean[binary] = 0.0
            scale[binary] = 1.0
        return cls(mean, scale)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        return (np.asarray(rows, dtype=float) - self.mean) / self.scale


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value, low: int = 1) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def require_count(name: str, value, low: int = 1) -> None:
    """Refuse value, a seed or a count, unless it is an integer of at least low."""
    if not _is_count(value, low):
        raise ConfigurationError(f"{name} must be an integer of at least {low}, got {value!r}")


def _is_pair(value) -> bool:
    """Whether value is a (min, max) pair of numbers, as a tuple or a JSON list."""
    return isinstance(value, (tuple, list)) and len(value) == 2 and all(map(_is_number, value))


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run, including the seed."""

    model: str
    loss: str = "squared"
    seed: int = 0
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    decay_init: float = 0.999
    decay_trainable: bool = True
    segments: int | tuple = 5
    value_range: tuple | None = (-1.0, 1.0)
    n_bases: int = 100
    gamma: float = 1.0
    gamma_grid: tuple = (0.01, 0.1, 1.0, 10.0, 100.0)
    n_states: int = 100
    f_hidden: tuple = (100,)
    g_hidden: tuple = (100, 100)
    dropout: float = 0.5
    batchnorm: bool = True
    patience: int = 20
    val_fraction: float = 0.2
    standardize: bool | None = None
    normalize_ctr: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.model not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.model!r}")
        if self.loss not in LOSS_KINDS:
            raise ConfigurationError(f"unknown loss kind {self.loss!r}")
        for name, low in (("epochs", 1), ("batch_size", 1), ("n_bases", 1), ("n_states", 1),
                          ("seed", 0), ("patience", 0)):
            require_count(name, getattr(self, name), low)
        if self.loss == "combined" and self.batch_size < 2:
            raise ConfigurationError("the combined loss needs batches of at least 2")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigurationError("val_fraction must lie strictly between 0 and 1")
        if not 0.0 < self.decay_init <= 1.0:
            raise ConfigurationError("decay_init must lie in (0, 1]")
        if self.decay_trainable and self.decay_init >= 1.0:
            raise ConfigurationError("a trainable decay must start strictly below 1")
        for name in ("dropout", "beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {value!r}")
        for name in ("gamma", "learning_rate", "adam_eps"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
        for name in ("gamma_grid", "f_hidden", "g_hidden", "segments", "value_range"):
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("f_hidden", "g_hidden", "segments"):
            value = getattr(self, name)
            if not ((name == "segments" and _is_count(value))
                    or (isinstance(value, tuple) and all(map(_is_count, value)))):
                raise ConfigurationError(f"{name} must hold positive integers, got {value!r}")
        vr = self.value_range
        if vr is not None and not (_is_pair(vr) or (isinstance(vr, tuple) and vr
                                                    and all(map(_is_pair, vr)))):
            raise ConfigurationError(
                f"value_range must be one (min, max) pair or one per dimension, got {vr!r}")
        if not (self.gamma_grid and all(
                _is_number(g) and 0 < g < np.inf for g in self.gamma_grid)):
            raise ConfigurationError(
                f"gamma_grid must hold positive finite numbers, got {self.gamma_grid!r}")

    @property
    def wants_standardize(self) -> bool:
        if self.standardize is None:
            return self.loss == "combined"
        return bool(self.standardize)

    @property
    def grid_range(self):
        """The range of a CTR-D grid, or None for a grid fitted to the prepped
        training rows (and then clamped): a configured range describes raw
        observations, so it does not hold once they are standardized."""
        return None if self.wants_standardize else self.value_range

    def predictor_net(self, n_in: int, rng=None) -> Mlp:
        """The predictor f for inputs of width n_in."""
        return Mlp([n_in, *self.f_hidden, 1], out_activation="identity",
                   batchnorm=self.batchnorm, dropout=self.dropout, rng=rng)

    def state_net(self, n_in: int, rng=None) -> Mlp:
        """CTR-N's state network g for observations of width n_in."""
        return Mlp([n_in, *self.g_hidden, self.n_states], out_activation="softmax",
                   batchnorm=self.batchnorm, dropout=self.dropout, rng=rng)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for k, v in out.items():
            if isinstance(v, tuple):
                out[k] = list(v)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        check_config(cls, d)
        return cls(**d)


def _fits(value, kind) -> bool:
    """Whether a JSON value has one of a config field's types: JSON arrays
    stand for tuples, any integer is an int and any real number a float (so
    numpy scalars count), a bool is not a number, and null is a value only
    where the field admits None."""
    if kind is tuple:
        return isinstance(value, (list, tuple))
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


def check_field_types(config) -> None:
    """Raise ConfigurationError naming the first field of a config dataclass
    whose value fits none of its field's types. A numpy scalar that fits
    becomes the Python number, so that every accepted config can be written
    as JSON."""
    hints = typing.get_type_hints(type(config))
    for key, value in vars(config).items():
        if not any(_fits(value, kind) for kind in typing.get_args(hints[key]) or (hints[key],)):
            declared = config.__dataclass_fields__[key].type
            raise ConfigurationError(f"field {key!r} must be {declared}, got {value!r}")
        if isinstance(value, np.generic):
            object.__setattr__(config, key, value.item())


def check_config(config_cls, d) -> None:
    """Refuse d as the fields of a config dataclass unless it is a JSON object
    (TypeError) naming only known fields (ConfigurationError); the values are
    the dataclass's own to check."""
    if not isinstance(d, dict):
        raise TypeError(f"a config is a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in dataclasses.fields(config_cls)}
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")


@dataclass
class TrainedModel:
    """A trained predictor plus everything needed to featurize new records.

    It is the one path from records to the predictor's input: training
    batches, per-epoch validation and scoring all take theirs from _inputs."""

    config: TrainConfig
    predictor: Mlp | None = None
    state: StateFunction | None = None
    decay: DecayParameter | None = None
    obs_standardizer: Standardizer | None = None
    dem_standardizer: Standardizer | None = None
    static_standardizer: Standardizer | None = None
    history: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_score: float = 0.0
    pairless_batches: int = 0

    def _inputs(self, data: SurvivalDataset) -> tuple:
        """(base, dem) of every record, standardized: base is the static
        features for a static model and the packed records otherwise, dem
        the demographics or None when there are none."""
        base = (static_features_batch(data) if self.config.model == "static"
                else PackedRecords.pack(data))
        return self._standardized(base, data.demographics if data.n_demographics else None)

    def _standardized(self, base, dem) -> tuple:
        """base and dem through the model's standardizers, where it has them."""
        if self.static_standardizer is not None:
            base = self.static_standardizer.transform(base)
        if self.obs_standardizer is not None:
            base = replace(base, rows=self.obs_standardizer.transform(base.rows))
        if dem is not None and self.dem_standardizer is not None:
            dem = self.dem_standardizer.transform(dem)
        return base, dem

    def _features_of(self, base, dem) -> np.ndarray:
        """The eval-mode predictor input of _inputs' (base, dem): the
        stay-time vectors for the CTR kinds, then the demographics."""
        if self.config.model != "static":
            base = stay_time_matrix(base, self.state, self.decay.value, self.config.normalize_ctr)
        return base if dem is None else np.concatenate([base, dem], axis=1)

    def features(self, X) -> np.ndarray:
        """The matrix fed to the predictor for the given records."""
        return self._features_of(*self._inputs(as_dataset(X)))

    def predict(self, X) -> np.ndarray:
        """Predicted event time for each record (eval mode, deterministic)."""
        return self.predictor.forward(self.features(X))[:, 0]


def shuffled_strata(n: int, censored, rng) -> list:
    """The indices 0..n-1 cut by censoring, each stratum shuffled by rng:
    the censored records, then the uncensored ones.  An empty stratum is
    left out, so without censoring (censored all False or None) there is one.
    The validation split and the cross-validation folds both cut these, so
    each keeps roughly the overall censoring rate."""
    censored = np.zeros(n, dtype=bool) if censored is None else np.asarray(censored, dtype=bool)
    strata = [s for s in (np.flatnonzero(censored), np.flatnonzero(~censored)) if len(s)]
    return [s[rng.permutation(len(s))] for s in strata]


def split_validation(n: int, censored, fraction: float, rng):
    """Shuffled train/validation index split, stratified by censoring."""
    val_parts, train_parts = [], []
    for s in shuffled_strata(n, censored, rng):
        n_val = int(round(fraction * len(s)))
        val_parts.append(s[:n_val])
        train_parts.append(s[n_val:])
    val_idx = np.concatenate(val_parts)
    train_idx = np.concatenate(train_parts)
    if len(val_idx) == 0 or len(train_idx) == 0:
        raise ValidationError(
            f"validation split is degenerate: {len(train_idx)} train / {len(val_idx)} val"
        )
    return np.sort(train_idx), np.sort(val_idx)


class _Components:
    """Everything one configured model needs for a forward/backward pass.

    Built once per training run and shared verbatim by the gradient checker,
    so the checked code path is the trained code path.  It owns the run's
    train-mode workspaces and its flat gradient, laid out like params(): f's
    blocks, then g's, then the decay raw value.  They go when the run ends.
    """

    def __init__(self, dataset: SurvivalDataset, config: TrainConfig):
        """Split the data, fit preprocessing on the training side only, and
        build the state function and networks for one model."""
        self.config = config
        self.times = times = dataset.event_times()
        self.censored = censored = dataset.censor_mask()

        ss = np.random.SeedSequence(config.seed)
        rng_split, rng_finit, rng_ginit, rng_bases, self.rng_shuffle, self.rng_dropout = (
            np.random.default_rng(s) for s in ss.spawn(6)
        )

        self.train_idx, self.val_idx = train_idx, val_idx = split_validation(
            len(dataset), censored, config.val_fraction, rng_split)
        # the model trained in place; train_model adds what its epochs found
        model = self.model = TrainedModel(config)
        base, dem = model._inputs(dataset)  # raw: no standardizer is fitted yet
        static = config.model == "static"
        if config.wants_standardize:
            # fitted on the training records only, then applied to every record once
            if static:
                model.static_standardizer = Standardizer.fit(base[train_idx])
            else:
                model.obs_standardizer = Standardizer.fit(base.take(train_idx).rows)
            if dem is not None:
                model.dem_standardizer = Standardizer.fit(dem[train_idx], skip_binary=True)
            base, dem = model._standardized(base, dem)

        self.gnet = None
        if static:
            n_in = base.shape[1]
        else:
            model.decay = DecayParameter(config.decay_init, trainable=config.decay_trainable)
            train_rows = base.take(train_idx).rows
            if config.model == "ctr-d":
                model.state = SegmentGrid.fit(train_rows, config.segments, config.grid_range)
            elif config.model == "ctr-k":
                model.state = KernelBasisSet.fit(
                    train_rows, config.n_bases, config.gamma, rng_bases)
            else:
                self.gnet = config.state_net(dataset.n_features, rng_ginit)
                model.state = NeuralStateFunction(self.gnet)
            if config.model != "ctr-n":
                # a fixed state function: weigh every row once, up front
                base = base.with_weights(model.state)
            n_in = model.state.n_states

        model.predictor = config.predictor_net(
            n_in + (0 if dem is None else dem.shape[1]), rng_finit)
        self.f, self.decay = model.predictor, model.decay
        self.base, self.dem = base, dem
        self.val_inputs = self.inputs_at(val_idx)

        nets = [net for net in (self.f, self.gnet) if net is not None]
        raw = [self.decay.raw] if self.decay is not None and self.decay.trainable else []
        self.vectors = [net.flat_params for net in nets] + raw  # what Adam updates
        self.states = [net.flat for net in nets] + raw  # what a best-epoch snapshot copies
        self.grad = np.zeros(sum(v.size for v in self.vectors))
        self.work = {net: Workspace(net, self.grad[lo:lo + net.n_params])
                     for net, lo in zip(nets, (0, self.f.n_params))}
        self.scratch = Workspace()  # this class's own per-row buffers

    def inputs_at(self, idx) -> tuple:
        """The (base, dem) of the records at the global indices idx."""
        base = self.base[idx] if self.config.model == "static" else self.base.take(idx)
        return base, None if self.dem is None else self.dem[idx]

    def params(self) -> dict:
        p = {f"f/{k}": v for k, v in self.f.params().items()}
        if self.gnet is not None:
            p.update({f"g/{k}": v for k, v in self.gnet.params().items()})
        if self.decay is not None and self.decay.trainable:
            p["decay/raw"] = self.decay.raw
        return p

    def grad_blocks(self, grad) -> dict:
        """Views of a vector laid out like the flat gradient, named like params()."""
        out, lo = {}, 0
        for name, p in self.params().items():
            out[name], lo = grad[lo:lo + p.size].reshape(p.shape), lo + p.size
        return out

    def require_finite(self, loss, epoch):
        """One finiteness check of the loss and the flat gradient; a failure
        names the loss or else the first non-finite gradient block."""
        if np.isfinite(loss) and np.isfinite(self.grad).all():
            return
        bad = "loss" if not np.isfinite(loss) else "gradient " + next(
            name for name, g in self.grad_blocks(self.grad).items() if not np.isfinite(g).all())
        raise DivergenceError(f"non-finite value in {bad} at epoch {epoch}")

    def batch_loss_and_grads(self, local_idx, rng):
        """Train-mode forward and backward over the training records at
        local_idx: the chain rule runs from the loss through f's input
        gradient, formed here only when g or the decay raw value needs it.
        Returns the loss and the flat gradient, written in place."""
        config, decay = self.config, self.decay
        global_idx = self.train_idx[local_idx]
        X, dem = self.inputs_at(global_idx)
        if config.model != "static":
            batch = X
            u = batch.stay_times(decay.value)
            W, gcache = batch.weights, None
            if config.model == "ctr-n":
                W, gcache = self.gnet.forward(batch.rows, mode="train", rng=rng,
                                              work=self.work[self.gnet])
            starts = batch.offsets[:-1]
            prod = self.scratch.buf("prod", *W.shape)
            Z, totals = segment_ctr(u, W, starts, config.normalize_ctr, scratch=prod)
            X = Z
        if dem is not None:
            X = np.concatenate([X, dem], axis=1)
        out, fcache = self.f.forward(X, mode="train", rng=rng, work=self.work[self.f])
        preds = out[:, 0]
        t = self.times[global_idx]
        if config.loss == "squared":
            loss, dpred = squared_loss(preds, t)
        else:
            loss, dpred = combined_loss(preds, t, self.censored[global_idx])
        _, da0 = self.f.backward(dpred[:, None], fcache)
        if config.model == "static" or (config.model != "ctr-n" and not decay.trainable):
            return loss, self.grad

        dX = np.matmul(da0, self.f.weights[0].T, out=self.scratch.buf("dX", *X.shape))
        gz = dX[:, : Z.shape[1]]
        if config.normalize_ctr:
            gz = gz / totals[:, None]
        # each record's row of gz, repeated over its observations
        counts = batch.counts
        gz_rows = np.take(gz, np.repeat(np.arange(len(counts)), counts), axis=0,
                          out=self.scratch.buf("gz_rows", *W.shape))
        if config.model == "ctr-n":
            self.gnet.backward(np.multiply(gz_rows, u[:, None], out=prod), gcache)
        if decay.trainable:
            lam, expo = decay.value, batch.exponents
            s_rows = np.einsum("ij,ij->i", gz_rows, W)
            dldlam = float(np.sum(s_rows * u * expo) / lam)
            if config.normalize_ctr:
                # the totals also move with the decay value
                dtot = np.add.reduceat(u * expo, starts) / lam
                z_dot = np.sum(gz * Z, axis=1)
                dldlam -= float(np.sum(z_dot * dtot))
            self.grad[-1] = dldlam * decay.value_grad()
        return loss, self.grad

    def predict_validation(self) -> np.ndarray:
        return self.f.forward(self.model._features_of(*self.val_inputs))[:, 0]


def train_model(dataset: SurvivalDataset, config: TrainConfig) -> TrainedModel:
    """Train one model; early-stops on validation C-index and returns the
    parameter snapshot that scored best there."""
    from .evaluation import c_index  # local import to avoid a module cycle

    # one scope per fit: a diverging fit fails through its finiteness checks
    # as a DivergenceError, and numpy prints no warnings on the way
    with np.errstate(all="ignore"):
        comp = _Components(dataset, config)
        times, censored = comp.times, comp.censored
        train_idx, val_idx = comp.train_idx, comp.val_idx
        adam = AdamState(lr=config.learning_rate, beta1=config.beta1, beta2=config.beta2,
                         eps=config.adam_eps)

        history = []
        best = (-np.inf, -1)
        best_snap = None
        pairless = 0
        for epoch in range(1, config.epochs + 1):
            order = comp.rng_shuffle.permutation(len(train_idx))
            batch_losses = []
            for start in range(0, len(order), config.batch_size):
                batch_local = order[start : start + config.batch_size]
                loss, grad = comp.batch_loss_and_grads(batch_local, comp.rng_dropout)
                if config.loss == "combined":
                    batch_global = train_idx[batch_local]
                    if not has_admissible_pair(times[batch_global], censored[batch_global]):
                        pairless += 1
                comp.require_finite(loss, epoch)
                adam_step(comp.vectors, grad, adam)
                batch_losses.append(loss)

            preds = comp.predict_validation()
            if not np.isfinite(preds).all():
                raise DivergenceError(
                    f"non-finite value in validation predictions at epoch {epoch}")
            val_score = c_index(preds, times[val_idx], censored[val_idx])
            history.append({"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
                            "val_score": float(val_score)})
            if val_score > best[0]:
                best = (val_score, epoch)
                best_snap = [v.copy() for v in comp.states]
            if epoch - best[1] >= config.patience and epoch < config.epochs:
                break

        for v, snap in zip(comp.states, best_snap or ()):
            v[...] = snap

    return replace(comp.model, history=history, best_epoch=best[1],
                   best_val_score=float(best[0]), pairless_batches=pairless)


def gradient_check_model(dataset: SurvivalDataset, config: TrainConfig,
                         eps: float = 1e-5,
                         max_entries: int | None = None) -> dict:
    """Finite-difference check of the production backward pass.

    Runs the training loop's batch step with dropout forced off, so the loss
    is a pure function of the parameters: train-mode batch norm reads only
    the batch statistics.  Returns max relative error per parameter block;
    blocks cover f, and for ctr-n also g and the decay raw value when
    trainable.
    """
    config = replace(config, dropout=0.0)
    comp = _Components(dataset, config)
    local = np.arange(min(config.batch_size, len(comp.train_idx)))

    def loss_and_grads():
        loss, grad = comp.batch_loss_and_grads(local, None)
        return loss, comp.grad_blocks(grad.copy())

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xC7EC]))
    return grad_check(comp.params(), loss_and_grads, eps=eps,
                      max_entries=max_entries, rng=rng)

"""Losses, configuration, and gradient training of the survival regressor.

The predictor f is a small MLP reading either a cumulative stay-time vector
(discrete, kernel, or neural state function) or a static summary-feature
vector.  Everything trainable, including the state network g of the neural
variant and the decay factor, is updated jointly by Adam: the chain rule runs
from the loss through f's input gradient into the stay-time weights.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    UndefinedResultError,
    ValidationError,
)
from .nn import AdamState, Mlp, Workspace, adam_step, grad_check, log_sigmoid
from .representation import DecayParameter, PackedRecords, segment_ctr, sigmoid, stay_time_matrix
from .sequences import SurvivalDataset, as_dataset
from .states import DiscreteStateFunction, KernelStateFunction, NeuralStateFunction, StateFunction

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
    for i, (a, b) in enumerate(zip(data.offsets[:-1], data.offsets[1:])):
        cols = pooled[a:b]
        feats[i, :, 0] = cols.mean(axis=0)
        feats[i, :, 1] = cols.std(axis=0)
        feats[i, :, 2:] = np.quantile(cols, STATIC_QUANTILES, axis=0).T
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
            binary = np.array(
                [set(np.unique(rows[:, j])) <= {0.0, 1.0} for j in range(rows.shape[1])]
            )
            mean[binary] = 0.0
            scale[binary] = 1.0
        return cls(mean, scale)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        return (np.asarray(rows, dtype=float) - self.mean) / self.scale


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
        if self.model not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.model!r}")
        if self.loss not in LOSS_KINDS:
            raise ConfigurationError(f"unknown loss kind {self.loss!r}")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.loss == "combined" and self.batch_size < 2:
            raise ConfigurationError("the combined loss needs batches of at least 2")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigurationError("val_fraction must lie strictly between 0 and 1")
        if self.patience < 0:
            raise ConfigurationError("patience must be nonnegative")
        if not 0.0 < self.decay_init <= 1.0:
            raise ConfigurationError("decay_init must lie in (0, 1]")
        if self.decay_trainable and self.decay_init >= 1.0:
            raise ConfigurationError("a trainable decay must start strictly below 1")
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        for name in ("gamma_grid", "f_hidden", "g_hidden", "segments", "value_range"):
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def wants_standardize(self) -> bool:
        if self.standardize is None:
            return self.loss == "combined"
        return bool(self.standardize)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for k, v in out.items():
            if isinstance(v, tuple):
                out[k] = list(v)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class TrainedModel:
    """A trained predictor plus everything needed to featurize new records."""

    config: TrainConfig
    predictor: Mlp
    state: StateFunction | None
    decay: DecayParameter | None
    obs_standardizer: Standardizer | None
    dem_standardizer: Standardizer | None
    static_standardizer: Standardizer | None
    history: list
    best_epoch: int
    best_val_score: float
    pairless_batches: int = 0

    def _demographics(self, data: SurvivalDataset) -> np.ndarray | None:
        if not data.n_demographics:
            return None
        dem = data.demographics
        if self.dem_standardizer is not None:
            dem = self.dem_standardizer.transform(dem)
        return dem

    def features(self, X) -> np.ndarray:
        """The matrix fed to the predictor for the given records."""
        data = as_dataset(X)
        if self.config.model == "static":
            feats = static_features_batch(data)
            if self.static_standardizer is not None:
                feats = self.static_standardizer.transform(feats)
            return _with_demographics(feats, self._demographics(data))
        packed = PackedRecords.pack(data)
        if self.obs_standardizer is not None:
            packed.rows = self.obs_standardizer.transform(packed.rows)
        return _ctr_features(packed, self.state, self.decay.value,
                             self.config.normalize_ctr, self._demographics(data))

    def predict(self, X) -> np.ndarray:
        """Predicted event time for each record (eval mode, deterministic)."""
        return self.predictor.forward(self.features(X))[:, 0]


def split_validation(n: int, censored, fraction: float, rng, stratify: bool = True):
    """Shuffled train/validation index split, optionally stratified by censoring."""
    censored = np.asarray(censored, dtype=bool)
    if stratify and censored.any() and (~censored).any():
        strata = [np.flatnonzero(censored), np.flatnonzero(~censored)]
    else:
        strata = [np.arange(n)]
    val_parts, train_parts = [], []
    for s in strata:
        s = s[rng.permutation(len(s))]
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


def _with_demographics(X, dem) -> np.ndarray:
    """Predictor input of every model kind: X, then the standardized
    demographics when the dataset has any."""
    return X if dem is None else np.concatenate([X, dem], axis=1)


def _ctr_features(packed, state, decay, normalize, dem) -> np.ndarray:
    """Predictor input in eval mode: stay-time vectors plus demographics.
    Scoring and per-epoch validation both run through here."""
    return _with_demographics(stay_time_matrix(packed, state, decay, normalize), dem)


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

        stratify = bool(censored.any())
        self.train_idx, self.val_idx = train_idx, val_idx = split_validation(
            len(dataset), censored, config.val_fraction, rng_split, stratify
        )
        standardize = config.wants_standardize
        self.obs_std = self.dem_std = self.static_std = None
        self.train_packed = self.val_packed = None
        if config.model != "static":
            packed = PackedRecords.pack(dataset)
            if standardize:
                self.obs_std = Standardizer.fit(packed.take(train_idx).rows)
                packed.rows = self.obs_std.transform(packed.rows)
            self.train_packed, self.val_packed = packed.take(train_idx), packed.take(val_idx)

        self.dem = None
        if dataset.n_demographics:
            self.dem = dataset.demographics
            if standardize:
                self.dem_std = Standardizer.fit(self.dem[train_idx], skip_binary=True)
                self.dem = self.dem_std.transform(self.dem)

        self.gnet = self.state = self.decay = self.feats_all = None
        if config.model == "static":
            feats = static_features_batch(dataset)
            if standardize:
                self.static_std = Standardizer.fit(feats[train_idx])
                feats = self.static_std.transform(feats)
            n_ctr = feats.shape[1]
            self.feats_all = _with_demographics(feats, self.dem)
        else:
            self.decay = DecayParameter(config.decay_init, trainable=config.decay_trainable)
            if config.model == "ctr-d":
                # a configured range describes raw observations; once they are
                # standardized the grid has to come from the prepped data instead
                self.state = DiscreteStateFunction.fit(
                    self.train_packed.rows, config.segments,
                    None if standardize else config.value_range)
            elif config.model == "ctr-k":
                self.state = KernelStateFunction.fit(
                    self.train_packed.rows, config.n_bases, config.gamma, rng_bases)
            else:
                self.gnet = Mlp(
                    [dataset.n_features, *config.g_hidden, config.n_states],
                    out_activation="softmax",
                    batchnorm=config.batchnorm,
                    dropout=config.dropout,
                    rng=rng_ginit,
                )
                self.state = NeuralStateFunction(self.gnet)
            n_ctr = self.state.n_states

        n_dem = 0 if self.dem is None else self.dem.shape[1]
        self.f = Mlp(
            [n_ctr + n_dem, *config.f_hidden, 1],
            out_activation="identity",
            batchnorm=config.batchnorm,
            dropout=config.dropout,
            rng=rng_finit,
        )
        if config.model in ("ctr-d", "ctr-k"):
            # fixed state functions: weigh every training and validation row once, up front
            self.train_packed = self.train_packed.with_weights(self.state)
            self.val_packed = self.val_packed.with_weights(self.state)

        nets = [net for net in (self.f, self.gnet) if net is not None]
        raw = [self.decay.raw] if self.decay is not None and self.decay.trainable else []
        self.vectors = [net.flat_params for net in nets] + raw  # what Adam updates
        self.states = [net.flat for net in nets] + raw  # what a best-epoch snapshot copies
        self.grad = np.zeros(sum(v.size for v in self.vectors))
        self.work = {net: Workspace(net, self.grad[lo:lo + net.n_params])
                     for net, lo in zip(nets, (0, self.f.n_params))}
        self.scratch = Workspace()  # this class's own per-row buffers

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

    def assemble(self, packed, local_idx, global_idx, rng, update_stats=None):
        """Train-mode predictor input for a batch plus what the backward
        pass needs."""
        config = self.config
        if config.model == "static":
            return self.feats_all[global_idx], None
        batch = packed.take(local_idx)
        u = batch.stay_times(self.decay.value)
        W, gcache = batch.weights, None
        if config.model == "ctr-n":
            W, gcache = self.gnet.forward(
                batch.rows, mode="train", rng=rng, want_cache=True,
                update_stats=update_stats, work=self.work[self.gnet],
            )
        starts = batch.offsets[:-1]
        Z, totals = segment_ctr(u, W, starts, config.normalize_ctr,
                                scratch=self.scratch.buf("prod", *W.shape))
        aux = {
            "u": u, "expo": batch.exponents, "W": W, "starts": starts,
            "counts": batch.counts, "gcache": gcache, "totals": totals, "Z": Z,
        }
        dem = None if self.dem is None else self.dem[global_idx]
        return _with_demographics(Z, dem), aux

    def ctr_backward(self, gz, aux):
        """Gradients of the loss through z into g and the decay raw value,
        written into the flat gradient."""
        config = self.config
        decay = self.decay
        if config.model != "ctr-n" and not decay.trainable:
            return
        u, expo, W, starts, counts = (
            aux["u"], aux["expo"], aux["W"], aux["starts"], aux["counts"],
        )
        gz_eff = gz
        if config.normalize_ctr:
            gz_eff = gz / aux["totals"][:, None]
        # each record's row of gz_eff, repeated over its observations
        gz_rows = np.take(gz_eff, np.repeat(np.arange(len(counts)), counts), axis=0,
                          out=self.scratch.buf("gz_rows", *W.shape))
        prod = self.scratch.buf("prod", *W.shape)
        if config.model == "ctr-n":
            self.gnet.backward(np.multiply(gz_rows, u[:, None], out=prod), aux["gcache"])
        if decay.trainable:
            lam = decay.value
            s_rows = np.multiply(gz_rows, W, out=prod).sum(axis=1)
            dldlam = float(np.sum(s_rows * u * expo) / lam)
            if config.normalize_ctr:
                # the totals also move with the decay value
                dtot = np.add.reduceat(u * expo, starts) / lam
                z_dot = np.sum(gz_eff * aux["Z"], axis=1)
                dldlam -= float(np.sum(z_dot * dtot))
            self.grad[-1] = dldlam * decay.value_grad()

    def batch_loss_and_grads(self, packed, local_idx, global_idx, rng,
                             update_stats=None):
        """Train-mode forward and backward over one batch: returns the loss
        and the flat gradient, written in place."""
        config = self.config
        X, aux = self.assemble(packed, local_idx, global_idx, rng,
                               update_stats=update_stats)
        out, fcache = self.f.forward(X, mode="train", rng=rng, want_cache=True,
                                     update_stats=update_stats, work=self.work[self.f])
        preds = out[:, 0]
        t = self.times[global_idx]
        if config.loss == "squared":
            loss, dpred = squared_loss(preds, t)
        else:
            loss, dpred = combined_loss(preds, t, self.censored[global_idx])
        _, dX = self.f.backward(dpred[:, None], fcache)
        if config.model != "static":
            self.ctr_backward(dX[:, : aux["Z"].shape[1]], aux)
        return loss, self.grad

    def predict_validation(self) -> np.ndarray:
        if self.config.model == "static":
            X = self.feats_all[self.val_idx]
        else:
            dem = None if self.dem is None else self.dem[self.val_idx]
            X = _ctr_features(self.val_packed, self.state, self.decay.value,
                              self.config.normalize_ctr, dem)
        return self.f.forward(X)[:, 0]


def train_model(dataset: SurvivalDataset, config: TrainConfig) -> TrainedModel:
    """Train one model; early-stops on validation C-index and returns the
    parameter snapshot that scored best there."""
    from .evaluation import c_index  # local import to avoid a module cycle

    # one scope per fit: a diverging fit fails through its finiteness checks
    # as a DivergenceError, and numpy prints no warnings on the way
    with np.errstate(all="ignore"):
        comp = _Components(dataset, config)
        config = comp.config
        times, censored = comp.times, comp.censored
        train_idx, val_idx = comp.train_idx, comp.val_idx
        adam = AdamState(lr=config.learning_rate, beta1=config.beta1, beta2=config.beta2,
                         eps=config.adam_eps)

        local_order = np.arange(len(train_idx))
        history = []
        best = (-np.inf, -1)
        best_snap = None
        pairless = 0
        for epoch in range(1, config.epochs + 1):
            order = local_order[comp.rng_shuffle.permutation(len(local_order))]
            batch_losses = []
            for start in range(0, len(order), config.batch_size):
                batch_local = order[start : start + config.batch_size]
                batch_global = train_idx[batch_local]
                loss, grad = comp.batch_loss_and_grads(
                    comp.train_packed, batch_local, batch_global, comp.rng_dropout
                )
                if config.loss == "combined":
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

    return TrainedModel(
        config=config,
        predictor=comp.f,
        state=comp.state,
        decay=comp.decay,
        obs_standardizer=comp.obs_std,
        dem_standardizer=comp.dem_std,
        static_standardizer=comp.static_std,
        history=history,
        best_epoch=best[1],
        best_val_score=float(best[0]),
        pairless_batches=pairless,
    )


def gradient_check_model(dataset: SurvivalDataset, config: TrainConfig,
                         eps: float = 1e-5,
                         max_entries: int | None = None) -> dict:
    """Finite-difference check of the production backward pass.

    Runs the same assembly the training loop uses, in deterministic mode:
    dropout forced off, batch-norm on batch statistics with frozen running
    stats.  Returns max relative error per parameter block; blocks cover f,
    and for ctr-n also g and the decay raw value when trainable.
    """
    config = replace(config, dropout=0.0)
    comp = _Components(dataset, config)
    local = np.arange(min(config.batch_size, len(comp.train_idx)))
    global_idx = comp.train_idx[local]

    def loss_and_grads():
        loss, grad = comp.batch_loss_and_grads(
            comp.train_packed, local, global_idx, None, update_stats=False
        )
        return loss, comp.grad_blocks(grad.copy())

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xC7EC]))
    return grad_check(comp.params(), loss_and_grads, eps=eps,
                      max_entries=max_entries, rng=rng)


@dataclass
class HyperSearchResult:
    best_config: TrainConfig
    best_model: TrainedModel
    candidates: list  # (overrides, validation score) in grid order


def default_grid(config: TrainConfig) -> list:
    """The exhaustive candidate grid a model kind searches by default."""
    if config.model == "ctr-k":
        return [{"gamma": g} for g in config.gamma_grid]
    return [{}]


def hyper_search(dataset: SurvivalDataset, config: TrainConfig,
                 grid: list | None = None) -> HyperSearchResult:
    """Exhaustive search over candidate overrides, scored by validation C-index.

    Candidates run in grid order with identical seeds, so they share the same
    validation split; ties keep the earliest candidate.  Each candidate is
    one cross-validation job (evaluation.fit_job), run here.
    """
    from .evaluation import FitJob, first_best, fit_job  # local import to avoid a module cycle

    if grid is None:
        grid = default_grid(config)
    if not grid:
        raise ConfigurationError("hyper_search needs at least one candidate")
    fits = [fit_job(dataset, FitJob(replace(config, **overrides))) for overrides in grid]
    best = fits[first_best([result.score for _, result in fits])][0]
    return HyperSearchResult(
        best_config=best.config, best_model=best,
        candidates=[(dict(o), float(result.score)) for o, (_, result) in zip(grid, fits)],
    )

"""Estimator-style wrappers around the functional core.

These follow the scikit-learn calling conventions (constructor stores
parameters verbatim, fit validates and learns, get_params/set_params expose
the constructor surface) so the models drop into sklearn-flavored tooling,
without taking scikit-learn on as a dependency.  Inputs stay domain-typed:
a labeled SurvivalDataset, or a list of ObservationSequence plus label arrays.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (ConfigurationError, ValidationError, require_bool, require_count,
                     require_counts, require_decay, require_positive, require_range)
from .evaluation import c_index
from .representation import compute_ctr_batch
from .sequences import SurvivalDataset, as_dataset, as_float_array
from .states import KernelBasisSet, SegmentGrid
from .training import TrainConfig, train_model


class ParamsMixin:
    """Estimator parameters over the class's DEFAULTS table, sklearn-style:
    the constructor takes keywords only and stores each value verbatim,
    the default where none is given; get_params, set_params and repr use
    the table's names in its order, and an unknown name is refused."""

    DEFAULTS: dict = {}

    def __init__(self, **params):
        self.set_params(**{**self.DEFAULTS, **params})

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self.DEFAULTS}

    def set_params(self, **params):
        unknown = sorted(set(params) - set(self.DEFAULTS))
        if unknown:
            raise ConfigurationError(f"invalid parameters {unknown} for {type(self).__name__}")
        for key, value in params.items():
            setattr(self, key, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


# TrainConfig's defaults: the one copy of each shared parameter's default
TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}


def _as_labeled_dataset(X, y=None, censored=None) -> SurvivalDataset:
    if isinstance(X, SurvivalDataset) and y is None:
        X.event_times()  # raises when X carries no labels
        return X
    if y is None:
        raise ValidationError("y (event times) is required when X carries no labels")
    return as_dataset(X)._with_labels(as_float_array(y, "event times", 1), censored)


class CtrFeaturizer(ParamsMixin):
    """Transformer from observation sequences to cumulative stay-time vectors.

    kind "grid" partitions a box into one-hot cells; kind "kernel" uses
    normalized radial-basis weights around points sampled from the fit data.
    fit learns the state function, transform maps records to (N, K) rows.
    """

    DEFAULTS = dict(kind="grid", segments=TRAIN_DEFAULTS["segments"],
                    value_range=TRAIN_DEFAULTS["value_range"], clamp=False,
                    n_bases=TRAIN_DEFAULTS["n_bases"], gamma=TRAIN_DEFAULTS["gamma"],
                    decay=1.0, normalize=False, random_state=0)

    def fit(self, X, y=None):
        """Learn the state function from the pooled rows of X, after checking
        every parameter, whichever kind or step uses it."""
        require_counts("segments", self.segments)
        require_range("value_range", self.value_range, none_ok=True)
        require_bool("clamp", self.clamp)
        require_count("n_bases", self.n_bases)
        require_positive("gamma", self.gamma)
        require_decay("decay", self.decay)
        require_bool("normalize", self.normalize)
        require_count("random_state", self.random_state, 0)
        pooled = as_dataset(X).rows
        if self.kind == "grid":
            self.state_ = SegmentGrid.fit(pooled, self.segments, self.value_range, self.clamp)
        elif self.kind == "kernel":
            self.state_ = KernelBasisSet.fit(pooled, self.n_bases, self.gamma,
                                             np.random.default_rng(self.random_state))
        else:
            raise ConfigurationError(f"unknown featurizer kind {self.kind!r}")
        self.n_states_ = self.state_.n_states
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "state_"):
            raise ValidationError("this featurizer is not fitted; call fit first")
        return compute_ctr_batch(as_dataset(X), self.state_, decay=self.decay,
                                 normalize=self.normalize)

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class StayTimeRegressor(ParamsMixin):
    """Survival-time regressor over stay-time features, estimator-style.

    Constructor parameters are TrainConfig's fields, one for one, with the
    same defaults; fit accepts a labeled SurvivalDataset, or sequences plus
    event times (and an optional censoring mask).  score returns the
    concordance index, so higher is better and 0.5 is chance.
    """

    DEFAULTS = TRAIN_DEFAULTS | {"model": "ctr-d"}

    def _config(self) -> TrainConfig:
        return TrainConfig(**self.get_params())

    def fit(self, X, y=None, censored=None):
        dataset = _as_labeled_dataset(X, y, censored)
        self.model_ = train_model(dataset, self._config())
        self.best_epoch_ = self.model_.best_epoch
        self.best_val_score_ = self.model_.best_val_score
        return self

    def _require_fitted(self):
        if not hasattr(self, "model_"):
            raise ValidationError("this estimator is not fitted; call fit first")

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        return self.model_.predict(as_dataset(X))

    def score(self, X, y=None, censored=None) -> float:
        self._require_fitted()
        dataset = _as_labeled_dataset(X, y, censored)
        preds = self.model_.predict(dataset)
        return c_index(preds, dataset.event_times(), dataset.censor_mask())

"""Estimator wrappers: parameter protocol, fit/predict/score, featurizer."""

import numpy as np
import pytest

from staytime.errors import ConfigurationError, ValidationError
from staytime.estimators import CtrFeaturizer, StayTimeRegressor
from staytime.representation import compute_ctr_batch
from staytime.sequences import SurvivalDataset
from staytime.synthgen import SynthConfig, generate
from staytime.training import TrainConfig

from test_training import toy_dataset


@pytest.fixture(scope="module")
def synth():
    return generate(SynthConfig(seed=4, n_records=80, n_obs=6)).dataset


def fast_regressor(**kw):
    base = dict(model="ctr-d", seed=1, epochs=6, batch_size=16, segments=4,
                f_hidden=(8,), dropout=0.0, patience=3)
    base.update(kw)
    return StayTimeRegressor(**base)


class TestParamsProtocol:
    def test_get_params_covers_train_config(self):
        params = StayTimeRegressor().get_params()
        cfg = TrainConfig(model="ctr-d")
        assert set(params) == set(cfg.to_dict())

    def test_set_params_chains_and_applies(self):
        est = StayTimeRegressor()
        assert est.set_params(epochs=3, model="static") is est
        assert est.get_params()["epochs"] == 3
        assert est.model == "static"

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError):
            StayTimeRegressor().set_params(bogus=1)
        with pytest.raises(ConfigurationError):
            CtrFeaturizer().set_params(gamma_grid=(1,))

    def test_repr_mentions_params(self):
        assert "model='ctr-d'" in repr(StayTimeRegressor())

    def test_clone_by_params(self):
        est = fast_regressor(epochs=9)
        clone = StayTimeRegressor(**est.get_params())
        assert clone.get_params() == est.get_params()


class TestRegressor:
    def test_fit_predict_score(self, synth):
        est = fast_regressor().fit(synth)
        preds = est.predict(synth)
        assert preds.shape == (80,)
        score = est.score(synth)
        assert 0.0 <= score <= 1.0
        assert est.best_epoch_ >= 1

    def test_matches_functional_path(self, synth):
        from staytime.training import train_model

        est = fast_regressor().fit(synth)
        direct = train_model(synth, TrainConfig(**fast_regressor().get_params()))
        np.testing.assert_array_equal(est.predict(synth), direct.predict(synth))

    def test_sequences_plus_labels(self):
        data = toy_dataset(n=30, seed=3)
        y = data.event_times()
        est = fast_regressor().fit(data.sequences, y)
        assert est.predict(data.sequences).shape == (30,)

    def test_censoring_mask_accepted(self):
        data = toy_dataset(n=30, seed=3)
        y = data.event_times()
        censored = np.zeros(30, dtype=bool)
        censored[:5] = True
        est = fast_regressor(loss="combined").fit(data.sequences, y, censored)
        assert np.isfinite(est.score(data.sequences, y, censored))

    def test_label_length_mismatch(self):
        data = toy_dataset(n=10, seed=0)
        with pytest.raises(ValidationError):
            fast_regressor().fit(data.sequences, np.ones(7))

    def test_unlabeled_dataset_rejected(self, synth):
        bare = SurvivalDataset(synth.sequences, None)
        with pytest.raises(ValidationError):
            fast_regressor().fit(bare)

    def test_unfitted_predict_rejected(self, synth):
        with pytest.raises(ValidationError):
            StayTimeRegressor().predict(synth)

    def test_invalid_config_surfaces_at_fit(self, synth):
        with pytest.raises(ConfigurationError):
            fast_regressor(epochs=0).fit(synth)

    def test_mistyped_param_refused_at_fit(self, synth):
        with pytest.raises(ConfigurationError, match="'batchnorm'"):
            fast_regressor(batchnorm="no").fit(synth)

    def test_positional_params_refused(self):
        with pytest.raises(TypeError):
            CtrFeaturizer("kernel")


class TestFeaturizer:
    def test_grid_matches_batch_function(self, synth):
        feat = CtrFeaturizer(kind="grid", segments=5, value_range=(-1.0, 1.0))
        Z = feat.fit_transform(synth)
        assert Z.shape == (80, 25)
        state = feat.state_
        np.testing.assert_array_equal(Z, compute_ctr_batch(synth.sequences, state))

    def test_mass_conservation(self, synth):
        Z = CtrFeaturizer(segments=5).fit_transform(synth)
        totals = np.array([s.gaps().sum() for s in synth.sequences])
        np.testing.assert_allclose(Z.sum(axis=1), totals, rtol=1e-12)

    def test_auto_range_clamps(self, synth):
        feat = CtrFeaturizer(kind="grid", segments=3, value_range=None)
        Z = feat.fit_transform(synth)
        assert Z.shape == (80, 9)
        assert np.isfinite(Z).all()

    def test_kernel_kind_seeded(self, synth):
        a = CtrFeaturizer(kind="kernel", n_bases=10, random_state=5).fit_transform(synth)
        b = CtrFeaturizer(kind="kernel", n_bases=10, random_state=5).fit_transform(synth)
        np.testing.assert_array_equal(a, b)
        c = CtrFeaturizer(kind="kernel", n_bases=10, random_state=6).fit_transform(synth)
        assert not np.array_equal(a, c)

    def test_decay_and_normalize_forwards(self, synth):
        feat = CtrFeaturizer(segments=4, decay=0.9, normalize=True).fit(synth)
        Z = feat.transform(synth)
        np.testing.assert_allclose(Z.sum(axis=1), np.ones(80), rtol=1e-12)

    @pytest.mark.parametrize("name, value", [
        ("segments", 2.5), ("segments", True), ("segments", [2, "a"]),
        ("value_range", (1,)), ("clamp", 1), ("n_bases", 2.5), ("n_bases", True),
        ("gamma", "1"), ("decay", True), ("normalize", "no"), ("random_state", 1.5),
    ])
    def test_mistyped_param_refused_at_fit(self, synth, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            CtrFeaturizer(**{name: value}).fit(synth)

    def test_unknown_kind_rejected(self, synth):
        with pytest.raises(ConfigurationError):
            CtrFeaturizer(kind="hex").fit(synth)

    def test_unfitted_transform_rejected(self, synth):
        with pytest.raises(ValidationError):
            CtrFeaturizer().transform(synth)

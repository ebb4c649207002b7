"""Feature extraction, standardization, config plumbing, and the training loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from staytime import (
    ConfigurationError,
    DivergenceError,
    Mlp,
    ObservationSequence,
    SurvivalDataset,
    SurvivalLabel,
    SynthConfig,
    ValidationError,
    generate,
    training,
)
from staytime.checkpoint import load_checkpoint, save_checkpoint
from staytime.evaluation import c_index
from staytime.training import (
    STATIC_QUANTILES,
    Standardizer,
    TrainConfig,
    TrainedModel,
    _Components,
    hyper_search,
    split_validation,
    static_features,
    train_model,
)


def toy_dataset(n=40, m=6, d=2, seed=7, censor_rate=0.25):
    """Small synthetic survival set: target grows with total stay time."""
    rng = np.random.default_rng(seed)
    seqs, labels = [], []
    for i in range(n):
        obs = rng.uniform(-1.0, 1.0, size=(m, d))
        dur = rng.uniform(0.1, 1.0, size=m)
        seqs.append(ObservationSequence(obs, durations=dur, record_id=f"t{i}"))
        y = float(dur.sum() + 0.05 * rng.standard_normal() + 1.0)
        labels.append(SurvivalLabel(y, bool(rng.random() < censor_rate)))
    return SurvivalDataset(seqs, labels)


class TestStaticFeatures:
    def test_quantile_worked_example(self):
        # obs column [1,2,3,4] at q=0.25 interpolates to 1.75; q=0.5 to 2.5
        seq = ObservationSequence(
            np.array([[1.0], [2.0], [3.0], [4.0]]), durations=np.ones(4)
        )
        feats = static_features(seq)
        # layout: per column, [mean, std, q10, q25, q50, q75, q90]
        assert feats.shape == (14,)
        assert feats[0] == 2.5  # mean
        assert feats[1] == pytest.approx(np.sqrt(1.25))  # population std
        assert feats[3] == 1.75
        assert feats[4] == 2.5

    def test_matches_numpy_reference_per_column(self):
        rng = np.random.default_rng(11)
        obs = rng.normal(size=(9, 3))
        dur = rng.uniform(0.2, 2.0, size=9)
        seq = ObservationSequence(obs, durations=dur)
        feats = static_features(seq)
        cols = np.column_stack([obs, dur])
        expected = []
        for j in range(4):
            col = cols[:, j]
            expected.extend(
                [col.mean(), col.std()]
                + [np.quantile(col, q) for q in STATIC_QUANTILES]
            )
        np.testing.assert_allclose(feats, expected, rtol=1e-14)

    def test_width_scales_with_dimension(self):
        for d in (1, 2, 5):
            seq = ObservationSequence(
                np.zeros((3, d)), durations=np.ones(3)
            )
            assert static_features(seq).shape == (7 * (d + 1),)

    def test_single_observation_sequence(self):
        seq = ObservationSequence(np.array([[2.0, -1.0]]), durations=np.array([0.5]))
        feats = static_features(seq)
        # every quantile of a singleton equals the value itself, std is 0
        np.testing.assert_allclose(
            feats, [2.0, 0.0] + [2.0] * 5 + [-1.0, 0.0] + [-1.0] * 5 + [0.5, 0.0] + [0.5] * 5
        )


class TestStandardizer:
    def test_transform_centers_and_scales(self):
        rng = np.random.default_rng(4)
        X = rng.normal(3.0, 2.0, size=(200, 3))
        std = Standardizer.fit(X)
        Z = std.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, rtol=1e-12)

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        std = Standardizer.fit(X)
        Z = std.transform(X)
        np.testing.assert_array_equal(Z[:, 0], np.zeros(10))

    def test_binary_columns_skipped_when_asked(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.integers(0, 2, 50).astype(float), rng.normal(size=50)])
        std = Standardizer.fit(X, skip_binary=True)
        Z = std.transform(X)
        np.testing.assert_array_equal(Z[:, 0], X[:, 0])
        assert abs(Z[:, 1].mean()) < 1e-12


class TestTrainConfig:
    def test_roundtrip_through_dict(self):
        cfg = TrainConfig(model="ctr-k", loss="combined", seed=3, gamma=0.5)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig.from_dict({"model": "ctr-d", "bogus": 1})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(model="ctr-x")

    def test_combined_loss_standardizes_by_default(self):
        assert TrainConfig(model="ctr-d", loss="combined").wants_standardize
        assert not TrainConfig(model="ctr-d", loss="squared").wants_standardize
        assert TrainConfig(model="ctr-d", loss="squared", standardize=True).wants_standardize

    def test_trainable_decay_must_start_below_one(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(model="ctr-d", decay_init=1.0, decay_trainable=True)
        TrainConfig(model="ctr-d", decay_init=1.0, decay_trainable=False)


class TestSplitValidation:
    def test_partition_covers_everything_once(self):
        rng = np.random.default_rng(0)
        censored = np.array([False] * 30 + [True] * 10)
        tr, va = split_validation(40, censored, 0.2, rng)
        assert len(set(tr) | set(va)) == 40
        assert len(set(tr) & set(va)) == 0

    def test_stratified_split_keeps_censor_share(self):
        rng = np.random.default_rng(1)
        censored = np.array([False] * 80 + [True] * 20)
        tr, va = split_validation(100, censored, 0.2, rng, stratify=True)
        assert censored[va].sum() == 4
        assert len(va) == 20

    def test_degenerate_split_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValidationError):
            split_validation(3, np.zeros(3, bool), 0.01, rng)


def tiny_config(model, **kw):
    base = dict(
        model=model,
        seed=0,
        epochs=8,
        batch_size=16,
        segments=3,
        value_range=(-1.0, 1.0),
        n_bases=8,
        n_states=6,
        f_hidden=(8,),
        g_hidden=(8,),
        dropout=0.0,
        patience=4,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainModel:
    @pytest.mark.parametrize("model", ["ctr-d", "ctr-k", "ctr-n", "static"])
    def test_smoke_all_model_kinds(self, model):
        data = toy_dataset()
        trained = train_model(data, tiny_config(model))
        preds = trained.predict(data)
        assert preds.shape == (40,)
        assert np.all(np.isfinite(preds))
        assert len(trained.history) >= 1

    @pytest.mark.parametrize("model", ["ctr-d", "ctr-n"])
    def test_same_seed_is_bitwise_identical(self, model):
        data = toy_dataset()
        cfg = tiny_config(model)
        p1 = train_model(data, cfg).predict(data)
        p2 = train_model(data, cfg).predict(data)
        np.testing.assert_array_equal(p1, p2)

    def test_different_seed_changes_fit(self):
        data = toy_dataset()
        p1 = train_model(data, tiny_config("ctr-d", seed=0)).predict(data)
        p2 = train_model(data, tiny_config("ctr-d", seed=1)).predict(data)
        assert not np.array_equal(p1, p2)

    def test_training_reduces_squared_loss(self):
        data = toy_dataset(censor_rate=0.0)
        cfg = tiny_config("ctr-d", epochs=60, patience=60, decay_trainable=False)
        trained = train_model(data, cfg)
        losses = [h["train_loss"] for h in trained.history]
        assert losses[-1] < losses[0]

    def test_combined_loss_runs_with_censoring(self):
        data = toy_dataset(censor_rate=0.3)
        trained = train_model(data, tiny_config("ctr-d", loss="combined"))
        assert np.all(np.isfinite(trained.predict(data)))

    def test_trainable_decay_moves_from_init(self):
        data = toy_dataset(censor_rate=0.0)
        cfg = tiny_config("ctr-d", epochs=40, patience=40, decay_init=0.9)
        trained = train_model(data, cfg)
        assert trained.decay.trainable
        assert trained.decay.value != pytest.approx(0.9, abs=1e-12)
        assert 0.0 < trained.decay.value < 1.0

    def test_fixed_decay_stays_put(self):
        data = toy_dataset()
        cfg = tiny_config("ctr-d", decay_trainable=False, decay_init=1.0)
        trained = train_model(data, cfg)
        assert trained.decay.value == 1.0

    def test_early_stopping_restores_best_epoch(self):
        data = toy_dataset()
        cfg = tiny_config("ctr-d", epochs=30, patience=3)
        trained = train_model(data, cfg)
        best = max(h["val_score"] for h in trained.history)
        assert trained.best_val_score == best

    def test_unlabeled_dataset_rejected(self):
        data = toy_dataset()
        bare = SurvivalDataset(data.sequences, None)
        with pytest.raises(ValidationError):
            train_model(bare, tiny_config("ctr-d"))


class TestHyperSearch:
    def test_kernel_grid_tries_every_gamma(self):
        data = toy_dataset(n=30)
        cfg = tiny_config("ctr-k", gamma_grid=(0.1, 1.0), epochs=4)
        result = hyper_search(data, cfg)
        tried = [c["gamma"] for c, _ in result.candidates]
        assert tried == [0.1, 1.0]
        assert result.best_config.gamma in (0.1, 1.0)

    def test_single_candidate_for_grid_free_models(self):
        data = toy_dataset(n=30)
        result = hyper_search(data, tiny_config("ctr-d", epochs=4))
        assert len(result.candidates) == 1

    def test_best_score_is_max_of_candidates(self):
        data = toy_dataset(n=30)
        cfg = tiny_config("ctr-k", gamma_grid=(0.01, 1.0, 100.0), epochs=4)
        result = hyper_search(data, cfg)
        scores = [s for _, s in result.candidates]
        assert max(scores) == pytest.approx(
            result.best_model.best_val_score, abs=0
        )


def with_demographics(data, seed=1):
    """The same records with a continuous and a binary demographic column."""
    rng = np.random.default_rng(seed)
    seqs = [
        dataclasses.replace(s, demographics=np.array([rng.normal(), float(rng.random() < 0.5)]))
        for s in data.sequences
    ]
    return SurvivalDataset(seqs, data.labels)


class TestOnePathForScoringAndValidation:
    """Library scoring and per-epoch validation run the same packed kernel,
    so their predictions agree bit for bit.  The validation records here
    span more than one kernel chunk."""

    VARIANTS = [
        {},
        {"loss": "combined", "standardize": True, "normalize_ctr": True,
         "decay_init": 0.9},
    ]

    @pytest.mark.parametrize("variant", range(len(VARIANTS)))
    @pytest.mark.parametrize("model", ["ctr-d", "ctr-k", "ctr-n"])
    def test_predict_equals_validation_predictions(self, model, variant):
        data = with_demographics(toy_dataset(n=500, m=12, censor_rate=0.2))
        cfg = tiny_config(model, value_range=None, **self.VARIANTS[variant])
        comp = _Components(data, cfg)
        assert comp.val_packed.offsets[-1] > 1024
        model_view = TrainedModel(
            config=cfg, predictor=comp.f, state=comp.state, decay=comp.decay,
            obs_standardizer=comp.obs_std, dem_standardizer=comp.dem_std,
            static_standardizer=comp.static_std, history=[], best_epoch=0,
            best_val_score=0.0,
        )
        np.testing.assert_array_equal(
            model_view.predict(data.subset(comp.val_idx)), comp.predict_validation())

    @pytest.mark.parametrize("model", ["ctr-d", "ctr-k", "ctr-n"])
    def test_trained_model_reproduces_best_validation_score(self, model):
        data = toy_dataset(n=200, censor_rate=0.2)
        cfg = tiny_config(model, epochs=6, patience=6)
        trained = train_model(data, cfg)
        val = data.subset(_Components(data, cfg).val_idx)
        score = c_index(trained.predict(val), val.event_times(), val.censor_mask())
        assert score == trained.best_val_score


class TestStaticWithDemographics:
    """The static summaries and the standardized demographics feed f on the
    training, validation and scoring paths alike."""

    @pytest.mark.parametrize("loss", ["squared", "combined"])
    def test_train_predict_and_checkpoint_round_trip(self, tmp_path, loss):
        data = with_demographics(toy_dataset(n=60))
        cfg = tiny_config("static", loss=loss, epochs=3)
        model = train_model(data, cfg)
        assert model.predictor.layer_sizes[0] == 7 * 3 + 2
        preds = model.predict(data)
        assert preds.shape == (len(data),) and np.all(np.isfinite(preds))

        comp = _Components(data, cfg)
        view = TrainedModel(
            config=cfg, predictor=comp.f, state=None, decay=None, obs_standardizer=None,
            dem_standardizer=comp.dem_std, static_standardizer=comp.static_std,
            history=[], best_epoch=0, best_val_score=0.0,
        )
        np.testing.assert_array_equal(
            view.predict(data.subset(comp.val_idx)), comp.predict_validation())

        save_checkpoint(model, tmp_path / "static.npz")
        np.testing.assert_array_equal(load_checkpoint(tmp_path / "static.npz").predict(data),
                                      preds)


class TestDivergence:
    """One finiteness check per step; a failure still names the loss or the
    first non-finite gradient block, in params() order."""

    def test_non_finite_loss_is_named(self, monkeypatch):
        real = training.squared_loss
        monkeypatch.setattr(training, "squared_loss",
                            lambda p, t: (float("inf"), real(p, t)[1]))
        with pytest.raises(DivergenceError, match=r"^non-finite value in loss at epoch 1$"):
            train_model(toy_dataset(), tiny_config("ctr-d"))

    def test_nan_through_the_backward_pass_names_f_first(self, monkeypatch):
        real = training.squared_loss

        def poisoned(preds, times):
            loss, grad = real(preds, times)
            grad[0] = np.nan
            return loss, grad

        monkeypatch.setattr(training, "squared_loss", poisoned)
        with pytest.raises(DivergenceError,
                           match=r"^non-finite value in gradient f/w0 at epoch 1$"):
            train_model(toy_dataset(), tiny_config("ctr-n"))

    def test_first_bad_block_of_g_is_named(self, monkeypatch):
        real, calls = Mlp.backward, []

        def poisoned(net, dout, cache):
            grad, dx = real(net, dout, cache)
            if net.out_activation == "softmax":
                calls.append(1)
                if len(calls) == 2:  # one batch per epoch: epoch 2
                    blocks = net.blocks(grad)
                    blocks["bn0_shift"][0] = np.inf
                    blocks["b1"][-1] = np.nan
            return grad, dx

        monkeypatch.setattr(Mlp, "backward", poisoned)
        with pytest.raises(DivergenceError,
                           match=r"^non-finite value in gradient g/b1 at epoch 2$"):
            train_model(toy_dataset(), tiny_config("ctr-n", batch_size=64))

    @pytest.mark.parametrize("model,learning_rate", [("ctr-n", 1e100), ("ctr-d", 1e150)])
    def test_non_finite_validation_predictions(self, model, learning_rate):
        # the steps stay finite but the validation predictions overflow; numpy
        # warns about none of it (RuntimeWarnings are errors in this suite)
        data = generate(SynthConfig(seed=11, n_records=50, n_obs=6)).dataset
        config = TrainConfig(model=model, seed=0, epochs=3, learning_rate=learning_rate)
        with pytest.raises(DivergenceError, match=r"^non-finite value in validation "
                                                  r"predictions at epoch 1$"):
            train_model(data, config)


class TestTrainingMemory:
    """The training step reuses its buffers, and a fit or a prediction keeps
    nothing beyond what it returns.  Counts are of this process only."""

    # a second 4-epoch fit on 1000 records measures about 5.7k minor faults,
    # most from per-epoch validation (eval mode allocates) and the one-time
    # workspaces; the per-batch allocations they replaced cost 58k-96k
    FAULT_BUDGET = 15_000
    SLACK = 64 * 1024  # bytes of interpreter bookkeeping a call may leave

    def test_second_fit_stays_under_fault_budget(self):
        import resource

        data = generate(SynthConfig(seed=0, n_records=1000)).dataset
        cfg = TrainConfig(model="ctr-n", loss="combined", seed=0, epochs=4, patience=4)
        train_model(data, cfg)  # warm-up: imports, caches and the heap
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_model(data, cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < self.FAULT_BUDGET

    @staticmethod
    def _held_by(call):
        """(result, bytes still allocated after call returns)."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_fit_leaves_only_the_model_behind(self):
        data = generate(SynthConfig(seed=0, n_records=300)).dataset
        cfg = TrainConfig(model="ctr-n", seed=0, epochs=2, patience=2)
        train_model(data, cfg)
        model, held = self._held_by(lambda: train_model(data, cfg))
        # one g-net workspace buffer alone is 640 rows x 100 units x 8 bytes
        assert held <= model.predictor.flat.nbytes + model.state.net.flat.nbytes + self.SLACK

    def test_large_predict_holds_nothing(self):
        model = train_model(generate(SynthConfig(seed=0, n_records=300)).dataset,
                            TrainConfig(model="ctr-n", seed=0, epochs=1))
        big = generate(SynthConfig(seed=1, n_records=2000)).dataset
        assert big.offsets[-1] == 20_000
        model.predict(big)
        preds, held = self._held_by(lambda: model.predict(big))
        assert held <= preds.nbytes + self.SLACK

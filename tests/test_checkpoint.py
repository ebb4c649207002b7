"""Checkpoint container: bit-exact round trips for every model kind."""

import json

import numpy as np
import pytest

from staytime import ValidationError
from staytime.checkpoint import load_checkpoint, save_checkpoint
from staytime.training import train_model

from test_training import tiny_config, toy_dataset


@pytest.mark.parametrize("model", ["ctr-d", "ctr-k", "ctr-n", "static"])
def test_roundtrip_predictions_bit_identical(tmp_path, model):
    data = toy_dataset()
    trained = train_model(data, tiny_config(model))
    path = tmp_path / "model.npz"
    save_checkpoint(trained, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(trained.predict(data), loaded.predict(data))
    assert loaded.config == trained.config
    assert loaded.best_epoch == trained.best_epoch
    assert loaded.best_val_score == trained.best_val_score
    assert loaded.history == trained.history


@pytest.mark.parametrize("model", ["ctr-d", "ctr-n", "static"])
def test_one_layer_networks_roundtrip(tmp_path, model):
    # no hidden layer in f or g: each network is one linear layer
    data = toy_dataset(n=24)
    trained = train_model(data, tiny_config(model, epochs=3, f_hidden=(), g_hidden=()))
    assert trained.predictor.n_hidden == 0
    save_checkpoint(trained, tmp_path / "m.npz")
    loaded = load_checkpoint(tmp_path / "m.npz")
    np.testing.assert_array_equal(trained.predict(data), loaded.predict(data))


def test_save_load_save_bytes_identical(tmp_path):
    data = toy_dataset()
    trained = train_model(data, tiny_config("ctr-n"))
    first = tmp_path / "a.npz"
    second = tmp_path / "b.npz"
    save_checkpoint(trained, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_two_saves_of_one_model_identical(tmp_path):
    data = toy_dataset()
    trained = train_model(data, tiny_config("ctr-d"))
    save_checkpoint(trained, tmp_path / "a.npz")
    save_checkpoint(trained, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_decay_value_survives(tmp_path):
    data = toy_dataset()
    trained = train_model(data, tiny_config("ctr-d", epochs=12))
    save_checkpoint(trained, tmp_path / "m.npz")
    loaded = load_checkpoint(tmp_path / "m.npz")
    assert loaded.decay.value == trained.decay.value
    assert loaded.decay.trainable == trained.decay.trainable


def test_fixed_decay_survives(tmp_path):
    data = toy_dataset()
    trained = train_model(
        data, tiny_config("ctr-d", decay_trainable=False, decay_init=1.0)
    )
    save_checkpoint(trained, tmp_path / "m.npz")
    assert load_checkpoint(tmp_path / "m.npz").decay.value == 1.0


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, stuff=np.arange(3))
    with pytest.raises(ValidationError, match="not a model checkpoint"):
        load_checkpoint(path)


def test_other_format_version_rejected(tmp_path):
    path = tmp_path / "old.npz"
    meta = json.dumps({"format_version": 1}).encode("utf-8")
    np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
    with pytest.raises(ValidationError, match="unsupported checkpoint version 1$"):
        load_checkpoint(path)

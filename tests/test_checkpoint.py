"""Checkpoint container: bit-exact round trips for every model kind."""

import json

import numpy as np
import pytest

from staytime import ValidationError
from staytime.checkpoint import load_checkpoint, save_checkpoint
from staytime.training import train_model

from test_training import tiny_config, toy_dataset, with_demographics

KINDS = ("ctr-d", "ctr-k", "ctr-n", "static")
# every part of a model a checkpoint takes from the config, not its arrays:
# (model, demographics with 30% censoring, config overrides)
FITS = [
    *[pytest.param(kind, False, {}, id=kind) for kind in KINDS],
    *[pytest.param(kind, True, dict(loss="combined", normalize_ctr=True, decay_init=0.9),
                   id=f"{kind}-combined-dem") for kind in KINDS],
    *[pytest.param(kind, False, dict(standardize=True, decay_trainable=False, decay_init=0.8),
                   id=f"{kind}-std-fixed-decay") for kind in KINDS],
    pytest.param("ctr-d", False, dict(value_range=None), id="ctr-d-auto-range"),
    pytest.param("ctr-d", False, dict(value_range=None, standardize=True),
                 id="ctr-d-auto-range-std"),
    pytest.param("ctr-n", False, dict(batchnorm=False), id="ctr-n-no-batchnorm"),
    pytest.param("ctr-k", False, dict(decay_trainable=False, decay_init=1.0),
                 id="ctr-k-no-decay"),
]


def members(path) -> dict:
    with np.load(path) as npz:
        return {k: npz[k] for k in npz.files}


def edit_meta(path, edit) -> None:
    """Rewrite the checkpoint at path with edit(meta) applied to its metadata."""
    arrays = members(path)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


@pytest.mark.parametrize("model, dem, overrides", FITS)
def test_roundtrip_predictions_bit_identical(tmp_path, model, dem, overrides):
    data = with_demographics(toy_dataset(censor_rate=0.3)) if dem else toy_dataset()
    trained = train_model(data, tiny_config(model, **overrides))
    path = tmp_path / "model.npz"
    save_checkpoint(trained, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(trained.predict(data), loaded.predict(data))
    assert loaded.config == trained.config
    assert loaded.best_epoch == trained.best_epoch
    assert loaded.best_val_score == trained.best_val_score
    assert loaded.history == trained.history
    for attr in ("obs_standardizer", "dem_standardizer", "static_standardizer"):
        assert (getattr(loaded, attr) is None) == (getattr(trained, attr) is None)


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


def test_not_a_zip_rejected(tmp_path):
    path = tmp_path / "notes.npz"
    path.write_text("just some text\n")
    with pytest.raises(ValidationError, match="notes.npz is not a model checkpoint"):
        load_checkpoint(path)


def test_bare_npy_rejected(tmp_path):
    path = tmp_path / "array.npy"
    np.save(path, np.arange(3))
    with pytest.raises(ValidationError, match="array.npy is not a model checkpoint"):
        load_checkpoint(path)


def test_undecodable_meta_rejected(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, meta=np.frombuffer(b"{not json", dtype=np.uint8))
    with pytest.raises(ValidationError, match="metadata is not JSON"):
        load_checkpoint(path)


def test_meta_holds_the_config_and_the_training_record(tmp_path):
    save_checkpoint(train_model(toy_dataset(), tiny_config("ctr-n")), tmp_path / "m.npz")
    meta = json.loads(bytes(members(tmp_path / "m.npz")["meta"]).decode("utf-8"))
    assert sorted(meta) == sorted(["format_version", "config", "history", "best_epoch",
                                   "best_val_score", "pairless_batches"])
    assert meta["format_version"] == 3


@pytest.mark.parametrize("model, change, message", [
    ("ctr-n", lambda a: a.pop("g/b1"), "lacks the array g/b1$"),
    ("ctr-n", lambda a: a.pop("f/w0"), "lacks the array f/w0$"),
    ("ctr-n", lambda a: a.__setitem__("f/w1", a["f/w1"][:-1]), r"array f/w1 has shape \(7, 1\)"),
    ("ctr-n", lambda a: a.__setitem__("decay/raw", np.zeros(2)),
     r"array decay/raw has shape \(2,\)"),
    ("ctr-n", lambda a: a.pop("obs_std/scale"), "lacks the array obs_std/scale$"),
    ("ctr-d", lambda a: a.pop("grid/b0"), "lacks the array grid/b0$"),
    ("ctr-k", lambda a: a.pop("kernel/bases"), "lacks the array kernel/bases$"),
], ids=["g-bias", "f-input-weights", "f-weights-shape", "decay-shape", "standardizer",
        "grid", "kernel-bases"])
def test_missing_or_misshaped_member_named(tmp_path, model, change, message):
    trained = train_model(toy_dataset(), tiny_config(model, standardize=True))
    save_checkpoint(trained, tmp_path / "m.npz")
    arrays = members(tmp_path / "m.npz")
    change(arrays)
    np.savez(tmp_path / "m.npz", **arrays)
    with pytest.raises(ValidationError, match="m.npz: checkpoint " + message):
        load_checkpoint(tmp_path / "m.npz")


@pytest.mark.parametrize("config, message", [
    ({"model": "ctr-x"}, r"checkpoint config is invalid \(unknown model kind 'ctr-x'\)"),
    (5, "checkpoint config is invalid"),
    (["model"], "checkpoint config is invalid"),
    ({"model": "ctr-d", "learning_rate": "fast"}, "checkpoint config is invalid"),
], ids=["unknown-model", "not-an-object", "a-list", "wrong-type"])
def test_bad_config_named(tmp_path, config, message):
    save_checkpoint(train_model(toy_dataset(), tiny_config("ctr-d")), tmp_path / "m.npz")
    edit_meta(tmp_path / "m.npz", lambda meta: meta.update(config=config))
    with pytest.raises(ValidationError, match="^m.npz: " + message):
        load_checkpoint(tmp_path / "m.npz")


@pytest.mark.parametrize("field, value", [("normalize_ctr", "no"), ("decay_trainable", "yes")])
def test_config_value_of_another_type_refused(tmp_path, field, value):
    # a truthy string is no bool: loaded as one, the model would predict
    # unlike the model that was saved
    save_checkpoint(train_model(toy_dataset(), tiny_config("ctr-d")), tmp_path / "m.npz")
    edit_meta(tmp_path / "m.npz", lambda meta: meta["config"].update({field: value}))
    with pytest.raises(ValidationError, match=(
            rf"^m.npz: checkpoint config is invalid \(field '{field}' must be bool, "
            rf"got '{value}'\)$")):
        load_checkpoint(tmp_path / "m.npz")


def test_other_format_version_rejected(tmp_path):
    path = tmp_path / "old.npz"
    meta = json.dumps({"format_version": 1}).encode("utf-8")
    np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
    with pytest.raises(ValidationError, match="unsupported checkpoint version 1$"):
        load_checkpoint(path)


def test_meta_without_the_training_record_rejected(tmp_path):
    path = tmp_path / "m.npz"
    meta = json.dumps({"format_version": 3, "config": {"model": "static"}}).encode("utf-8")
    np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
    with pytest.raises(ValidationError, match="lacks history, best_epoch, best_val_score, "
                                              "pairless_batches$"):
        load_checkpoint(path)


def test_format_2_rejected(tmp_path):
    # format 2 also kept the network shapes, state kind and standardizer list
    # in its metadata; format 3 takes them from the config and the arrays
    save_checkpoint(train_model(toy_dataset(), tiny_config("ctr-d")), tmp_path / "m.npz")
    edit_meta(tmp_path / "m.npz", lambda meta: meta.update(
        format_version=2, seed=0, state_kind="discrete", standardizers=[]))
    with pytest.raises(ValidationError, match="unsupported checkpoint version 2$"):
        load_checkpoint(tmp_path / "m.npz")

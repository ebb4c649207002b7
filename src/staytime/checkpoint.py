"""Model checkpointing: one .npz file per trained model.

The container is a stored (uncompressed) zip of .npy members written in
sorted order with a frozen timestamp, so saving the same model twice gives
byte-identical files.  The JSON member "meta" holds the resolved config and
the training record (history, best epoch and score, pairless batches); the
other members are the arrays the config cannot give: network parameters and
running statistics, the trainable decay's raw value, the grid boundaries or
kernel bases, and the fitted standardizers.  Loading rebuilds the model from
the config with training's own constructors, fills in the arrays, each
checked by name and shape, and so reproduces the eval-mode forward pass
bit-exactly.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .data_io import atomic_write_bytes
from .errors import ConfigurationError, StayTimeError, ValidationError
from .representation import DecayParameter
from .states import (
    DiscreteStateFunction,
    KernelBasisSet,
    KernelStateFunction,
    NeuralStateFunction,
    SegmentGrid,
)
from .training import Standardizer, TrainConfig, TrainedModel

FORMAT_VERSION = 3
RECORD = ("history", "best_epoch", "best_val_score", "pairless_batches")  # TrainedModel fields
# member prefix: the TrainedModel field of that standardizer
STANDARDIZERS = {"obs_std": "obs_standardizer", "dem_std": "dem_standardizer",
                 "static_std": "static_standardizer"}
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # zip format's own epoch; fixed for determinism


def _npz_bytes(arrays: dict) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            payload = io.BytesIO()
            np.save(payload, np.ascontiguousarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            info.external_attr = 0o644 << 16
            zf.writestr(info, payload.getvalue())
    return buf.getvalue()


def _npz_arrays(path: Path) -> dict:
    """The .npy members of a zip file by name, without their suffix."""
    try:
        with zipfile.ZipFile(path) as zf:
            return {name[:-4]: np.load(io.BytesIO(zf.read(name)))
                    for name in zf.namelist() if name.endswith(".npy")}
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise ValidationError(f"{path.name} is not a model checkpoint ({exc})") from None


def save_checkpoint(model: TrainedModel, path) -> None:
    """Serialize a trained model; identical models give identical bytes."""
    config = model.config
    meta = {"format_version": FORMAT_VERSION, "config": config.to_dict(),
            **{key: getattr(model, key) for key in RECORD}}
    arrays = {"meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), np.uint8)}
    arrays.update({f"f/{k}": v for k, v in model.predictor.state_arrays().items()})
    if config.model != "static" and config.decay_trainable:
        arrays["decay/raw"] = model.decay.raw
    if config.model == "ctr-d":
        arrays.update({f"grid/b{d}": b for d, b in enumerate(model.state.grid.boundaries)})
    elif config.model == "ctr-k":
        arrays["kernel/bases"] = model.state.basis.bases
    elif config.model == "ctr-n":
        arrays.update({f"g/{k}": v for k, v in model.state.net.state_arrays().items()})
    for prefix, attr in STANDARDIZERS.items():
        std = getattr(model, attr)
        if std is not None:
            arrays.update({f"{prefix}/mean": std.mean, f"{prefix}/scale": std.scale})
    atomic_write_bytes(path, _npz_bytes(arrays))


def _member(arrays: dict, name: str, shape: tuple) -> np.ndarray:
    """The array name, checked against shape (None where any length goes)."""
    arr = arrays.get(name)
    if arr is None:
        raise ValidationError(f"checkpoint lacks the array {name}")
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValidationError(f"checkpoint array {name} has shape {arr.shape}, expected {shape}")
    return arr


def _net(build, arrays: dict, prefix: str):
    """The network build(n_in) makes for the input width of prefix/w0, with
    every array filled in from the members under prefix."""
    net = build(_member(arrays, f"{prefix}/w0", (None, None)).shape[0])
    for key, arr in net.state_arrays().items():
        arr[...] = _member(arrays, f"{prefix}/{key}", arr.shape)
    return net


def _rebuild(meta: dict, arrays: dict) -> TrainedModel:
    """The model the config describes, with the arrays filled in."""
    try:
        config = TrainConfig.from_dict(meta["config"])
    except (TypeError, ConfigurationError) as exc:  # not an object, or no valid config
        raise ValidationError(f"checkpoint config is invalid ({exc})") from None
    model = TrainedModel(config, predictor=_net(config.predictor_net, arrays, "f"),
                         **{key: meta[key] for key in RECORD})
    if config.model != "static":
        model.decay = DecayParameter(config.decay_init, trainable=config.decay_trainable)
        if config.decay_trainable:
            model.decay.raw[...] = _member(arrays, "decay/raw", (1,))
    if config.model == "ctr-d":
        n_dims = max(1, sum(name.startswith("grid/b") for name in arrays))  # a lost b0 is named
        segments = config.segments if isinstance(config.segments, tuple) else (
            (config.segments,) * n_dims)
        bounds = tuple(_member(arrays, f"grid/b{d}", (n + 1,)) for d, n in enumerate(segments))
        model.state = DiscreteStateFunction(SegmentGrid(bounds),
                                            clamp=config.grid_range is None)
    elif config.model == "ctr-k":
        bases = _member(arrays, "kernel/bases", (config.n_bases, None))
        model.state = KernelStateFunction(KernelBasisSet(bases, gamma=config.gamma))
    elif config.model == "ctr-n":
        model.state = NeuralStateFunction(_net(config.state_net, arrays, "g"))
    for prefix, attr in STANDARDIZERS.items():
        if f"{prefix}/mean" in arrays:
            mean = _member(arrays, f"{prefix}/mean", (None,))
            setattr(model, attr, Standardizer(mean, _member(arrays, f"{prefix}/scale", mean.shape)))
    return model


def load_checkpoint(path) -> TrainedModel:
    """Rebuild a TrainedModel from a checkpoint file; a file that is not one
    of this format, or whose config or arrays do not fit, is a ValidationError."""
    path = Path(path)
    arrays = _npz_arrays(path)
    if "meta" not in arrays:
        raise ValidationError(f"{path.name} is not a model checkpoint (no metadata)")
    try:
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    except ValueError as exc:
        raise ValidationError(f"{path.name}: checkpoint metadata is not JSON ({exc})") from None
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise ValidationError(f"{path.name}: unsupported checkpoint version {version!r}")
    missing = [key for key in ("config", *RECORD) if key not in meta]
    if missing:
        raise ValidationError(f"{path.name}: checkpoint metadata lacks {', '.join(missing)}")
    try:
        return _rebuild(meta, arrays)
    except StayTimeError as exc:
        raise ValidationError(f"{path.name}: {exc}") from None

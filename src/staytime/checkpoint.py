"""Model checkpointing: one self-describing .npz file per trained model.

The container is a stored (uncompressed) zip of .npy members written in
sorted order with a frozen timestamp, so saving the same model twice gives
byte-identical files.  A JSON metadata member carries everything that is not
an array: the resolved config, network shapes, which optional parts exist,
and the seed the run was derived from.  Loading rebuilds the model and its
eval-mode forward pass bit-exactly.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .data_io import atomic_write_bytes
from .errors import ValidationError
from .nn import Mlp
from .representation import DecayParameter
from .states import (
    DiscreteStateFunction,
    KernelBasisSet,
    KernelStateFunction,
    NeuralStateFunction,
    SegmentGrid,
)
from .training import Standardizer, TrainConfig, TrainedModel

FORMAT_VERSION = 2
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


def _net_arrays(prefix: str, net: Mlp) -> dict:
    return {f"{prefix}/{k}": v for k, v in net.state_arrays().items()}


def _std_arrays(prefix: str, std: Standardizer) -> dict:
    return {f"{prefix}/mean": std.mean, f"{prefix}/scale": std.scale}


def save_checkpoint(model: TrainedModel, path) -> None:
    """Serialize a trained model; identical models give identical bytes."""
    config = model.config
    arrays = {}
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "seed": config.seed,
        "best_epoch": model.best_epoch,
        "best_val_score": model.best_val_score,
        "pairless_batches": model.pairless_batches,
        "history": model.history,
        "f": model.predictor.meta(),
        "g": None,
        "decay": None,
        "state_kind": None,
        "standardizers": [],
    }
    arrays.update(_net_arrays("f", model.predictor))

    if model.decay is not None:
        meta["decay"] = {"trainable": model.decay.trainable}
        if model.decay.trainable:
            arrays["decay/raw"] = model.decay.raw
        else:
            meta["decay"]["value"] = model.decay.value

    state = model.state
    if state is not None:
        meta["state_kind"] = state.kind
        if isinstance(state, DiscreteStateFunction):
            meta["grid_clamp"] = state.clamp
            for d, b in enumerate(state.grid.boundaries):
                arrays[f"grid/b{d}"] = b
            meta["grid_dims"] = len(state.grid.boundaries)
        elif isinstance(state, KernelStateFunction):
            arrays["kernel/bases"] = state.basis.bases
            meta["kernel_gamma"] = state.basis.gamma
        elif isinstance(state, NeuralStateFunction):
            meta["g"] = state.net.meta()
            arrays.update(_net_arrays("g", state.net))

    for name, std in (
        ("obs_std", model.obs_standardizer),
        ("dem_std", model.dem_standardizer),
        ("static_std", model.static_standardizer),
    ):
        if std is not None:
            meta["standardizers"].append(name)
            arrays.update(_std_arrays(name, std))

    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    atomic_write_bytes(path, _npz_bytes(arrays))


def _load_net(meta: dict, arrays, prefix: str) -> Mlp:
    net = Mlp.from_meta(meta)
    state = net.state_arrays()
    for key, arr in state.items():
        stored = arrays[f"{prefix}/{key}"]
        if stored.shape != arr.shape:
            raise ValidationError(
                f"checkpoint array {prefix}/{key} has shape {stored.shape}, "
                f"net expects {arr.shape}"
            )
        arr[...] = stored
    return net


def load_checkpoint(path) -> TrainedModel:
    """Rebuild a TrainedModel from a checkpoint file."""
    path = Path(path)
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    if "meta" not in arrays:
        raise ValidationError(f"{path.name} is not a model checkpoint (no metadata)")
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"{path.name}: unsupported checkpoint version {meta.get('format_version')!r}"
        )
    config = TrainConfig.from_dict(meta["config"])
    f = _load_net(meta["f"], arrays, "f")

    decay = None
    if meta["decay"] is not None:
        if meta["decay"]["trainable"]:
            decay = DecayParameter(0.5, trainable=True)
            decay.raw[...] = arrays["decay/raw"]
        else:
            decay = DecayParameter(meta["decay"]["value"], trainable=False)

    state = None
    kind = meta["state_kind"]
    if kind == "discrete":
        boundaries = tuple(arrays[f"grid/b{d}"] for d in range(meta["grid_dims"]))
        state = DiscreteStateFunction(SegmentGrid(boundaries), clamp=meta["grid_clamp"])
    elif kind == "kernel":
        state = KernelStateFunction(
            KernelBasisSet(arrays["kernel/bases"], gamma=meta["kernel_gamma"])
        )
    elif kind == "neural":
        state = NeuralStateFunction(_load_net(meta["g"], arrays, "g"))

    stds = {}
    for name in ("obs_std", "dem_std", "static_std"):
        if name in meta["standardizers"]:
            stds[name] = Standardizer(arrays[f"{name}/mean"], arrays[f"{name}/scale"])
        else:
            stds[name] = None

    return TrainedModel(
        config=config,
        predictor=f,
        state=state,
        decay=decay,
        obs_standardizer=stds["obs_std"],
        dem_standardizer=stds["dem_std"],
        static_standardizer=stds["static_std"],
        history=meta["history"],
        best_epoch=meta["best_epoch"],
        best_val_score=meta["best_val_score"],
        pairless_batches=meta["pairless_batches"],
    )

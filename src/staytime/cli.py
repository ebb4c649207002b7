"""Command-line surface: generate | featurize | train | evaluate | bench |
gradcheck | report.

generate, train, evaluate and bench accept --config pointing at a JSON file
of config fields; explicit flags win over config-file values, which win over
defaults.  The flags are derived from the config dataclasses' fields; beta1,
beta2 and adam_eps have none and are set only in a config file.  Artifacts
land in --out (default: $STAYTIME_OUT_DIR, falling back to the working
directory), written atomically.  Failures print a machine-readable JSON
record to stderr: usage problems exit 2, runtime problems exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .data_io import (
    atomic_write_text,
    csv_text,
    json_text,
    read_dataset,
    write_dataset,
    write_history,
    write_truth,
)
from .errors import ConfigurationError, StayTimeError, ValidationError
from .evaluation import cross_validate, default_jobs, kfold_cv, period_stratified_improvement
from .reports import comparison_csv, period_csv, render_bar_chart, render_period_chart
from .estimators import CtrFeaturizer
from .synthgen import WEIGHT_PROFILES, SynthConfig, generate
from .training import (
    LOSS_KINDS,
    MODEL_KINDS,
    TrainConfig,
    check_config,
    gradient_check_model,
    static_features_batch,
    train_model,
)

OUT_DIR_ENV = "STAYTIME_OUT_DIR"
BENCH_REPORT_FILE = "bench_report.json"


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _emit(payload: dict) -> None:
    sys.stdout.write(json_text(payload))


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as JSON and exits 2."""

    def error(self, message):
        _emit_error("UsageError", f"{self.prog}: {message}")
        raise SystemExit(2)


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _config(args, config_cls, required: dict):
    """The config the flags and the config file describe: flag values override
    config-file values, a null among them, and each key of required must be
    set by one of them. Once a config file is given, whatever is refused is
    one error naming the file."""
    fields = [f.name for f in dataclasses.fields(config_cls)]
    merged = {key: getattr(args, key) for key in fields if getattr(args, key, None) is not None}
    if getattr(args, "auto_range", None):
        merged["value_range"] = None
    path = Path(args.config) if getattr(args, "config", None) else None
    if path is not None and not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    try:  # a JSONDecodeError or UnicodeDecodeError is a ValueError
        if path is not None:
            from_file = json.loads(path.read_text(encoding="utf-8"))
            check_config(config_cls, from_file)
            merged = {**from_file, **merged}
        for key, what in required.items():
            if key not in merged:
                raise ConfigurationError(f"{what} is required (--{key} or config file)")
        return config_cls(**merged)
    except (ValueError, TypeError, ConfigurationError) as exc:
        if path is None:
            raise
        raise ConfigurationError(f"config file {path}: {exc}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_jobs_flag(p: _Parser) -> None:
    p.add_argument("--jobs", type=_positive_int,
                   help="worker processes for the fits (default: the usable CPUs "
                        "divided by the BLAS threads per process)")


def _jobs(args) -> int:
    return args.jobs if args.jobs is not None else default_jobs()


# config fields set only through a config file: flags for them would add options
FILE_ONLY = ("beta1", "beta2", "adam_eps")
CHOICES = {"model": MODEL_KINDS, "loss": LOSS_KINDS, "weight_profile": WEIGHT_PROFILES}
BENCH_TRAIN_FIELDS = ("epochs", "patience", "batch_size")
FEATURIZE_FIELDS = ("segments", "value_range", "n_bases", "gamma")


def _add_config_flags(p: _Parser, config_cls, names=None) -> None:
    """A --field-name flag for each field of a config dataclass, or for the
    named ones; unset flags stay None, so config-file values show through."""
    hints = typing.get_type_hints(config_cls)
    defaults = {f.name: f.default for f in dataclasses.fields(config_cls)}
    for name in names or [n for n in defaults if n not in FILE_ONLY]:
        flag = "--" + name.replace("_", "-")
        kinds = typing.get_args(hints[name]) or (hints[name],)
        if name in CHOICES:
            p.add_argument(flag, choices=CHOICES[name])
        elif bool in kinds:
            p.add_argument(flag, action=argparse.BooleanOptionalAction)
        elif name == "value_range":
            p.add_argument(flag, type=float, nargs=2, metavar=("MIN", "MAX"))
        elif kinds[0] is tuple:
            p.add_argument(flag, type=type(defaults[name][0]), nargs="+")
        else:
            p.add_argument(flag, type=kinds[0])


def _add_train_flags(p: _Parser) -> None:
    _add_config_flags(p, TrainConfig)
    p.add_argument("--auto-range", action="store_true", default=None,
                   help="derive the grid range from the training data")


def _train_config(args) -> TrainConfig:
    return _config(args, TrainConfig, {"model": "a model kind", "seed": "a seed"})


def _synth_config(args) -> SynthConfig:
    return _config(args, SynthConfig, {"seed": "a seed"})


def cmd_generate(args) -> int:
    cfg = _synth_config(args)
    out = _out_dir(args)
    synth = generate(cfg)
    write_dataset(synth.dataset, out, units_note="synthetic, unitless")
    write_truth(synth, out)
    _emit({
        "command": "generate",
        "out": str(out),
        "n_records": cfg.n_records,
        "n_states": cfg.n_states,
        "seed": cfg.seed,
    })
    return 0


def _table(prefix: str, ids: list, values: np.ndarray) -> str:
    """CSV with a record_id column and one repr-formatted column per feature;
    ids are quoted by the rule write_dataset uses."""
    header = ["record_id", *(f"{prefix}{j}" for j in range(values.shape[1]))]
    return csv_text(header, ids, *(map(repr, column) for column in values.T.tolist()))


def cmd_featurize(args) -> int:
    data = read_dataset(args.data, forward_fill=args.forward_fill)
    # only the flags given; CtrFeaturizer holds the defaults and the checks
    given = {name: getattr(args, name) for name in FEATURIZE_FIELDS}
    given["random_state"] = args.seed
    featurizer = CtrFeaturizer(
        kind=args.kind, clamp=args.clamp, decay=args.decay, normalize=args.normalize,
        **{name: value for name, value in given.items() if value is not None},
    )
    ids = data.record_ids.tolist()
    tables = {"features.csv": _table("z", ids, featurizer.fit_transform(data))}
    if args.static:
        tables["static.csv"] = _table("s", ids, static_features_batch(data))
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in tables.items():
        atomic_write_text(out / name, text)
    _emit({
        "command": "featurize",
        "out": str(out),
        "files": list(tables),
        "n_states": featurizer.n_states_,
        "n_records": len(data),
    })
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(args)
    data = read_dataset(args.data, forward_fill=args.forward_fill)
    model = train_model(data, cfg)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint.npz")
    write_history(model.history, out / "history.jsonl")
    atomic_write_text(out / "config.json", json_text(cfg.to_dict()))
    _emit({
        "command": "train",
        "out": str(out),
        "model": cfg.model,
        "best_epoch": model.best_epoch,
        "best_val_score": model.best_val_score,
        "epochs_run": len(model.history),
    })
    return 0


def cmd_evaluate(args) -> int:
    cfg = _train_config(args)
    data = read_dataset(args.data, forward_fill=args.forward_fill)
    report = kfold_cv(data, cfg, k=args.k, seed=args.cv_seed, jobs=_jobs(args))
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "scores.json", json_text(report.to_dict()))
    _emit({
        "command": "evaluate",
        "out": str(out),
        "model": cfg.model,
        "k": args.k,
        "mean_c_index": report.mean,
        "stderr": report.stderr,
    })
    return 0


def _bench_rows(cfg: SynthConfig, overrides: dict):
    """The benchmark slate: discrete models at the true and off-by-one grid
    sizes, kernel and neural variants, and the static baseline."""
    per_dim = cfg.segments_per_dim
    base = dict(loss="squared", seed=overrides.get("seed", cfg.seed))
    base.update(overrides)
    return [
        ("CTR-D-True", TrainConfig(model="ctr-d", segments=per_dim,
                                   value_range=(-1.0, 1.0), **base)),
        ("CTR-D-Minus", TrainConfig(model="ctr-d", segments=per_dim - 1,
                                    value_range=(-1.0, 1.0), **base)),
        ("CTR-D-Plus", TrainConfig(model="ctr-d", segments=per_dim + 1,
                                   value_range=(-1.0, 1.0), **base)),
        ("CTR-K", TrainConfig(model="ctr-k", **base)),
        ("CTR-N", TrainConfig(model="ctr-n", **base)),
        ("Static", TrainConfig(model="static", **base)),
    ]


def _period_thresholds(dataset) -> list:
    periods = dataset.periods()
    taus = [float(np.quantile(periods, q)) for q in (0.0, 0.25, 0.5, 0.75)]
    kept = []
    for t in taus:
        if not kept or t > kept[-1]:
            kept.append(t)
    return kept


def cmd_bench(args) -> int:
    t_start = time.perf_counter()
    cfg = _synth_config(args)
    train_overrides = {
        k: getattr(args, k) for k in BENCH_TRAIN_FIELDS if getattr(args, k) is not None
    }
    train_overrides["seed"] = args.train_seed if args.train_seed is not None else cfg.seed
    synth = generate(cfg)
    slate = _bench_rows(cfg, train_overrides)
    fold_reports = cross_validate(synth.dataset, [c for _, c in slate], k=args.k,
                                  seed=args.cv_seed, jobs=_jobs(args))
    rows, reports, timing_rows = [], {}, []
    for (label, _), report in zip(slate, fold_reports):
        reports[label] = report
        fields = report.to_dict()
        rows.append({"label": label, **{key: fields[key] for key in (
            "model", "mean", "stderr", "scores", "chosen", "config")}})
        timing_rows.append({"label": label, "wall_clock": report.wall_clock})

    period = period_stratified_improvement(
        reports["CTR-N"], reports["Static"], synth.dataset,
        thresholds=_period_thresholds(synth.dataset),
    )

    bench_report = {
        "schema_version": 1,
        "synth": cfg.to_dict(),
        "cv": {"k": args.k, "seed": args.cv_seed},
        "rows": rows,
        "period": period.to_dict(),
    }
    out = _out_dir(args)
    write_dataset(synth.dataset, out / "dataset", units_note="synthetic, unitless")
    write_truth(synth, out / "dataset")
    atomic_write_text(out / BENCH_REPORT_FILE, json_text(bench_report))
    _write_report(out, bench_report)
    atomic_write_text(out / "timings.json", json_text({
        "rows": timing_rows,
        "total_seconds": time.perf_counter() - t_start,
    }))

    _emit({
        "command": "bench",
        "out": str(out),
        "k": args.k,
        "results": {r["label"]: {"mean": r["mean"], "stderr": r["stderr"]} for r in rows},
    })
    return 0


def cmd_gradcheck(args) -> int:
    base = args.seed if args.seed is not None else 0
    results = []
    worst = 0.0
    for seed in range(base, base + args.seeds):
        synth = generate(SynthConfig(seed=seed, n_records=120, n_obs=6))
        checks = {
            "f-only": TrainConfig(
                model="ctr-d", seed=seed, segments=5, value_range=(-1.0, 1.0),
                decay_trainable=False, batch_size=32,
            ),
            "ctr-n-end-to-end": TrainConfig(
                model="ctr-n", seed=seed, batch_size=32,
            ),
        }
        for label, cfg in checks.items():
            report = gradient_check_model(
                synth.dataset, cfg, max_entries=args.max_entries
            )
            block_worst = float(max(report.values()))
            worst = max(worst, block_worst)
            results.append({
                "seed": seed,
                "check": label,
                "max_rel_error": block_worst,
                "worst_block": max(report, key=report.get),
            })
    passed = worst < args.tolerance
    _emit({
        "command": "gradcheck",
        "tolerance": args.tolerance,
        "max_rel_error": worst,
        "passed": passed,
        "checks": results,
    })
    if not passed:
        _emit_error("GradientCheckFailed",
                    f"max relative error {worst:.3e} exceeds {args.tolerance:.0e}")
        return 1
    return 0


def _write_report(out: Path, bench: dict) -> list:
    """Write the tables and charts of a bench_report.json dict into out, all
    rendered before the first is written; returns the file names."""
    texts = {"comparison.csv": comparison_csv(bench["rows"]),
             "comparison.svg": render_bar_chart(bench["rows"])}
    if bench.get("period"):
        texts["period.csv"] = period_csv(bench["period"])
        texts["period.svg"] = render_period_chart(bench["period"])
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        atomic_write_text(out / name, text)
    return list(texts)


def cmd_report(args) -> int:
    out = _out_dir(args)
    try:
        bench = json.loads(Path(args.bench).read_text())  # ValueError if not JSON
        written = _write_report(out, bench)
    except (ValueError, KeyError, TypeError, ArithmeticError, ValidationError) as exc:
        raise ValidationError(
            f"{args.bench}: not a bench report ({type(exc).__name__}: {exc})") from None
    _emit({"command": "report", "out": str(out), "files": written})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="staytime",
                     description="Stay-time representations for survival regression")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[], help="write a synthetic benchmark dataset")
    p.add_argument("--config")
    p.add_argument("--out")
    _add_config_flags(p, SynthConfig)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("featurize", help="write per-record stay-time features")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--kind", choices=("grid", "kernel"), default="grid")
    _add_config_flags(p, TrainConfig, FEATURIZE_FIELDS)
    p.add_argument("--clamp", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--decay", type=float, default=1.0)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--static", action="store_true",
                   help="also write the static feature table")
    p.add_argument("--forward-fill", action="store_true", dest="forward_fill")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train one model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--forward-fill", action="store_true", dest="forward_fill")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="k-fold cross-validated C-index")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--cv-seed", type=int, default=0, dest="cv_seed")
    p.add_argument("--forward-fill", action="store_true", dest="forward_fill")
    _add_jobs_flag(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="run the synthetic comparison protocol")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--cv-seed", type=int, default=0, dest="cv_seed")
    p.add_argument("--train-seed", type=int, dest="train_seed")
    _add_config_flags(p, TrainConfig, BENCH_TRAIN_FIELDS)
    _add_jobs_flag(p)
    _add_config_flags(p, SynthConfig)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", type=_positive_int, default=3, help="number of seeds to run")
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--max-entries", type=_positive_int, default=60, dest="max_entries",
                   help="coordinates probed per parameter block")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="render tables and charts from a bench report")
    p.add_argument("--bench", required=True, help="path to bench_report.json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        _emit_error("MemoryError", str(exc) or "out of memory")
        return 1
    except (StayTimeError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, runs one fixed
amount of work in `run_round`, and lists its correctness checks in
`correctness_checks`.  Every call into staytime goes through a module
attribute looked up at call time, so the tracer's wrappers see it in traced
runs.

- fit-ctrn: one CTR-N fit with the combined loss on a cohort with censored
  labels, then scoring a held-out cohort.  The epoch count is fixed
  (patience = epochs), so validation scores cannot change the work done.
- score-20k: read a 20k-record cohort from disk, load a CTR-D and a CTR-N
  checkpoint, featurize with grid and kernel states, predict with both
  models, write the tables, and score concordance on a seeded subset.
- bench-slate: `staytime bench` in-process at a reduced size with a fixed
  epoch count: every model kind, k-fold evaluation, the CTR-K gamma search,
  period stratification and the reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import staytime as st
import staytime.cli  # noqa: F401  (bench-slate drives the CLI in-process)

import checks

# independent random streams drawn from the workload seed
CENSOR_STREAM, SUBSET_STREAM = 1, 2
GRID = dict(lo=-1.0, hi=1.0, segments=5)  # CtrFeaturizer's grid defaults
N_BASES = 100


@dataclass
class Round:
    wall_s: float
    records_per_s: float
    c_index: float
    out: dict = field(default_factory=dict)


def censor(dataset, seed: int, share: float):
    """Censor a seeded share of the labels: each chosen record's observed
    time becomes a uniform 20-100% fraction of its event time."""
    rng = np.random.default_rng([seed, CENSOR_STREAM])
    chosen = rng.choice(len(dataset), size=round(share * len(dataset)), replace=False)
    fractions = rng.uniform(0.2, 1.0, size=len(chosen))
    labels = list(dataset.labels)
    for i, frac in zip(chosen, fractions):
        labels[i] = st.SurvivalLabel(labels[i].event_time * frac, censored=True)
    return st.SurvivalDataset(dataset.sequences, labels)


def featurize(dataset, seed: int):
    """Grid and kernel stay-time features, built the way `staytime
    featurize` builds its states."""
    grid = st.CtrFeaturizer(kind="grid", segments=GRID["segments"],
                            value_range=(GRID["lo"], GRID["hi"]))
    kernel = st.CtrFeaturizer(kind="kernel", n_bases=N_BASES, random_state=seed)
    return grid.fit_transform(dataset), kernel.fit_transform(dataset)


def grid_and_mass(grid, kernel, dataset):
    return (checks.check_grid(grid, dataset.sequences, **GRID)
            or checks.check_mass(grid, dataset.sequences)
            or checks.check_mass(kernel, dataset.sequences))


def feature_check(dataset, seed: int):
    def run():
        return grid_and_mass(*featurize(dataset, seed), dataset)
    return ("grid features and mass conservation", run)


def round_trip(dataset, directory: Path):
    st.write_dataset(dataset, directory)
    return checks.check_round_trip(st.read_dataset(directory), dataset)


def reload_from_disk(model, path: Path, dataset):
    st.save_checkpoint(model, path)
    return checks.check_reload(st.load_checkpoint(path), model, dataset)


def write_table(path: Path, header: list, ids: list, values: np.ndarray) -> None:
    """CSV with a record_id column and repr-formatted floats, the format of
    `staytime featurize`."""
    lines = [",".join(header)]
    lines += [",".join([rid, *map(repr, row)]) for rid, row in zip(ids, values.tolist())]
    st.data_io.atomic_write_text(path, "\n".join(lines) + "\n")


class FitCtrn:
    name = "fit-ctrn"
    sizes = {
        "full": dict(n_train=1000, n_holdout=2000, epochs=15, censor_share=0.3),
        "smoke": dict(n_train=200, n_holdout=200, epochs=3, censor_share=0.3),
        "warm-up": dict(n_train=1000, n_holdout=2000, epochs=2, censor_share=0.3),
    }

    def ops_per_round(self, size: dict) -> int:
        return 2  # the fit and the held-out scoring pass

    def setup(self, directory: Path, seed: int, size: dict) -> dict:
        n_train = size["n_train"]
        n = n_train + size["n_holdout"]
        synth = st.generate(st.SynthConfig(seed=seed, n_records=n))
        data = censor(synth.dataset, seed, size["censor_share"])
        return {
            "dir": directory,
            "seed": seed,
            "train": data.subset(np.arange(n_train)),
            "holdout": data.subset(np.arange(n_train, n)),
            "config": st.TrainConfig(model="ctr-n", loss="combined", seed=seed,
                                     epochs=size["epochs"], patience=size["epochs"]),
        }

    def run_round(self, s: dict) -> Round:
        holdout = s["holdout"]
        t0 = time.perf_counter()
        model = st.train_model(s["train"], s["config"])
        t1 = time.perf_counter()
        preds = model.predict(holdout)
        c = st.c_index(preds, holdout.event_times(), holdout.censor_mask())
        t2 = time.perf_counter()
        return Round(
            wall_s=t2 - t0,
            records_per_s=len(s["train"]) * len(model.history) / (t1 - t0),
            c_index=float(c),
            out={"model": model, "preds": preds},
        )

    def correctness_checks(self, s: dict, last: Round) -> list:
        holdout, model = s["holdout"], last.out["model"]
        return [
            ("concordance", lambda: checks.check_concordance(
                st.c_index, last.out["preds"], holdout.event_times(), holdout.censor_mask())),
            ("mass conservation, neural", lambda: checks.check_mass(
                model.features(holdout), holdout.sequences, model.decay.value)),
            feature_check(s["train"], s["seed"]),
            ("round trip", lambda: round_trip(s["train"], s["dir"] / "cohort")),
            ("checkpoint reload, ctr-n",
             lambda: reload_from_disk(model, s["dir"] / "ctr-n.npz", holdout)),
        ]


class Score20k:
    name = "score-20k"
    sizes = {
        "full": dict(n_records=20000, n_fit=1000, ctrd_epochs=20, ctrn_epochs=10, subset=4000),
        "smoke": dict(n_records=1000, n_fit=200, ctrd_epochs=3, ctrn_epochs=2, subset=500),
        "warm-up": dict(n_records=1000, n_fit=200, ctrd_epochs=3, ctrn_epochs=2, subset=500),
    }

    def ops_per_round(self, size: dict) -> int:
        # read, two checkpoint loads, two featurizations, two predictions,
        # three table writes, one concordance
        return 11

    def setup(self, directory: Path, seed: int, size: dict) -> dict:
        n = size["n_records"]
        synth = st.generate(st.SynthConfig(seed=seed, n_records=n))
        st.write_dataset(synth.dataset, directory / "cohort")
        fit = synth.dataset.subset(np.arange(size["n_fit"]))
        models = {}
        for kind, epochs in (("ctr-d", size["ctrd_epochs"]), ("ctr-n", size["ctrn_epochs"])):
            config = st.TrainConfig(model=kind, seed=seed, epochs=epochs, patience=epochs)
            models[kind] = st.train_model(fit, config)
            st.save_checkpoint(models[kind], directory / f"{kind}.npz")
        rng = np.random.default_rng([seed, SUBSET_STREAM])
        return {
            "dir": directory,
            "seed": seed,
            "dataset": synth.dataset,
            "models": models,
            "subset": np.sort(rng.choice(n, size=size["subset"], replace=False)),
        }

    def run_round(self, s: dict) -> Round:
        directory, sub = s["dir"], s["subset"]
        t0 = time.perf_counter()
        data = st.read_dataset(directory / "cohort")
        ctr_d = st.load_checkpoint(directory / "ctr-d.npz")
        ctr_n = st.load_checkpoint(directory / "ctr-n.npz")
        grid, kernel = featurize(data, s["seed"])
        pred_d = ctr_d.predict(data)
        pred_n = ctr_n.predict(data)
        ids = [seq.record_id for seq in data.sequences]
        write_table(directory / "features_grid.csv",
                    ["record_id", *(f"z{j}" for j in range(grid.shape[1]))], ids, grid)
        write_table(directory / "features_kernel.csv",
                    ["record_id", *(f"z{j}" for j in range(kernel.shape[1]))], ids, kernel)
        write_table(directory / "predictions.csv", ["record_id", "ctr_d", "ctr_n"], ids,
                    np.column_stack([pred_d, pred_n]))
        t1 = time.perf_counter()
        c = st.c_index(pred_n[sub], data.event_times()[sub], data.censor_mask()[sub])
        t2 = time.perf_counter()
        return Round(
            wall_s=t2 - t0,
            records_per_s=len(data) / (t1 - t0),
            c_index=float(c),
            out={"data": data, "grid": grid, "kernel": kernel, "pred_n": pred_n,
                 "ctr-d": ctr_d, "ctr-n": ctr_n},
        )

    def correctness_checks(self, s: dict, last: Round) -> list:
        data, sub = last.out["data"], s["subset"]
        probe = data.subset(sub[:1000])

        def reload(kind):
            return (f"checkpoint reload, {kind}", lambda: checks.check_reload(
                last.out[kind], s["models"][kind], probe))

        return [
            ("round trip", lambda: checks.check_round_trip(data, s["dataset"])),
            ("concordance", lambda: checks.check_concordance(
                st.c_index, last.out["pred_n"][sub], data.event_times()[sub],
                data.censor_mask()[sub])),
            ("grid features and mass conservation",
             lambda: grid_and_mass(last.out["grid"], last.out["kernel"], data)),
            reload("ctr-d"),
            reload("ctr-n"),
        ]


class BenchSlate:
    name = "bench-slate"
    sizes = {
        "full": dict(n_records=400, k=3, epochs=30, batch_size=16),
        "smoke": dict(n_records=300, k=3, epochs=20, batch_size=16),
        "warm-up": dict(n_records=400, k=3, epochs=2, batch_size=16),
    }
    # low label noise keeps the slate's orderings decisive at this size
    noise_variance = 0.01
    n_rows = 6  # the slate: three CTR-D grids, CTR-K, CTR-N, Static

    def ops_per_round(self, size: dict) -> int:
        return self.n_rows * size["k"]  # one per (model row, fold)

    def setup(self, directory: Path, seed: int, size: dict) -> dict:
        synth = {"seed": seed, "n_records": size["n_records"],
                 "noise_variance": self.noise_variance}
        directory.mkdir(parents=True, exist_ok=True)
        config_path = directory / "bench_config.json"
        config_path.write_text(json.dumps(synth, sort_keys=True) + "\n")
        synth = st.SynthConfig(**synth)
        train = ["--epochs", size["epochs"], "--patience", size["epochs"],
                 "--batch-size", size["batch_size"]]
        return {
            "dir": directory,
            "seed": seed,
            "size": size,
            "train": [str(a) for a in train],
            "config": config_path,
            "synth": synth,
            "reference": st.generate(synth).dataset,
        }

    def run_round(self, s: dict) -> Round:
        size, out = s["size"], s["dir"] / "bench"
        argv = ["bench", "--config", str(s["config"]), "--k", str(size["k"]),
                "--cv-seed", str(s["seed"]), *s["train"], "--out", str(out)]
        t0 = time.perf_counter()
        code = _cli(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"staytime bench exited with {code}")
        report = json.loads((out / "bench_report.json").read_text())
        rows = {r["label"]: r for r in report["rows"]}
        return Round(
            wall_s=wall,
            records_per_s=size["n_records"] * size["k"] * len(rows) / wall,
            c_index=float(rows["CTR-N"]["mean"]),
            out={"rows": rows},
        )

    def correctness_checks(self, s: dict, last: Round) -> list:
        """The slate report has no folds or predictions, so the fold checks
        rerun CTR-D-True through `staytime evaluate` with the bench's CV
        seed; its fold scores must equal the slate's exactly."""
        size, rows, ref = s["size"], last.out["rows"], s["reference"]
        data_dir = s["dir"] / "bench" / "dataset"
        eval_dir = s["dir"] / "evaluate"
        argv = ["evaluate", "--data", str(data_dir), "--model", "ctr-d",
                "--segments", str(s["synth"].segments_per_dim),
                "--value-range", "-1", "1", "--seed", str(s["seed"]),
                "--k", str(size["k"]), "--cv-seed", str(s["seed"]), *s["train"],
                "--out", str(eval_dir)]
        folds = {}

        def evaluate():
            code = _cli(argv)
            if code != 0:
                return f"staytime evaluate exited with {code}"
            folds.update(json.loads((eval_dir / "scores.json").read_text()))
            if folds["scores"] != rows["CTR-D-True"]["scores"]:
                return "evaluate's fold scores differ from the slate's CTR-D-True row"
            return None

        def concordance():
            times, censored = ref.event_times(), ref.censor_mask()
            for idx, preds, score in zip(folds["test_indices"], folds["predictions"],
                                         folds["scores"]):
                if checks.concordance(preds, times[idx], censored[idx]) != score:
                    return "a fold score differs from the pair count"
                problem = checks.check_concordance(st.c_index, preds, times[idx], censored[idx])
                if problem:
                    return problem
            return None

        def reload():
            quick = st.TrainConfig(model="ctr-d", seed=s["seed"], epochs=5, patience=5)
            return reload_from_disk(st.train_model(ref, quick), s["dir"] / "ctr-d.npz", ref)

        return [
            ("round trip", lambda: checks.check_round_trip(st.read_dataset(data_dir), ref)),
            ("evaluate matches the slate", evaluate),
            ("k-fold partition", lambda: checks.check_partition(folds["test_indices"], len(ref))),
            ("concordance", concordance),
            ("slate orderings", lambda: checks.check_orderings(
                {label: r["mean"] for label, r in rows.items()})),
            feature_check(ref, s["seed"]),
            ("checkpoint reload, ctr-d", reload),
        ]


def _cli(argv: list) -> int:
    """Run a staytime subcommand in this process, keeping its stdout summary
    off the benchmark's own stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return st.cli.main(argv)


WORKLOADS = {w.name: w for w in (FitCtrn(), Score20k(), BenchSlate())}

"""End-to-end coverage of the command-line surface, run in-process."""

import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import staytime
from staytime import ObservationSequence, SurvivalDataset, SurvivalLabel
from staytime.checkpoint import load_checkpoint
from staytime.cli import main
from staytime.data_io import read_dataset, write_dataset
from staytime.representation import compute_ctr
from staytime.states import DiscreteStateFunction, build_grid
from staytime.training import TrainConfig

from test_acceptance import STABLE_ARTIFACTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(text):
    return json.loads(text)


GEN = ("generate", "--seed", "11", "--n-records", "50", "--n-obs", "6")


@pytest.fixture()
def data_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(capsys, *GEN, "--out", str(out))
    assert code == 0
    return out


class TestGenerate:
    def test_writes_dataset_and_truth(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run(capsys, *GEN, "--out", str(out))
        assert code == 0
        for name in ("observations.csv", "labels.csv", "manifest.json", "truth.json"):
            assert (out / name).exists()
        summary = last_json(stdout)
        assert summary["command"] == "generate"
        assert summary["n_records"] == 50

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *GEN, "--out", str(a))[0] == 0
        assert run(capsys, *GEN, "--out", str(b))[0] == 0
        for name in ("observations.csv", "labels.csv", "manifest.json", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_seed_is_runtime_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "--n-records", "5",
                              "--out", str(tmp_path / "x"))
        assert code == 1
        err = last_json(stderr)
        assert err["error"] == "ConfigurationError"
        assert "seed" in err["message"]

    def test_bad_flag_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "--seed", "notanint")
        assert code == 2
        assert last_json(stderr)["error"] == "UsageError"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_out_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("STAYTIME_OUT_DIR", str(target))
        code, _, _ = run(capsys, *GEN)
        assert code == 0
        assert (target / "manifest.json").exists()


class TestConfigFile:
    @pytest.mark.parametrize("fields", [
        {"f_hidden": ["a"]},
        {"value_range": [1]},
        {"value_range": [1, "b"]},
        {"gamma_grid": ["x"]},
    ])
    def test_bad_tuple_field_elements_rejected(self, tmp_path, capsys, data_dir, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ctr-k", "seed": 0, **fields}))
        code, _, stderr = run(capsys, "train", "--data", str(data_dir), "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 1
        err = one_error_line(stderr)
        assert err["error"] == "ConfigurationError"
        assert next(iter(fields)) in err["message"]

    def test_negative_gamma_grid_flag_rejected(self, tmp_path, capsys, data_dir):
        code, _, stderr = run(capsys, "train", "--data", str(data_dir), "--model", "ctr-k",
                              "--seed", "0", "--gamma-grid", "-1", "--out", str(tmp_path / "o"))
        assert code == 1
        err = one_error_line(stderr)
        assert err["error"] == "ConfigurationError"
        assert "gamma_grid" in err["message"]

    def test_flags_beat_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_records": 40, "n_obs": 5}))
        out = tmp_path / "d"
        code, _, _ = run(capsys, "generate", "--config", str(cfg), "--seed", "3",
                         "--n-records", "25", "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_records"] == 25  # flag wins
        data = read_dataset(out)
        assert data.sequences[0].n_observations == 5  # config file fills the rest

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"seed": 1, "bogus": 2}))
        code, _, stderr = run(capsys, "generate", "--config", str(cfg),
                              "--out", str(tmp_path / "d"))
        assert code == 1
        assert "bogus" in last_json(stderr)["message"]

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text("{not json")
        code, _, stderr = run(capsys, "generate", "--config", str(cfg))
        assert code == 1
        assert last_json(stderr)["error"] == "ConfigurationError"

    def test_non_utf8_config_is_one_json_line(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_bytes(b"\xff\xfe\x00")
        code, stdout, stderr = run(capsys, "generate", "--config", str(cfg),
                                   "--out", str(tmp_path / "d"))
        assert (code, stdout) == (1, "")
        err = one_error_line(stderr)
        assert err["error"] == "ConfigurationError"
        assert "gen.json" in err["message"] and "utf-8" in err["message"]
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command, content, key", [
        ("generate", 5, None),
        ("generate", [1], None),
        ("generate", {"seed": "abc"}, "seed"),
        ("generate", {"seed": 0, "n_records": "many"}, "n_records"),
        ("train", {"model": "ctr-d", "seed": 0, "epochs": "ten"}, "epochs"),
        # null is a value, refused where the field admits no None
        ("train", {"model": "ctr-d", "seed": 0, "epochs": None}, "epochs"),
        ("train", {"model": None, "seed": 0}, "model"),
        ("generate", {"seed": 0, "n_records": None}, "n_records"),
    ])
    def test_config_of_wrong_shape_or_type_rejected(self, tmp_path, capsys, data_dir,
                                                    command, content, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(content))
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "train":
            argv += ["--data", str(data_dir)]
        code, _, stderr = run(capsys, command, *argv)
        assert code == 1
        err = one_error_line(stderr)
        assert err["error"] == "ConfigurationError"
        assert "bad.json" in err["message"]
        if key is not None:
            assert repr(key) in err["message"]

    @pytest.mark.parametrize("model", ["ctr-d", "ctr-k", "ctr-n", "static"])
    def test_written_config_reproduces_the_run(self, tmp_path, capsys, data_dir, model):
        # --auto-range writes "value_range": null, which the second run must
        # read as None, not as the default range
        first, second = tmp_path / "run1", tmp_path / "run2"
        assert run(capsys, "train", "--data", str(data_dir), "--model", model, "--seed", "0",
                   "--epochs", "2", "--auto-range", "--out", str(first))[0] == 0
        assert run(capsys, "train", "--data", str(data_dir),
                   "--config", str(first / "config.json"), "--out", str(second))[0] == 0
        for name in ("config.json", "checkpoint.npz", "history.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestFeaturize:
    def test_grid_features_match_library(self, tmp_path, capsys, data_dir):
        out = tmp_path / "feats"
        code, _, _ = run(capsys, "featurize", "--data", str(data_dir),
                         "--out", str(out), "--kind", "grid", "--segments", "5",
                         "--value-range", "-1", "1")
        assert code == 0
        lines = (out / "features.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["record_id", "z0"]
        assert len(lines) == 51
        data = read_dataset(data_dir)
        state = DiscreteStateFunction(build_grid((-1.0, 1.0), 5, n_dims=2))
        first = lines[1].split(",")
        assert first[0] == data.sequences[0].record_id
        expect = compute_ctr(data.sequences[0], state)
        np.testing.assert_allclose([float(v) for v in first[1:]], expect, atol=0)

    def test_static_table_on_request(self, tmp_path, capsys, data_dir):
        out = tmp_path / "feats"
        code, _, _ = run(capsys, "featurize", "--data", str(data_dir),
                         "--out", str(out), "--static")
        assert code == 0
        lines = (out / "static.csv").read_text().splitlines()
        assert len(lines) == 51
        # D=2 observation dims plus the stay-time column, 7 features each
        assert len(lines[0].split(",")) == 1 + 7 * 3

    def test_kernel_kind(self, tmp_path, capsys, data_dir):
        out = tmp_path / "feats"
        code, stdout, _ = run(capsys, "featurize", "--data", str(data_dir),
                              "--out", str(out), "--kind", "kernel",
                              "--n-bases", "20", "--gamma", "2.0", "--seed", "4")
        assert code == 0
        assert last_json(stdout)["n_states"] == 20

    @pytest.mark.parametrize("flag", ["--segments", "--gamma", "--n-bases"])
    def test_zero_is_passed_on_and_rejected(self, tmp_path, capsys, data_dir, flag):
        kind = "grid" if flag == "--segments" else "kernel"
        code, _, stderr = run(capsys, "featurize", "--data", str(data_dir), "--kind", kind,
                              "--out", str(tmp_path / "f"), flag, "0")
        assert code == 1
        assert len(stderr.splitlines()) == 1
        assert last_json(stderr)["error"] == "ConfigurationError"

    def test_plain_ids_keep_the_unquoted_format(self, tmp_path, capsys, data_dir):
        out = tmp_path / "feats"
        assert run(capsys, "featurize", "--data", str(data_dir), "--out", str(out),
                   "--static")[0] == 0
        data = read_dataset(data_dir)
        for name in ("features.csv", "static.csv"):
            lines = (out / name).read_text().splitlines()
            first = lines[1].split(",")
            assert first[0] == data.record_ids[0]
            assert ",".join([first[0], *(repr(float(v)) for v in first[1:])]) == lines[1]

    def test_ids_with_commas_and_quotes_are_quoted(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        ids = ["p,000", 'q"1', "r2"]
        seqs = [ObservationSequence(rng.uniform(-1, 1, size=(4, 2)), durations=np.ones(4),
                                    record_id=rid) for rid in ids]
        data_dir, out = tmp_path / "data", tmp_path / "feats"
        write_dataset(SurvivalDataset(seqs, [SurvivalLabel(1.0 + i) for i in range(3)]),
                      data_dir)
        assert run(capsys, "featurize", "--data", str(data_dir), "--out", str(out),
                   "--static")[0] == 0
        for name in ("features.csv", "static.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert [row[0] for row in rows[1:]] == ids
            assert {len(row) for row in rows} == {len(rows[0])}

    def test_bad_decay_rejected(self, tmp_path, capsys, data_dir):
        code, _, stderr = run(capsys, "featurize", "--data", str(data_dir),
                              "--out", str(tmp_path / "f"), "--decay", "1.5")
        assert code == 1
        assert last_json(stderr)["error"] == "ConfigurationError"


FAST_TRAIN = ("--model", "ctr-d", "--seed", "3", "--epochs", "5",
              "--batch-size", "16", "--segments", "4", "--value-range", "-1", "1",
              "--f-hidden", "8", "--dropout", "0.0", "--patience", "3")


class TestTrain:
    def test_artifacts_and_reload(self, tmp_path, capsys, data_dir):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "train", "--data", str(data_dir),
                              "--out", str(out), *FAST_TRAIN)
        assert code == 0
        summary = last_json(stdout)
        model = load_checkpoint(out / "checkpoint.npz")
        assert model.best_epoch == summary["best_epoch"]
        data = read_dataset(data_dir)
        preds = model.predict(data)
        assert preds.shape == (50,)
        history_lines = (out / "history.jsonl").read_text().splitlines()
        assert len(history_lines) == summary["epochs_run"]
        cfg = TrainConfig.from_dict(json.loads((out / "config.json").read_text()))
        assert cfg.model == "ctr-d" and cfg.seed == 3

    def test_model_required(self, tmp_path, capsys, data_dir):
        code, _, stderr = run(capsys, "train", "--data", str(data_dir),
                              "--out", str(tmp_path / "r"), "--seed", "1")
        assert code == 1
        assert "model" in last_json(stderr)["message"]

    def test_missing_data_dir(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--data", str(tmp_path / "nope"),
                              "--out", str(tmp_path / "r"), *FAST_TRAIN)
        assert code == 1
        assert last_json(stderr)["error"] == "ValidationError"


class TestNumbersChecked:
    """A negative seed or a non-finite rate is one ConfigurationError line."""

    @pytest.mark.parametrize("argv, name", [
        (("generate", "--seed", "-1"), "seed"),
        (("evaluate", "--data", "{data}", *FAST_TRAIN, "--cv-seed", "-1"), "fold seed"),
        (("bench", "--seed", "0", "--n-records", "30", "--cv-seed", "-1"), "fold seed"),
        (("gradcheck", "--seed", "-1"), "seed"),
        (("featurize", "--data", "{data}", "--kind", "kernel", "--seed", "-1"), "random_state"),
    ], ids=["generate", "evaluate", "bench", "gradcheck", "featurize"])
    def test_negative_seed_rejected(self, tmp_path, capsys, data_dir, argv, name):
        argv = [a.format(data=data_dir) for a in argv]
        if argv[0] != "gradcheck":
            argv += ["--out", str(tmp_path / "o")]
        code, _, stderr = run(capsys, *argv)
        assert code == 1
        assert one_error_line(stderr) == {
            "error": "ConfigurationError",
            "message": f"{name} must be an integer of at least 0, got -1"}

    @pytest.mark.parametrize("argv, name", [
        (("train", "--data", "{data}", *FAST_TRAIN, "--learning-rate", "nan"), "learning_rate"),
        (("train", "--data", "{data}", *FAST_TRAIN, "--learning-rate", "inf"), "learning_rate"),
        (("generate", "--seed", "0", "--noise-variance", "nan"), "noise_variance"),
    ], ids=["lr-nan", "lr-inf", "noise-nan"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, data_dir, argv, name):
        argv = [a.format(data=data_dir) for a in argv]
        code, stdout, stderr = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert (code, stdout) == (1, "")
        err = one_error_line(stderr)
        assert err["error"] == "ConfigurationError"
        assert err["message"].startswith(f"{name} must be a ")
        assert not (tmp_path / "o").exists()


class TestEvaluate:
    def test_scores_file(self, tmp_path, capsys, data_dir):
        out = tmp_path / "eval"
        code, stdout, _ = run(capsys, "evaluate", "--data", str(data_dir),
                              "--out", str(out), "--k", "3", "--cv-seed", "7",
                              *FAST_TRAIN)
        assert code == 0
        scores = json.loads((out / "scores.json").read_text())
        assert len(scores["scores"]) == 3
        assert scores["seed"] == 7
        summary = last_json(stdout)
        assert summary["mean_c_index"] == pytest.approx(scores["mean"])


BENCH = ("bench", "--seed", "5", "--n-records", "60", "--n-obs", "6",
         "--k", "3", "--cv-seed", "2", "--epochs", "4", "--patience", "2",
         "--batch-size", "32")


class TestBenchAndReport:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *BENCH, "--out", str(a))[0] == 0
        assert run(capsys, *BENCH, "--out", str(b))[0] == 0
        for name in STABLE_ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert (a / "timings.json").exists()  # timing kept out of the stable set
        report = json.loads((a / "bench_report.json").read_text())
        labels = [r["label"] for r in report["rows"]]
        assert labels == ["CTR-D-True", "CTR-D-Minus", "CTR-D-Plus",
                          "CTR-K", "CTR-N", "Static"]
        assert "wall_clock" not in json.dumps(report["rows"])
        assert len(report["period"]["thresholds"]) >= 3

    def test_report_regenerates_tables(self, tmp_path, capsys):
        bench_dir = tmp_path / "bench"
        assert run(capsys, *BENCH, "--out", str(bench_dir))[0] == 0
        rep = tmp_path / "rep"
        code, stdout, _ = run(capsys, "report", "--bench",
                              str(bench_dir / "bench_report.json"), "--out", str(rep))
        assert code == 0
        for name in ("comparison.csv", "comparison.svg", "period.csv", "period.svg"):
            assert (rep / name).read_bytes() == (bench_dir / name).read_bytes()


def one_error_line(stderr: str) -> dict:
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    return json.loads(lines[0])


class TestJobs:
    """--jobs N runs the fits of evaluate and bench in N worker processes."""

    @pytest.mark.parametrize("command", ["evaluate", "bench"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_bad_count_is_usage_error(self, tmp_path, capsys, data_dir, command, value):
        argv = (("evaluate", "--data", str(data_dir), *FAST_TRAIN) if command == "evaluate"
                else BENCH)
        code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "o"), "--jobs", value)
        assert code == 2
        assert one_error_line(stderr)["error"] == "UsageError"

    def test_error_in_a_worker_matches_the_serial_run(self, tmp_path, capsys, data_dir):
        argv = ("evaluate", "--data", str(data_dir), "--k", "3", *FAST_TRAIN,
                "--learning-rate", "1e4")
        outcomes = {}
        for jobs in ("1", "2"):
            code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / jobs), "--jobs", jobs)
            outcomes[jobs] = (code, one_error_line(stderr))
        assert outcomes["1"] == outcomes["2"]
        assert outcomes["1"][0] == 1
        assert outcomes["1"][1]["error"] == "DivergenceError"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("model,learning_rate", [("ctr-n", "1e100"), ("ctr-d", "1e150")])
    def test_divergence_is_the_only_stderr_line(self, tmp_path, data_dir, model, learning_rate):
        # a fresh process, where numpy's warnings would reach stderr as text
        env = dict(os.environ, PYTHONPATH=str(Path(staytime.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "staytime.cli", "train", "--data", str(data_dir),
             "--model", model, "--seed", "0", "--epochs", "3", "--learning-rate", learning_rate,
             "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert one_error_line(done.stderr)["error"] == "DivergenceError"

    def test_dead_worker_is_one_json_error(self, tmp_path, capsys, data_dir, monkeypatch):
        # the dataset a worker receives unpickles into os._exit: it dies at start-up
        monkeypatch.setattr(SurvivalDataset, "__reduce__", lambda self: (os._exit, (3,)),
                            raising=False)
        code, _, stderr = run(capsys, "evaluate", "--data", str(data_dir), "--k", "3",
                              *FAST_TRAIN, "--out", str(tmp_path / "e"), "--jobs", "2")
        assert code == 1
        assert one_error_line(stderr)["error"] == "WorkerError"
        assert multiprocessing.active_children() == []

    def test_artifacts_do_not_depend_on_jobs(self, tmp_path, capsys, data_dir):
        """The determinism contract, in fresh processes with one BLAS thread:
        the stable bench artifacts, and scores.json but for its wall_clock,
        are the same bytes for --jobs 1 and --jobs 2."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(staytime.__file__).parents[1]))
        evaluate = ("evaluate", "--data", str(data_dir), "--k", "3", *FAST_TRAIN)
        for jobs in ("1", "2"):
            for argv, out in ((BENCH, "bench"), (evaluate, "evaluate")):
                subprocess.run([sys.executable, "-m", "staytime.cli", *argv, "--jobs", jobs,
                                "--out", str(tmp_path / f"{out}{jobs}")],
                               env=env, check=True, capture_output=True)
        for name in STABLE_ARTIFACTS:
            assert ((tmp_path / "bench1" / name).read_bytes()
                    == (tmp_path / "bench2" / name).read_bytes()), name
        one, two = (json.loads((tmp_path / f"evaluate{jobs}" / "scores.json").read_text())
                    for jobs in ("1", "2"))
        assert len(one.pop("wall_clock")) == len(two.pop("wall_clock")) == 3
        assert one == two  # floats are written with repr, so equal values are equal bytes


class TestGradcheck:
    @pytest.mark.parametrize("flag", ["--seeds", "--max-entries"])
    def test_count_below_one_is_usage_error(self, capsys, flag):
        code, stdout, stderr = run(capsys, "gradcheck", flag, "0")
        assert code == 2
        assert stdout == ""
        assert one_error_line(stderr)["error"] == "UsageError"

    def test_passes_and_reports(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--seed", "0", "--seeds", "1",
                              "--max-entries", "30")
        assert code == 0
        result = last_json(stdout)
        assert result["passed"] is True
        assert result["max_rel_error"] < 1e-3
        checks = {c["check"] for c in result["checks"]}
        assert checks == {"f-only", "ctr-n-end-to-end"}

    def test_impossible_tolerance_fails(self, capsys):
        code, stdout, stderr = run(capsys, "gradcheck", "--seed", "0", "--seeds", "1",
                                   "--max-entries", "10", "--tolerance", "1e-12")
        assert code == 1
        assert last_json(stderr)["error"] == "GradientCheckFailed"


MINIMAL_BENCH = {
    "rows": [
        {"label": "A", "model": "ctr-d", "mean": 0.7, "stderr": 0.01,
         "scores": [0.69, 0.71]},
        {"label": "B", "model": "static", "mean": 0.6, "stderr": 0.02,
         "scores": [0.58, 0.62]},
    ],
}


def corrupt(data: bytes, rng) -> bytes:
    """Truncate, or overwrite a few bytes with ones that are not UTF-8.

    Truncation keeps at most len - 2 bytes, so it always cuts more than a
    trailing newline; the overwrite bytes are UTF-8 continuation bytes, which
    never decode after ASCII text.
    """
    if rng.random() < 0.5:
        return data[: int(rng.integers(0, len(data) - 1))]
    out = bytearray(data)
    for pos in rng.choice(len(out), size=int(rng.integers(1, 4)), replace=False):
        out[pos] = int(rng.integers(0x80, 0xC0))
    return bytes(out)


class TestCorruptFiles:
    """No corrupted input file may make main raise or print a traceback."""

    @pytest.mark.parametrize("target", ["manifest.json", "labels.csv", "bench"])
    def test_seeded_corruption_fuzz(self, tmp_path, capsys, data_dir, target):
        bench = tmp_path / "bench_report.json"
        bench.write_text(json.dumps(MINIMAL_BENCH))
        if target == "bench":
            path = bench
            argv = ("report", "--bench", str(bench), "--out", str(tmp_path / "rep"))
        else:
            path = data_dir / target
            argv = ("featurize", "--data", str(data_dir), "--out", str(tmp_path / "f"))
        assert run(capsys, *argv)[0] == 0  # the intact file is accepted
        original = path.read_bytes()
        rng = np.random.default_rng(["manifest.json", "labels.csv", "bench"].index(target))
        for _ in range(12):
            path.write_bytes(corrupt(original, rng))
            code, _, stderr = run(capsys, *argv)
            assert code in (1, 2)
            lines = stderr.splitlines()
            assert len(lines) == 1, stderr
            assert "Traceback" not in stderr
            assert json.loads(lines[0])["error"] == "ValidationError"

    def test_seeded_observation_corruption(self, tmp_path, capsys, data_dir):
        """A cut at a row end may leave a valid, shorter file; any other
        corruption exits 1 with one ValidationError line."""
        path = data_dir / "observations.csv"
        argv = ("featurize", "--data", str(data_dir), "--out", str(tmp_path / "f"))
        original = path.read_bytes()
        rng = np.random.default_rng(3)
        for _ in range(24):
            path.write_bytes(corrupt(original, rng))
            code, _, stderr = run(capsys, *argv)
            assert "Traceback" not in stderr
            if code == 0:
                assert stderr == ""
                continue
            assert code == 1
            lines = stderr.splitlines()
            assert len(lines) == 1, stderr
            assert json.loads(lines[0])["error"] == "ValidationError"

    def test_manifest_missing_key_names_the_file(self, capsys, data_dir):
        manifest = json.loads((data_dir / "manifest.json").read_text())
        del manifest["feature_columns"]
        (data_dir / "manifest.json").write_text(json.dumps(manifest))
        code, _, stderr = run(capsys, "train", "--data", str(data_dir), *FAST_TRAIN)
        assert code == 1
        err = last_json(stderr)
        assert err["error"] == "ValidationError"
        assert "manifest.json" in err["message"]
        assert "feature_columns" in err["message"]

    @pytest.mark.parametrize("bench", [
        {"rows": [{}]},
        {"rows": [dict(MINIMAL_BENCH["rows"][0], mean="x")]},
        {"rows": [dict(MINIMAL_BENCH["rows"][0], mean=10**400)]},  # no float holds it
        dict(MINIMAL_BENCH, period={"thresholds": [1.0], "means": [0.1], "stderrs": ["x"],
                                    "n_records": [5]}),
    ])
    def test_malformed_bench_report_writes_nothing(self, tmp_path, capsys, bench):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bench))
        code, stdout, stderr = run(capsys, "report", "--bench", str(path),
                                   "--out", str(tmp_path / "rep"))
        assert code == 1
        assert stdout == ""
        err = one_error_line(stderr)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"{path}: not a bench report (")
        assert not (tmp_path / "rep").exists()

    def test_report_without_rows_names_the_file(self, tmp_path, capsys):
        bench = tmp_path / "bad.json"
        bench.write_text(json.dumps({"period": None}))
        code, _, stderr = run(capsys, "report", "--bench", str(bench))
        assert code == 1
        err = last_json(stderr)
        assert err["error"] == "ValidationError"
        assert "bad.json" in err["message"]


def snapshot(root: Path) -> list:
    """Every path under root, with the bytes of each file."""
    return sorted((str(p.relative_to(root)), None if p.is_dir() else p.read_bytes())
                  for p in root.rglob("*"))


class TestFileSystemErrors:
    """A file-system error is one JSON line naming its OSError subclass,
    exit 1, and the command writes nothing."""

    @pytest.mark.parametrize("argv, error", [
        (("report", "--bench", "{bench}", "--out", "{file}"), "FileExistsError"),
        (("generate", "--seed", "0", "--n-records", "5", "--out", "{file}/x"),
         "NotADirectoryError"),
        (("report", "--bench", "{dir}", "--out", "{new}"), "IsADirectoryError"),
        (("train", "--data", "{data}", "--config", "{dir}", "--out", "{new}", *FAST_TRAIN),
         "IsADirectoryError"),
    ], ids=["out-is-a-file", "out-under-a-file", "bench-is-a-dir", "config-is-a-dir"])
    def test_one_json_line_and_nothing_written(self, tmp_path, capsys, data_dir, argv, error):
        (tmp_path / "bench_report.json").write_text(json.dumps(MINIMAL_BENCH))
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        paths = {"bench": tmp_path / "bench_report.json", "file": tmp_path / "afile",
                 "dir": tmp_path / "adir", "new": tmp_path / "new", "data": data_dir}
        before = snapshot(tmp_path)
        code, stdout, stderr = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, stdout) == (1, "")
        assert one_error_line(stderr)["error"] == error
        assert snapshot(tmp_path) == before


class TestRefusedCommandsWriteNothing:
    """A command computes everything before it creates --out, so one that a
    check refuses prints one JSON line and leaves nothing behind."""

    BENCH = ("bench", "--seed", "0", "--n-records", "30", "--out", "{new}")

    @pytest.mark.parametrize("argv, error", [
        ((*BENCH, "--k", "1"), "ValidationError"),
        ((*BENCH, "--cv-seed", "-1"), "ConfigurationError"),
        (("evaluate", "--data", "{data}", "--k", "1", "--out", "{new}", *FAST_TRAIN),
         "ValidationError"),
        (("train", "--data", "{data}", "--out", "{new}", *FAST_TRAIN,
          "--learning-rate", "1e100"), "DivergenceError"),
        (("featurize", "--data", "{data}", "--segments", "0", "--out", "{new}"),
         "ConfigurationError"),
    ], ids=["bench-one-fold", "bench-negative-cv-seed", "evaluate-one-fold",
            "train-diverges", "featurize-no-segments"])
    def test_one_json_line_and_nothing_written(self, tmp_path, capsys, data_dir, argv, error):
        before = snapshot(tmp_path)
        paths = {"new": tmp_path / "new", "data": data_dir}
        code, stdout, stderr = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, stdout) == (1, "")
        assert one_error_line(stderr)["error"] == error
        assert snapshot(tmp_path) == before


def _array_memory_error():
    # numpy's subclass, raised when an array cannot be allocated; building it
    # allocates nothing
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError((10**6, 10**6), np.dtype(float))


class TestMemoryError:
    """Running out of memory is one JSON line and exit 1, not a traceback."""

    @pytest.mark.parametrize("make_error", [MemoryError, _array_memory_error],
                             ids=["MemoryError", "ArrayMemoryError"])
    def test_one_json_line(self, capsys, monkeypatch, make_error):
        def out_of_memory(args):
            raise make_error()

        monkeypatch.setattr(staytime.cli, "cmd_generate", out_of_memory)
        code, stdout, stderr = run(capsys, "generate", "--seed", "0")
        assert (code, stdout) == (1, "")
        message = str(make_error()) or "out of memory"
        assert one_error_line(stderr) == {"error": "MemoryError", "message": message}

"""Dataset files: round trips, validation messages, forward fill, truth sidecar."""

import tracemalloc

import numpy as np
import pytest

from staytime import ObservationSequence, SurvivalDataset, SurvivalLabel, ValidationError
from staytime.data_io import (
    read_dataset,
    read_history,
    read_truth,
    write_dataset,
    write_history,
    write_truth,
)
from staytime.representation import compute_ctr
from staytime.synthgen import SynthConfig, generate


def build_dataset(with_durations=True, with_demographics=False):
    rng = np.random.default_rng(0)
    seqs, labs = [], []
    for i in range(5):
        m = int(rng.integers(1, 6))
        obs = rng.normal(size=(m, 3))
        dur = rng.uniform(0.1, 2.0, size=m) if with_durations else None
        ts = None if with_durations else np.cumsum(rng.uniform(0.1, 2.0, size=m))
        dem = rng.normal(size=2) if with_demographics else None
        seqs.append(
            ObservationSequence(obs, timestamps=ts, durations=dur,
                                demographics=dem, record_id=f"p{i:03d}")
        )
        labs.append(SurvivalLabel(float(rng.uniform(1, 9)), bool(rng.random() < 0.4)))
    return SurvivalDataset(seqs, labs)


def interleave(rows):
    """Observation rows dealt out round-robin: every record's rows end up
    separated by other records' rows, each record's own rows still in time
    order."""
    position, keyed = {}, []
    for row in rows:
        rid = row.split(",")[0]
        position[rid] = position.get(rid, -1) + 1
        keyed.append((position[rid], rid, row))
    return [row for _, _, row in sorted(keyed)]


def assert_datasets_equal(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a.sequences, b.sequences):
        assert sa.record_id == sb.record_id
        np.testing.assert_array_equal(sa.observations, sb.observations)
        np.testing.assert_array_equal(sa.timestamps, sb.timestamps)
        if sa.durations is None:
            assert sb.durations is None
        else:
            np.testing.assert_array_equal(sa.durations, sb.durations)
        if sa.demographics is None:
            assert sb.demographics is None
        else:
            np.testing.assert_array_equal(sa.demographics, sb.demographics)
    for la, lb in zip(a.labels, b.labels):
        assert la.event_time == lb.event_time
        assert la.censored == lb.censored


class TestRoundTrip:
    def test_exact_roundtrip_with_durations(self, tmp_path):
        data = build_dataset()
        write_dataset(data, tmp_path)
        assert_datasets_equal(data, read_dataset(tmp_path))

    def test_exact_roundtrip_without_durations(self, tmp_path):
        data = build_dataset(with_durations=False)
        write_dataset(data, tmp_path)
        assert_datasets_equal(data, read_dataset(tmp_path))

    def test_exact_roundtrip_with_demographics(self, tmp_path):
        data = build_dataset(with_demographics=True)
        write_dataset(data, tmp_path)
        assert_datasets_equal(data, read_dataset(tmp_path))

    def test_synthetic_roundtrip_is_exact(self, tmp_path):
        out = generate(SynthConfig(seed=5, n_records=20))
        write_dataset(out.dataset, tmp_path)
        assert_datasets_equal(out.dataset, read_dataset(tmp_path))

    def test_writes_are_deterministic(self, tmp_path):
        data = build_dataset()
        write_dataset(data, tmp_path / "a")
        write_dataset(data, tmp_path / "b")
        for name in ("observations.csv", "labels.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        write_dataset(build_dataset(), tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_interleaved_observation_rows_read_back_by_record(self, tmp_path):
        data = build_dataset(with_demographics=True)
        write_dataset(data, tmp_path)
        obs = tmp_path / "observations.csv"
        header, *rows = obs.read_text().splitlines()
        interleaved = interleave(rows)
        assert interleaved != rows
        obs.write_text("\n".join([header, *interleaved]) + "\n")
        assert_datasets_equal(data, read_dataset(tmp_path))

    def test_records_with_and_without_durations_round_trip(self, tmp_path):
        timed = build_dataset(with_durations=False)
        overridden = build_dataset(with_durations=True)
        seqs = [timed.sequences[0], overridden.sequences[1], timed.sequences[2],
                overridden.sequences[3]]
        mixed = SurvivalDataset(seqs, overridden.labels[:4])
        assert mixed.has_durations.tolist() == [False, True, False, True]
        np.testing.assert_array_equal(
            mixed.gaps, np.concatenate([s.gaps() for s in seqs]))
        write_dataset(mixed, tmp_path)
        # every record's stay times are written as durations, so they, the
        # timestamps, observations and labels all come back exactly
        back = read_dataset(tmp_path)
        assert back.has_durations.all()
        np.testing.assert_array_equal(mixed.gaps, back.gaps)
        for a, b in zip(mixed.sequences, back.sequences):
            assert a.record_id == b.record_id
            np.testing.assert_array_equal(a.observations, b.observations)
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.gaps(), b.gaps())
        np.testing.assert_array_equal(mixed.event_times(), back.event_times())
        np.testing.assert_array_equal(mixed.censor_mask(), back.censor_mask())


class TestMemory:
    """Reading and writing a cohort stay within fixed tracemalloc peaks.
    Measured on a 5000-record generate cohort: the per-record reader and
    writer peaked at 39.5 and 30.8 MiB, the columnar ones at 6.6 and 17.6."""

    READ_PEAK_MIB = 20.0
    WRITE_PEAK_MIB = 24.0

    @staticmethod
    def peak_mib(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_read_and_write_peaks(self, tmp_path):
        data = generate(SynthConfig(seed=0, n_records=5000)).dataset
        write = self.peak_mib(lambda: write_dataset(data, tmp_path))
        read = self.peak_mib(lambda: read_dataset(tmp_path))
        assert write < self.WRITE_PEAK_MIB, f"write_dataset peaked at {write:.1f} MiB"
        assert read < self.READ_PEAK_MIB, f"read_dataset peaked at {read:.1f} MiB"


class TestValidation:
    def write_and_patch(self, tmp_path, file, transform):
        write_dataset(build_dataset(), tmp_path)
        target = tmp_path / file
        target.write_text(transform(target.read_text()))

    def test_out_of_order_timestamps_name_the_row(self, tmp_path):
        write_dataset(build_dataset(), tmp_path)
        obs = tmp_path / "observations.csv"
        lines = obs.read_text().splitlines()
        # record p001 has several rows starting at line 3; swap two of them
        lines[2], lines[3] = lines[3], lines[2]
        obs.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r"observations.csv, row 4"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("file, row, column, value, rule", [
        ("observations.csv", 12, 2, "nan", "observations contains non-finite entries"),
        ("observations.csv", 9, 5, "-1.0", "durations must all be positive"),
        ("demographics.csv", 3, 2, "inf", "demographics contains non-finite entries"),
    ])
    def test_record_rule_names_the_file_row(self, tmp_path, file, row, column, value, rule):
        """A record rule's fault names the file and row that break it, in
        file order, with the observation rows interleaved across records."""
        write_dataset(build_dataset(with_demographics=True), tmp_path)
        obs = tmp_path / "observations.csv"
        header, *rows = obs.read_text().splitlines()
        obs.write_text("\n".join([header, *interleave(rows)]) + "\n")
        lines = (tmp_path / file).read_text().splitlines()
        cells = lines[row - 1].split(",")
        cells[column] = value
        lines[row - 1] = ",".join(cells)
        (tmp_path / file).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as caught:
            read_dataset(tmp_path)
        assert str(caught.value) == f"{file}, row {row}: record {cells[0]!r}: {rule}"

    def test_duplicate_label_record_id(self, tmp_path):
        self.write_and_patch(
            tmp_path, "labels.csv",
            lambda text: text + text.splitlines()[1] + "\n",
        )
        with pytest.raises(ValidationError, match=r"labels.csv, row 7: duplicate record_id"):
            read_dataset(tmp_path)

    def test_unlabeled_observation_rejected(self, tmp_path):
        self.write_and_patch(
            tmp_path, "observations.csv",
            lambda text: text.replace("p001", "ghost"),
        )
        with pytest.raises(ValidationError, match="has no label row"):
            read_dataset(tmp_path)

    def test_label_without_observations_rejected(self, tmp_path):
        self.write_and_patch(
            tmp_path, "labels.csv",
            lambda text: text + "lonely,3.0,0\n",
        )
        with pytest.raises(ValidationError, match="has no observation rows"):
            read_dataset(tmp_path)

    def test_non_numeric_cell_names_file_row_rule(self, tmp_path):
        self.write_and_patch(
            tmp_path, "labels.csv",
            lambda text: text.replace(text.splitlines()[1].split(",")[1], "banana", 1),
        )
        with pytest.raises(ValidationError, match=r"labels.csv, row 2.*not a number"):
            read_dataset(tmp_path)

    def test_bad_censor_flag(self, tmp_path):
        self.write_and_patch(
            tmp_path, "labels.csv",
            lambda text: text.replace(",0\n", ",maybe\n", 1),
        )
        with pytest.raises(ValidationError, match="censored flag must be 0 or 1"):
            read_dataset(tmp_path)

    def test_missing_manifest(self, tmp_path):
        write_dataset(build_dataset(), tmp_path)
        (tmp_path / "manifest.json").unlink()
        with pytest.raises(ValidationError, match="manifest not found"):
            read_dataset(tmp_path)

    def test_wrong_schema_version(self, tmp_path):
        write_dataset(build_dataset(), tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"schema_version": 1', '"schema_version": 99'))
        with pytest.raises(ValidationError, match="unsupported schema_version"):
            read_dataset(tmp_path)


class TestForwardFill:
    def make_gappy(self, tmp_path, blank_first=False):
        # one record, three observations; x0 is blanked in row 3 (or row 2)
        seq = ObservationSequence(
            np.array([[1.5, 2.0], [3.5, 4.0], [5.5, 6.0]]),
            durations=np.array([1.0, 1.0, 1.0]),
            record_id="only",
        )
        write_dataset(SurvivalDataset([seq], [SurvivalLabel(2.0, False)]), tmp_path)
        obs = tmp_path / "observations.csv"
        lines = obs.read_text().splitlines()
        row = 2 if blank_first else 3
        parts = lines[row - 1].split(",")
        parts[2] = ""
        lines[row - 1] = ",".join(parts)
        obs.write_text("\n".join(lines) + "\n")

    def test_fill_copies_previous_row_value(self, tmp_path):
        self.make_gappy(tmp_path)
        data = read_dataset(tmp_path, forward_fill=True)
        seq = data.sequences[0]
        assert seq.observations[1, 0] == 1.5  # inherited from row above
        assert seq.observations[1, 1] == 4.0  # untouched column intact
        assert seq.observations[2, 0] == 5.5

    def test_gap_without_fill_flag_is_an_error(self, tmp_path):
        self.make_gappy(tmp_path)
        with pytest.raises(ValidationError, match="forward fill is off"):
            read_dataset(tmp_path)

    def test_fill_comes_from_the_same_record_when_rows_interleave(self, tmp_path):
        seqs = [ObservationSequence(np.arange(6.0).reshape(3, 2) + 10 * k,
                                    durations=[1.0, 1.0, 1.0], record_id=f"k{k}")
                for k in range(2)]
        write_dataset(SurvivalDataset(seqs, [SurvivalLabel(2.0), SurvivalLabel(3.0)]), tmp_path)
        obs = tmp_path / "observations.csv"
        header, *rows = obs.read_text().splitlines()
        rows = [rows[0], rows[3], rows[1], rows[4], rows[2], rows[5]]  # k0, k1, k0, ...
        for at, column in ((3, 3), (4, 2)):  # blank k1's second x1 and k0's third x0
            parts = rows[at].split(",")
            parts[column] = ""
            rows[at] = ",".join(parts)
        obs.write_text("\n".join([header, *rows]) + "\n")
        k0, k1 = read_dataset(tmp_path, forward_fill=True).sequences
        np.testing.assert_array_equal(k0.observations, [[0, 1], [2, 3], [2, 5]])
        np.testing.assert_array_equal(k1.observations, [[10, 11], [12, 11], [14, 15]])

    def test_leading_gap_cannot_be_filled(self, tmp_path):
        self.make_gappy(tmp_path, blank_first=True)
        with pytest.raises(ValidationError, match="no earlier value"):
            read_dataset(tmp_path, forward_fill=True)


class TestTruthSidecar:
    def test_roundtrip_and_refeaturization(self, tmp_path):
        out = generate(SynthConfig(seed=9, n_records=15))
        write_dataset(out.dataset, tmp_path)
        write_truth(out, tmp_path)
        truth = read_truth(tmp_path)
        data = read_dataset(tmp_path)
        state = truth["grid"]
        for seq in data.sequences:
            z = compute_ctr(seq, state, decay=1.0)
            stored = truth["noise_free"][seq.record_id]
            assert float(truth["weights"] @ z) == pytest.approx(stored, abs=1e-12)

    def test_truth_bytes_deterministic(self, tmp_path):
        out = generate(SynthConfig(seed=9, n_records=5))
        write_truth(out, tmp_path / "a" if (tmp_path / "a").mkdir() is None else tmp_path)
        write_truth(out, tmp_path / "b" if (tmp_path / "b").mkdir() is None else tmp_path)
        assert (tmp_path / "a" / "truth.json").read_bytes() == (tmp_path / "b" / "truth.json").read_bytes()


class TestHistory:
    def test_roundtrip(self, tmp_path):
        history = [
            {"epoch": 1, "train_loss": 2.5, "val_score": 0.61},
            {"epoch": 2, "train_loss": 1.25, "val_score": 0.6425},
        ]
        path = tmp_path / "history.jsonl"
        write_history(history, path)
        assert read_history(path) == history
        assert path.read_text().count("\n") == 2

    def test_empty_history(self, tmp_path):
        path = tmp_path / "history.jsonl"
        write_history([], path)
        assert read_history(path) == []

"""Stay-time weights, decay parameter, and the cumulative vector."""

import numpy as np
import pytest

from staytime import (
    ConfigurationError,
    DecayParameter,
    KernelBasisSet,
    Mlp,
    NeuralStateFunction,
    ObservationSequence,
    SurvivalDataset,
    SurvivalLabel,
    ValidationError,
    build_grid,
    compute_ctr,
    compute_ctr_batch,
    stay_times,
)
from staytime.representation import PackedRecords, decay_exponents, sigmoid, softplus
from staytime.representation import CHUNK_ROWS


def seq_from_times(times, n_dims=1, rng=None):
    rng = rng or np.random.default_rng(0)
    times = np.asarray(times, dtype=float)
    return ObservationSequence(rng.uniform(-1, 1, size=(len(times), n_dims)), times)


def random_override_seq(rng, m=None, n_dims=2):
    m = m or int(rng.integers(1, 12))
    return ObservationSequence(
        rng.uniform(-1, 1, size=(m, n_dims)),
        durations=rng.uniform(0.05, 1.0, size=m),
    )


class TestStayTimes:
    def test_worked_example(self):
        # timestamps [1, 2, 4] with decay 0.5: weights [0.125, 0.25, 2.0]
        seq = seq_from_times([1.0, 2.0, 4.0])
        np.testing.assert_array_equal(stay_times(seq, 0.5), [0.125, 0.25, 2.0])

    def test_no_decay_returns_plain_gaps(self):
        seq = seq_from_times([1.0, 2.0, 4.0])
        np.testing.assert_array_equal(stay_times(seq, 1.0), [1.0, 1.0, 2.0])

    def test_first_gap_measured_from_time_zero(self):
        seq = seq_from_times([3.0])
        np.testing.assert_array_equal(stay_times(seq), [3.0])

    def test_override_replaces_gaps(self):
        seq = ObservationSequence(
            np.zeros((3, 1)), timestamps=[1.0, 2.0, 4.0], durations=[0.3, 0.4, 0.5]
        )
        np.testing.assert_array_equal(stay_times(seq, 1.0), [0.3, 0.4, 0.5])
        # explicit timestamps drive the decay exponents
        expected = np.array([0.3, 0.4, 0.5]) * 0.5 ** np.array([3.0, 2.0, 0.0])
        np.testing.assert_allclose(stay_times(seq, 0.5), expected, rtol=1e-15)

    def test_override_without_timestamps_uses_cumulative_sum(self):
        seq = ObservationSequence(np.zeros((3, 1)), durations=[0.5, 1.0, 2.0])
        np.testing.assert_allclose(seq.timestamps, [0.5, 1.5, 3.5])
        expected = np.array([0.5, 1.0, 2.0]) * 0.9 ** np.array([3.0, 2.0, 0.0])
        np.testing.assert_allclose(stay_times(seq, 0.9), expected, rtol=1e-15)

    def test_decay_strictly_shrinks_all_but_last(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seq = random_override_seq(rng, m=int(rng.integers(2, 10)))
            plain = stay_times(seq, 1.0)
            decayed = stay_times(seq, 0.7)
            assert np.all(decayed[:-1] < plain[:-1])
            assert decayed[-1] == plain[-1]

    def test_weights_are_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            seq = random_override_seq(rng)
            assert np.all(stay_times(seq, 0.5) > 0)

    def test_bad_decay_rejected(self):
        seq = seq_from_times([1.0])
        for bad in (0.0, -0.5, 1.5, np.inf):
            with pytest.raises(ConfigurationError):
                stay_times(seq, bad)


class TestDecayParameter:
    def test_fixed_allows_exactly_one(self):
        assert DecayParameter(1.0).value == 1.0
        assert DecayParameter(1.0).value_grad() == 0.0

    def test_trainable_round_trips_init_value(self):
        p = DecayParameter(0.999, trainable=True)
        assert p.value == pytest.approx(0.999, abs=1e-12)
        assert np.isfinite(p.raw[0])

    def test_trainable_rejects_one(self):
        with pytest.raises(ConfigurationError):
            DecayParameter(1.0, trainable=True)

    def test_value_grad_matches_finite_difference(self):
        p = DecayParameter(0.8, trainable=True)
        eps = 1e-6
        raw0 = p.raw[0]
        p.raw[0] = raw0 + eps
        up = p.value
        p.raw[0] = raw0 - eps
        down = p.value
        p.raw[0] = raw0
        numeric = (up - down) / (2 * eps)
        assert p.value_grad() == pytest.approx(numeric, rel=1e-8)

    def test_value_stays_inside_unit_interval(self):
        # float rounding can saturate to exactly 1.0 for very negative raws,
        # which is still inside the legal (0, 1] decay domain
        for raw in (-50.0, -5.0, 0.0, 5.0, 50.0):
            p = DecayParameter(0.5, trainable=True)
            p.raw[0] = raw
            assert 0.0 < p.value <= 1.0
        p.raw[0] = -5.0
        assert p.value < 1.0

    def test_softplus_sigmoid_helpers_are_stable(self):
        assert softplus(800.0) == pytest.approx(800.0)
        assert softplus(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)


class TestComputeCtr:
    def loop_oracle(self, seq, state, decay):
        # direct transcription: z = sum_m decay^(tM - tm) * gap_m * s(x_m)
        t = seq.timestamps
        base = seq.durations if seq.durations is not None else np.diff(t, prepend=0.0)
        z = np.zeros(state.n_states)
        for m in range(seq.n_observations):
            w = state.weights_matrix(seq.observations[m][None, :])[0]
            z += decay ** (t[-1] - t[m]) * base[m] * w
        return z

    def test_matches_loop_oracle_discrete_and_kernel(self):
        rng = np.random.default_rng(11)
        grid = build_grid((-1, 1), 5, n_dims=2)
        basis = KernelBasisSet(rng.uniform(-1, 1, size=(7, 2)), gamma=2.0)
        states = [grid, basis]
        for _ in range(25):
            seq = random_override_seq(rng)
            decay = float(rng.uniform(0.3, 1.0))
            for state in states:
                np.testing.assert_allclose(
                    compute_ctr(seq, state, decay),
                    self.loop_oracle(seq, state, decay),
                    rtol=1e-12,
                    atol=1e-15,
                )

    def test_mass_conservation(self):
        # sum_k z_k must equal the total decayed stay time
        rng = np.random.default_rng(12)
        grid = build_grid((-1, 1), 4, n_dims=3)
        basis = KernelBasisSet(rng.uniform(-1, 1, size=(10, 3)), gamma=0.7)
        for _ in range(200):
            seq = random_override_seq(rng, n_dims=3)
            decay = float(rng.uniform(0.2, 1.0))
            total = stay_times(seq, decay).sum()
            for state in (grid, basis):
                z = compute_ctr(seq, state, decay)
                assert abs(z.sum() - total) <= 1e-9 * total

    def test_normalize_flag_divides_total_out(self):
        rng = np.random.default_rng(13)
        grid = build_grid((-1, 1), 4, n_dims=2)
        seq = random_override_seq(rng)
        z = compute_ctr(seq, grid, 0.8, normalize=True)
        assert z.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance_without_decay(self):
        rng = np.random.default_rng(14)
        grid = build_grid((-1, 1), 5, n_dims=2)
        state = grid
        for _ in range(50):
            seq = random_override_seq(rng, m=int(rng.integers(2, 12)))
            perm = rng.permutation(seq.n_observations)
            shuffled = ObservationSequence(
                seq.observations[perm], durations=seq.durations[perm]
            )
            np.testing.assert_allclose(
                compute_ctr(seq, state, 1.0),
                compute_ctr(shuffled, state, 1.0),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_duration_scaling_is_linear(self):
        # power-of-two scales commute with float rounding, so demand exactness there
        rng = np.random.default_rng(15)
        grid = build_grid((-1, 1), 5, n_dims=2)
        state = grid
        for _ in range(30):
            seq = random_override_seq(rng)
            scaled = ObservationSequence(seq.observations, durations=4.0 * seq.durations)
            np.testing.assert_array_equal(
                compute_ctr(scaled, state, 1.0), 4.0 * compute_ctr(seq, state, 1.0)
            )
            c = float(rng.uniform(0.1, 3.0))
            scaled = ObservationSequence(seq.observations, durations=c * seq.durations)
            np.testing.assert_allclose(
                compute_ctr(scaled, state, 1.0),
                c * compute_ctr(seq, state, 1.0),
                rtol=1e-12,
            )

    def test_duration_scaling_linear_with_decay_and_fixed_timestamps(self):
        # with explicit timestamps held fixed the decay factors are constants,
        # so the vector stays linear in the override durations
        rng = np.random.default_rng(16)
        grid = build_grid((-1, 1), 5, n_dims=2)
        state = grid
        times = np.cumsum(rng.uniform(0.1, 1.0, size=6))
        obs = rng.uniform(-1, 1, size=(6, 2))
        dur = rng.uniform(0.05, 1.0, size=6)
        a = compute_ctr(ObservationSequence(obs, times, durations=dur), state, 0.6)
        b = compute_ctr(ObservationSequence(obs, times, durations=2.0 * dur), state, 0.6)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_interval_sensitivity_with_identical_observations(self):
        # all observations identical: doubling one gap adds exactly that gap's mass
        grid = build_grid((-1, 1), 4, n_dims=2)
        state = grid
        x = np.tile([[0.3, -0.2]], (4, 1))
        dur = np.array([0.5, 1.0, 0.25, 0.75])
        base = compute_ctr(ObservationSequence(x, durations=dur), state, 1.0)
        bumped_dur = dur.copy()
        bumped_dur[1] *= 2.0
        bumped = compute_ctr(ObservationSequence(x, durations=bumped_dur), state, 1.0)
        w = state.weights_matrix(x[:1])[0]
        np.testing.assert_allclose(bumped - base, dur[1] * w, rtol=1e-12, atol=1e-15)

    def test_length_independent_of_observation_count_and_dims(self):
        rng = np.random.default_rng(17)
        for n_dims in (2, 26, 37):
            basis = KernelBasisSet(rng.uniform(-1, 1, size=(100, n_dims)), gamma=1.0)
            state = basis
            for m in (1, 5, 40):
                seq = random_override_seq(rng, m=m, n_dims=n_dims)
                assert compute_ctr(seq, state).shape == (100,)

    def test_batch_helper_stacks_rows(self):
        rng = np.random.default_rng(18)
        grid = build_grid((-1, 1), 4, n_dims=2)
        state = grid
        seqs = [random_override_seq(rng) for _ in range(5)]
        batch = compute_ctr_batch(seqs, state, 0.9)
        assert batch.shape == (5, 16)
        np.testing.assert_array_equal(batch[2], compute_ctr(seqs[2], state, 0.9))


def chunk_spanning_records(rng, n_dims=2):
    """Records of 1-29 rows, some with timestamps only and some with
    duration overrides, plus one record longer than a chunk; their pooled
    rows span several chunks and no chunk-size multiple falls on a record
    boundary."""
    seqs = []
    for i in range(300):
        m = int(rng.integers(1, 30))
        obs = rng.uniform(-1, 1, size=(m, n_dims))
        times = np.cumsum(rng.uniform(0.05, 1.0, size=m))
        dur = rng.uniform(0.05, 1.0, size=m) if i % 3 else None
        seqs.append(ObservationSequence(obs, times, durations=dur))
        if i == 150:
            big = CHUNK_ROWS + 300
            seqs.append(ObservationSequence(rng.uniform(-1, 1, size=(big, n_dims)),
                                            np.cumsum(rng.uniform(0.05, 1.0, size=big))))
    return seqs


class TestPackedKernel:
    def states(self, rng):
        grid = build_grid((-1, 1), 4, n_dims=2)
        basis = KernelBasisSet(rng.uniform(-1, 1, size=(20, 2)), gamma=1.5)
        net = Mlp([2, 64, 64, 25], out_activation="softmax", rng=3)
        return [grid, basis, NeuralStateFunction(net)]

    def test_records_straddle_every_chunk_boundary(self):
        seqs = chunk_spanning_records(np.random.default_rng(20))
        packed = PackedRecords.pack(seqs)
        chunks = list(packed.chunks())
        assert len(chunks) >= 3
        assert chunks[0][0] == 0 and chunks[-1][1] == len(seqs)
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        boundaries = np.arange(CHUNK_ROWS, packed.offsets[-1], CHUNK_ROWS)
        assert len(boundaries) >= 3
        assert not np.isin(boundaries, packed.offsets).any()
        assert any(packed.counts[lo:hi].sum() > CHUNK_ROWS for lo, hi in chunks)

    @pytest.mark.parametrize("decay,normalize", [(1.0, False), (0.7, False), (0.9, True)])
    def test_batch_rows_equal_single_records_bitwise(self, decay, normalize):
        rng = np.random.default_rng(21)
        seqs = chunk_spanning_records(rng)
        for state in self.states(rng):
            batch = compute_ctr_batch(seqs, state, decay, normalize)
            assert batch.shape == (len(seqs), state.n_states)
            for i, seq in enumerate(seqs):
                np.testing.assert_array_equal(
                    batch[i], compute_ctr(seq, state, decay, normalize),
                    err_msg=f"{type(state).__name__} record {i}")

    def test_matches_loop_oracle_across_chunks(self):
        rng = np.random.default_rng(22)
        seqs = chunk_spanning_records(rng)
        for state in self.states(rng):
            batch = compute_ctr_batch(seqs, state, 0.8)
            for i in range(0, len(seqs), 7):
                np.testing.assert_allclose(
                    batch[i], TestComputeCtr.loop_oracle(None, seqs[i], state, 0.8),
                    rtol=1e-12, atol=1e-13)

    def test_take_equals_per_record_concatenation(self):
        rng = np.random.default_rng(23)
        seqs = chunk_spanning_records(rng)
        grid_state = build_grid((-1, 1), 3, n_dims=2)
        packed = PackedRecords.pack(seqs).with_weights(grid_state)
        for idx in ([5], [3, 3, 0], rng.permutation(len(seqs))[:64], np.arange(len(seqs))):
            batch = packed.take(idx)
            chosen = [seqs[i] for i in idx]
            np.testing.assert_array_equal(
                batch.rows, np.concatenate([s.observations for s in chosen]))
            np.testing.assert_array_equal(
                batch.gaps, np.concatenate([s.gaps() for s in chosen]))
            np.testing.assert_array_equal(
                batch.exponents, np.concatenate([decay_exponents(s) for s in chosen]))
            np.testing.assert_array_equal(
                batch.offsets, np.cumsum([0] + [s.n_observations for s in chosen]))
            np.testing.assert_array_equal(
                batch.weights,
                np.concatenate([grid_state.weights_matrix(s.observations) for s in chosen]))

    def test_pack_mixes_timestamps_and_overrides(self):
        seqs = [
            ObservationSequence(np.zeros((3, 1)), [1.0, 2.0, 4.0]),
            ObservationSequence(np.zeros((2, 1)), [0.5, 3.0], durations=[0.3, 0.4]),
            ObservationSequence(np.zeros((1, 1)), [2.5]),
        ]
        packed = PackedRecords.pack(seqs)
        np.testing.assert_array_equal(packed.gaps, [1.0, 1.0, 2.0, 0.3, 0.4, 2.5])
        np.testing.assert_array_equal(packed.exponents, [3.0, 2.0, 0.0, 2.5, 0.0, 0.0])
        np.testing.assert_array_equal(packed.offsets, [0, 3, 5, 6])

    def test_bad_decay_rejected(self):
        seq = seq_from_times([1.0, 2.0])
        state = build_grid((-1, 1), 2, n_dims=1)
        for bad in (0.0, 1.5, np.nan):
            with pytest.raises(ConfigurationError):
                compute_ctr_batch([seq], state, bad)


class TestSequenceValidation:
    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValidationError):
            ObservationSequence(np.zeros((2, 1)), [2.0, 1.0])

    def test_zero_first_timestamp_rejected_without_override(self):
        with pytest.raises(ValidationError):
            ObservationSequence(np.zeros((2, 1)), [0.0, 1.0])
        # fine when durations are supplied
        ObservationSequence(np.zeros((2, 1)), [0.0, 1.0], durations=[0.5, 0.5])

    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ValidationError):
            ObservationSequence(np.zeros((2, 1)), durations=[0.5, 0.0])

    @pytest.mark.parametrize("kwargs, rule", [
        ({"observations": [[np.nan], [0.0]], "timestamps": [1.0, 2.0]},
         "observations contains non-finite entries"),
        ({"durations": [0.5, np.inf]}, "durations contains non-finite entries"),
        ({"durations": [0.5, -1.0]}, "durations must all be positive"),
        ({"timestamps": [1.0, np.nan]}, "timestamps contains non-finite entries"),
        ({"timestamps": [-1.0, 2.0], "durations": [0.5, 0.5]}, "timestamps must be nonnegative"),
        ({"timestamps": [1.0, 1.0]}, "timestamps must be strictly increasing"),
        ({"timestamps": [0.0, 1.0]},
         "first timestamp must be positive (stay times must be positive)"),
        ({"timestamps": [1.0, 2.0], "demographics": [np.inf]},
         "demographics contains non-finite entries"),
        ({"timestamps": [1.0]}, "timestamps has length 1, expected 2"),
        ({}, "timestamps are required when no durations are given"),
    ])
    def test_each_rule_names_itself(self, kwargs, rule):
        kwargs = {"observations": np.zeros((2, 1)), **kwargs}
        with pytest.raises(ValidationError) as info:
            ObservationSequence(**kwargs)
        assert str(info.value) == rule

    def test_dataset_views_are_read_only(self):
        data = SurvivalDataset([seq_from_times([1.0, 2.0])], [SurvivalLabel(3.0)])
        for name in ("sequences", "labels"):
            with pytest.raises(AttributeError):
                setattr(data, name, getattr(data, name))

    def test_exponents_use_window_end(self):
        seq = seq_from_times([1.0, 2.0, 4.0])
        np.testing.assert_array_equal(decay_exponents(seq), [3.0, 2.0, 0.0])

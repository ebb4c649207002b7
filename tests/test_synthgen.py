"""Synthetic benchmark generator: distributions, determinism, ground truth."""

import numpy as np
import pytest

from staytime import ConfigurationError, ValidationError
from staytime.representation import compute_ctr
from staytime.synthgen import (
    SynthConfig,
    generate,
    integer_root,
    lattice_weights,
    reference_grids,
)


class TestIntegerRoot:
    def test_exact_roots(self):
        assert integer_root(25, 2) == 5
        assert integer_root(49, 2) == 7
        assert integer_root(100, 2) == 10
        assert integer_root(8, 3) == 2

    def test_inexact_rejected(self):
        with pytest.raises(ConfigurationError):
            integer_root(24, 2)
        with pytest.raises(ConfigurationError):
            integer_root(50, 2)

    def test_huge_dimension_needs_no_huge_power(self):
        # 2**d alone would take forever to build; only 1 can tile so many dims
        assert integer_root(1, 10**20) == 1
        with pytest.raises(ConfigurationError):
            integer_root(25, 10**20)


class TestSynthConfig:
    def test_roundtrip(self):
        cfg = SynthConfig(seed=5, n_states=49)
        assert SynthConfig(**cfg.to_dict()) == cfg

    def test_states_must_form_a_lattice(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(seed=0, n_states=24)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("n_records", 0), ("n_obs", 2.0),
        ("n_dims", "2"), ("n_states", 0),
        ("noise_variance", float("nan")), ("noise_variance", float("inf")),
        ("noise_variance", -0.1), ("weight_width", float("nan")), ("weight_width", 0.0),
    ])
    def test_fields_checked(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SynthConfig(**{"seed": 0, field: value})

    def test_segments_per_dim(self):
        assert SynthConfig(seed=0, n_states=25).segments_per_dim == 5
        assert SynthConfig(seed=0, n_states=100).segments_per_dim == 10


class TestLatticeWeights:
    def test_peak_is_one_at_center(self):
        grids = reference_grids(25, 2)
        w = lattice_weights(grids["true"], width=1.0, profile="coordinate")
        assert w.shape == (25,)
        assert w.max() == 1.0
        # 5x5 lattice: the middle cell sits at the centroid
        assert w[12] == 1.0

    def test_weights_from_gaussian_formula(self):
        grids = reference_grids(25, 2)
        grid = grids["true"]
        w = lattice_weights(grid, width=1.0, profile="coordinate")
        pts = grid.centers()
        center = pts.mean(axis=0)
        expected = np.exp(-np.sum((pts - center) ** 2, axis=1) / 2.0)
        np.testing.assert_allclose(w, expected, rtol=1e-15)

    def test_symmetry_about_center(self):
        grids = reference_grids(25, 2)
        w = lattice_weights(grids["true"], width=1.0, profile="coordinate").reshape(5, 5)
        np.testing.assert_allclose(w, w[::-1, :], rtol=1e-15)
        np.testing.assert_allclose(w, w[:, ::-1], rtol=1e-15)
        np.testing.assert_allclose(w, w.T, rtol=1e-15)

    def test_index_profile_uses_lattice_positions(self):
        grids = reference_grids(25, 2)
        w = lattice_weights(grids["true"], width=1.0, profile="index")
        idx = np.stack(
            np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        expected = np.exp(-np.sum((idx - idx.mean(axis=0)) ** 2, axis=1) / 2.0)
        np.testing.assert_allclose(w, expected, rtol=1e-15)

    def test_wider_profile_is_flatter(self):
        grids = reference_grids(25, 2)
        narrow = lattice_weights(grids["true"], width=0.5, profile="coordinate")
        wide = lattice_weights(grids["true"], width=2.0, profile="coordinate")
        assert narrow.min() < wide.min()
        assert narrow.max() == wide.max() == 1.0


class TestReferenceGrids:
    def test_true_minus_plus_segment_counts(self):
        grids = reference_grids(25, 2)
        assert grids["true"].segments_per_dim == (5, 5)
        assert grids["minus"].segments_per_dim == (4, 4)
        assert grids["plus"].segments_per_dim == (6, 6)

    def test_grids_cover_the_sample_box(self):
        for g in reference_grids(49, 2).values():
            for b in g.boundaries:
                assert b[0] == -1.0
                assert b[-1] == 1.0

    def test_too_coarse_rejected(self):
        with pytest.raises(ConfigurationError):
            reference_grids(1, 2)


class TestGenerate:
    def test_shapes_and_bounds(self):
        out = generate(SynthConfig(seed=0, n_records=50))
        data = out.dataset
        assert len(data.sequences) == 50
        for seq in data.sequences:
            assert seq.observations.shape == (10, 2)
            assert np.all(seq.observations >= -1.0)
            assert np.all(seq.observations < 1.0)
            assert np.all(seq.durations > 0.0)
            assert np.all(seq.durations < 1.0)
        assert not any(lab.censored for lab in data.labels)

    def test_targets_are_weights_dot_truth_plus_noise(self):
        out = generate(SynthConfig(seed=1, n_records=30))
        state = out.grid
        for seq, lab, clean in zip(
            out.dataset.sequences, out.dataset.labels, out.noise_free
        ):
            z = compute_ctr(seq, state, decay=1.0)
            assert float(out.weights @ z) == pytest.approx(clean, abs=1e-12)
            assert lab.event_time != clean  # noise actually applied

    def test_residual_moments_match_noise_model(self):
        cfg = SynthConfig(seed=2, n_records=4000)
        out = generate(cfg)
        resid = out.dataset.event_times() - out.noise_free
        assert abs(resid.mean()) < 0.02
        assert resid.var() == pytest.approx(0.1, abs=0.01)

    def test_same_seed_reproduces_everything(self):
        a = generate(SynthConfig(seed=3, n_records=20))
        b = generate(SynthConfig(seed=3, n_records=20))
        np.testing.assert_array_equal(a.dataset.event_times(), b.dataset.event_times())
        np.testing.assert_array_equal(a.noise_free, b.noise_free)
        for sa, sb in zip(a.dataset.sequences, b.dataset.sequences):
            np.testing.assert_array_equal(sa.observations, sb.observations)
            np.testing.assert_array_equal(sa.durations, sb.durations)

    def test_records_are_prefix_stable(self):
        # the first records of a longer run equal the records of a shorter
        # one: each record consumes its own spawned stream
        small = generate(SynthConfig(seed=4, n_records=5))
        large = generate(SynthConfig(seed=4, n_records=15))
        for i in range(5):
            np.testing.assert_array_equal(
                small.dataset.sequences[i].observations,
                large.dataset.sequences[i].observations,
            )
            assert (
                small.dataset.labels[i].event_time
                == large.dataset.labels[i].event_time
            )

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(seed=5, n_records=10))
        b = generate(SynthConfig(seed=6, n_records=10))
        assert not np.array_equal(a.dataset.event_times(), b.dataset.event_times())

    def test_record_ids_are_stable(self):
        out = generate(SynthConfig(seed=7, n_records=3))
        assert [s.record_id for s in out.dataset.sequences] == [
            "r000000",
            "r000001",
            "r000002",
        ]

    def test_lattice_sizes_supported(self):
        for k in (25, 49, 100):
            out = generate(SynthConfig(seed=8, n_records=5, n_states=k))
            assert out.weights.shape == (k,)

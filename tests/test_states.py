"""Segment grids, kernel bases, and the three state-function families."""

import numpy as np
import pytest

from staytime import (
    ConfigurationError,
    CtrFeaturizer,
    KernelBasisSet,
    Mlp,
    NeuralStateFunction,
    OutOfRangeError,
    SegmentGrid,
    SynthConfig,
    ValidationError,
    build_grid,
    generate,
    sample_bases,
)

import staytime.cli  # noqa: F401  the tracer wraps every module, and the CLI imports them all
from test_tracing_targets import TRACING_MODULE


def discrete_state(x, grid: SegmentGrid) -> np.ndarray:
    """One-hot weight vector for a single observation."""
    return grid.one_hot(np.asarray(x, dtype=float)[None, :])[0]


def kernel_state(x, basis: KernelBasisSet) -> np.ndarray:
    """Normalized kernel weight vector for a single observation."""
    return basis.weights(np.asarray(x, dtype=float)[None, :])[0]


def neural_state(x, net) -> np.ndarray:
    """Softmax state vector for a single observation."""
    return NeuralStateFunction(net).weights_matrix(np.asarray(x, dtype=float)[None, :])[0]


class TestSegmentGrid:
    def test_equal_width_boundaries(self):
        grid = build_grid((-1, 1), 4, n_dims=1)
        np.testing.assert_allclose(grid.boundaries[0], [-1, -0.5, 0, 0.5, 1])

    def test_locate_basic(self):
        grid = build_grid((-1, 1), 4, n_dims=1)
        assert grid.locate(np.array([[-0.75]]))[0] == 0
        # a value on an interior boundary belongs to the segment to its right
        assert grid.locate(np.array([[0.0]]))[0] == 2
        # the top boundary belongs to the last segment
        assert grid.locate(np.array([[1.0]]))[0] == 3

    def test_cell_count_is_product(self):
        assert build_grid((-1, 1), 4, n_dims=3).n_states == 64
        assert SegmentGrid((np.array([-1.0, 0.0, 1.0]),) * 2).n_states == 4

    def test_centers(self):
        grid = SegmentGrid((np.array([-1.0, 0.0, 1.0]),) * 2)
        np.testing.assert_allclose(
            grid.centers(), [[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]]
        )

    def test_single_cell_grid(self):
        grid = SegmentGrid((np.array([0.0, 1.0]),))
        assert grid.n_states == 1
        np.testing.assert_array_equal(grid.one_hot(np.array([[0.4]])), [[1.0]])

    def test_out_of_range_raises_unless_clamped(self):
        grid = build_grid((-1, 1), 4, n_dims=1)
        with pytest.raises(OutOfRangeError):
            grid.locate(np.array([[1.5]]))
        clamped = SegmentGrid(grid.boundaries, clamp=True)
        assert clamped.locate(np.array([[1.5]]))[0] == 3
        assert clamped.locate(np.array([[-9.0]]))[0] == 0

    def test_one_hot_rows(self):
        rng = np.random.default_rng(0)
        grid = build_grid((-1, 1), 5, n_dims=2)
        X = rng.uniform(-1, 1, size=(40, 2))
        hot = grid.one_hot(X)
        assert hot.shape == (40, 25)
        np.testing.assert_array_equal(hot.sum(axis=1), np.ones(40))
        assert set(np.unique(hot)) <= {0.0, 1.0}

    def test_locate_agrees_with_scalar_scan(self):
        rng = np.random.default_rng(1)
        grid = build_grid((-1, 1), 7, n_dims=2)
        X = rng.uniform(-1, 1, size=(100, 2))
        idx = grid.locate(X)
        for row, flat in zip(X, idx):
            per_dim = []
            for d, b in enumerate(grid.boundaries):
                j = 0
                while j < len(b) - 2 and row[d] >= b[j + 1]:
                    j += 1
                per_dim.append(j)
            assert flat == np.ravel_multi_index(per_dim, grid.segments_per_dim)

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentGrid((np.array([0.0]),))
        with pytest.raises(ConfigurationError):
            SegmentGrid((np.array([0.0, 0.0, 1.0]),))
        with pytest.raises(ConfigurationError):
            build_grid((1, -1), 3, n_dims=1)


class TestKernelBasisSet:
    def test_worked_example(self):
        # bases {0} and {1}, gamma 1, x = 0: weights 1/(1+e^-1), e^-1/(1+e^-1)
        basis = KernelBasisSet(np.array([[0.0], [1.0]]), gamma=1.0)
        w = kernel_state(np.array([0.0]), basis)
        np.testing.assert_allclose(
            w, [0.7310585786300049, 0.2689414213699951], rtol=0, atol=1e-15
        )

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(2)
        basis = KernelBasisSet(rng.normal(size=(9, 3)), gamma=0.5)
        W = basis.weights(rng.normal(size=(50, 3)))
        assert np.all(W >= 0)
        np.testing.assert_allclose(W.sum(axis=1), np.ones(50), atol=1e-12)

    def test_matches_unnormalized_oracle(self):
        rng = np.random.default_rng(3)
        basis = KernelBasisSet(rng.normal(size=(6, 2)), gamma=1.7)
        X = rng.normal(size=(20, 2))
        raw = np.exp(
            -1.7 * np.sum((X[:, None, :] - basis.bases[None, :, :]) ** 2, axis=-1)
        )
        np.testing.assert_allclose(
            basis.weights(X), raw / raw.sum(axis=1, keepdims=True), rtol=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("d", [1, 2, 7, 12])
    def test_per_dimension_sum_matches_broadcast_formula(self, d, gamma):
        # the M x K x D broadcast that the per-dimension sum replaced, kept
        # as the reference: numpy sums fewer than 8 terms in order, so the
        # bits agree up to D = 7; from D = 8 on it groups them differently
        rng = np.random.default_rng(d)
        basis = KernelBasisSet(rng.normal(size=(40, d)), gamma=gamma)
        X = rng.normal(size=(300, d))
        diff = X[:, None, :] - basis.bases[None, :, :]
        logits = np.square(diff, out=diff).sum(axis=-1)
        logits *= -gamma
        logits -= logits.max(axis=1, keepdims=True)
        ref = np.exp(logits)
        ref /= ref.sum(axis=1, keepdims=True)
        if d < 8:
            np.testing.assert_array_equal(basis.weights(X), ref)
        else:  # a subnormal weight (gamma 100) keeps only absolute precision
            np.testing.assert_allclose(basis.weights(X), ref, rtol=1e-12,
                                       atol=np.finfo(float).tiny)

    def test_stable_far_from_all_bases(self):
        basis = KernelBasisSet(np.array([[0.0], [1.0]]), gamma=10.0)
        w = basis.weights(np.array([[1e3]]))
        assert np.all(np.isfinite(w))
        assert w.sum() == pytest.approx(1.0)

    def test_weight_count_independent_of_dims(self):
        rng = np.random.default_rng(4)
        for d in (2, 26, 37):
            basis = KernelBasisSet(rng.normal(size=(100, d)), gamma=1.0)
            assert basis.weights(rng.normal(size=(5, d))).shape == (5, 100)

    def test_sharpening_approaches_one_hot_at_bin_centers(self):
        # at a cell center, with bases on all cell centers, the matching
        # weight grows strictly toward 1 as gamma increases
        grid = build_grid((-1, 1), 5, n_dims=2)
        centers = grid.centers()
        x = centers[7]
        got = []
        for gamma in (1.0, 10.0, 100.0):
            w = kernel_state(x, KernelBasisSet(centers, gamma=gamma))
            assert w.argmax() == 7
            got.append(w[7])
        assert got[0] < got[1] < got[2]
        assert got[2] > 0.999

    def test_gamma_must_be_positive(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ConfigurationError):
                KernelBasisSet(np.zeros((2, 1)), gamma=bad)

    def test_dimension_mismatch_rejected(self):
        basis = KernelBasisSet(np.zeros((2, 3)), gamma=1.0)
        with pytest.raises(ValidationError):
            basis.weights(np.zeros((1, 2)))


class TestSampleBases:
    def test_draws_rows_from_pool(self):
        rng = np.random.default_rng(5)
        pool = rng.normal(size=(50, 4))
        bases = sample_bases(pool, 10, np.random.default_rng(9))
        assert bases.shape == (10, 4)
        pool_rows = {tuple(r) for r in pool}
        assert all(tuple(r) in pool_rows for r in bases)
        # distinct rows: drawn without replacement
        assert len({tuple(r) for r in bases}) == 10

    def test_seeded_and_deterministic(self):
        pool = np.random.default_rng(6).normal(size=(30, 2))
        a = sample_bases(pool, 8, np.random.default_rng(42))
        b = sample_bases(pool, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_pool_too_small_rejected(self):
        with pytest.raises(ValidationError):
            sample_bases(np.zeros((3, 2)), 5, np.random.default_rng(0))


class TestStateFunctions:
    def test_discrete_state_single_vector(self):
        grid = build_grid((-1, 1), 4, n_dims=1)
        np.testing.assert_array_equal(discrete_state(np.array([-0.75]), grid), [1, 0, 0, 0])

    def test_neural_state_is_softmax_of_network(self):
        rng = np.random.default_rng(7)
        net = Mlp([3, 8, 5], out_activation="softmax", dropout=0.0, rng=rng)
        state = NeuralStateFunction(net)
        X = rng.normal(size=(6, 3))
        W = state.weights_matrix(X)
        assert W.shape == (6, 5)
        np.testing.assert_allclose(W.sum(axis=1), np.ones(6), atol=1e-12)
        np.testing.assert_array_equal(W, net.forward(X))
        np.testing.assert_array_equal(neural_state(X[0], net), W[0])

    def test_neural_state_requires_softmax_head(self):
        net = Mlp([3, 8, 5], out_activation="identity")
        with pytest.raises(ConfigurationError):
            NeuralStateFunction(net)

    def test_n_states_exposed(self):
        grid = build_grid((-1, 1), 3, n_dims=2)
        basis = KernelBasisSet(np.zeros((7, 2)), gamma=1.0)
        net = Mlp([2, 4, 11], out_activation="softmax")
        assert grid.n_states == 9
        assert basis.n_states == 7
        assert NeuralStateFunction(net).n_states == 11


class TestFit:
    """The fixed state functions built from pooled training rows."""

    def test_grid_over_a_declared_range(self):
        rows = np.random.default_rng(3).uniform(-1, 1, size=(40, 2))
        for clamp in (False, True):
            state = SegmentGrid.fit(rows, 4, (-2.0, 2.0), clamp=clamp)
            assert state.clamp is clamp
            for b in state.boundaries:
                np.testing.assert_array_equal(b, np.linspace(-2.0, 2.0, 5))

    def test_grid_over_the_data_ranges_is_clamped(self):
        rows = np.column_stack([np.linspace(-3, 5, 9), np.linspace(0, 1, 9)])
        state = SegmentGrid.fit(rows, (2, 3))
        assert state.clamp
        np.testing.assert_array_equal(state.boundaries[0], [-3.0, 1.0, 5.0])
        np.testing.assert_array_equal(state.boundaries[1], np.linspace(0, 1, 4))
        assert state.weights_matrix(np.array([[9.0, -1.0]])).argmax() == 3  # cell (1, 0)

    def test_kernel_bases_are_sampled_rows(self):
        pool = np.random.default_rng(6).normal(size=(30, 2))
        state = KernelBasisSet.fit(pool, 8, 0.5, np.random.default_rng(42))
        assert state.gamma == 0.5
        np.testing.assert_array_equal(
            state.bases, sample_bases(pool, 8, np.random.default_rng(42)))


def test_benchmark_tracer_sees_the_state_kernels():
    # the benchmark tracer swaps SegmentGrid.one_hot and KernelBasisSet.weights
    # on their classes; a weights_matrix that aliased either would keep the
    # unwrapped method, and its counter would silently read 0
    data = generate(SynthConfig(seed=0, n_records=20)).dataset
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        tracer.phase = "round"
        CtrFeaturizer(kind="grid").fit_transform(data)
        CtrFeaturizer(kind="kernel", n_bases=10).fit_transform(data)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(overhead_s=0.0)
    assert metrics["states.one_hot_s"]["value"] > 0
    assert metrics["states.kernel_weights_s"]["value"] > 0

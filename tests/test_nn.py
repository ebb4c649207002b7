"""Network forward/backward, batch norm, dropout, Adam, gradient checking."""

import numpy as np
import pytest

from staytime import AdamState, ConfigurationError, Mlp, adam_step, grad_check
from staytime.nn import Workspace, log_sigmoid, relu, softmax


def mse_closure(net, X, y, mode="eval", update_stats=False):
    """Deterministic loss-and-grads closure over the current parameters."""

    def loss_and_grads():
        out, cache = net.forward(X, mode=mode, want_cache=True, update_stats=update_stats)
        pred = out[:, 0]
        loss = float(np.mean((pred - y) ** 2))
        dpred = 2.0 * (pred - y) / len(y)
        grad, _ = net.backward(dpred[:, None], cache)
        return loss, net.blocks(grad)

    return loss_and_grads


class TestForward:
    def test_plain_network_matches_inline_matmul(self):
        rng = np.random.default_rng(0)
        net = Mlp([4, 6, 3], batchnorm=False, dropout=0.0, rng=rng)
        X = rng.normal(size=(5, 4))
        expected = relu(X @ net.weights[0] + net.biases[0]) @ net.weights[1] + net.biases[1]
        np.testing.assert_allclose(net.forward(X), expected, rtol=1e-15)

    def test_fresh_batchnorm_eval_is_near_identity_affine(self):
        # running stats start at mean 0, var 1, scale 1, shift 0
        rng = np.random.default_rng(1)
        net = Mlp([4, 6, 3], batchnorm=True, dropout=0.0, rng=rng)
        X = rng.normal(size=(5, 4))
        a = X @ net.weights[0] + net.biases[0]
        expected = relu(a / np.sqrt(1 + net.bn_eps)) @ net.weights[1] + net.biases[1]
        np.testing.assert_allclose(net.forward(X), expected, rtol=1e-12)

    def test_softmax_head_rows_are_distributions(self):
        rng = np.random.default_rng(2)
        net = Mlp([3, 10, 7], out_activation="softmax", rng=rng)
        P = net.forward(rng.normal(size=(20, 3)))
        assert np.all(P >= 0)
        np.testing.assert_allclose(P.sum(axis=1), np.ones(20), atol=1e-12)

    def test_degenerate_zero_parameter_network(self):
        net = Mlp([4])
        X = np.random.default_rng(3).normal(size=(5, 4))
        np.testing.assert_array_equal(net.forward(X), X)
        assert net.params() == {}
        grad, dx = net.backward(np.ones((5, 4)), {"layers": [], "final": {"inp": X}})
        assert grad.size == 0
        np.testing.assert_array_equal(dx, np.ones((5, 4)))

    def test_input_width_checked(self):
        net = Mlp([4, 2])
        with pytest.raises(ConfigurationError):
            net.forward(np.zeros((3, 5)))

    def test_dropout_in_train_mode_requires_rng(self):
        net = Mlp([4, 6, 1], dropout=0.5)
        with pytest.raises(ConfigurationError):
            net.forward(np.zeros((3, 4)), mode="train")


class TestSoftmax:
    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 6))
        np.testing.assert_allclose(softmax(x), softmax(x + 123.456), atol=1e-12)

    def test_no_overflow_for_huge_logits(self):
        x = np.array([[1e3, -1e3, 0.0]])
        p = softmax(x)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0)

    def test_log_sigmoid_stable_and_exact_at_zero(self):
        assert log_sigmoid(0.0) == -np.log(2.0)
        assert np.isfinite(log_sigmoid(-1e4))
        assert log_sigmoid(1e4) == pytest.approx(0.0, abs=1e-300)


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        rng = np.random.default_rng(5)
        net = Mlp([4, 16, 1], batchnorm=True, dropout=0.0, rng=rng)
        X = rng.normal(loc=3.0, scale=2.5, size=(64, 4))
        _, cache = net.forward(X, mode="train", want_cache=True, update_stats=False)
        xhat = cache["layers"][0]["bn"]["xhat"]
        np.testing.assert_allclose(xhat.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(xhat.var(axis=0), 1.0, atol=1e-4)

    def test_running_stats_converge_to_batch_stats(self):
        rng = np.random.default_rng(6)
        net = Mlp([2, 8, 1], batchnorm=True, dropout=0.0, rng=rng)
        X = rng.normal(loc=-1.0, scale=0.5, size=(256, 2))
        a = X @ net.weights[0] + net.biases[0]
        for _ in range(500):
            net.forward(X, mode="train")
        np.testing.assert_allclose(net.bn_run_mean[0], a.mean(axis=0), rtol=1e-6)
        np.testing.assert_allclose(
            net.bn_run_var[0], a.var(axis=0, ddof=1), rtol=1e-6
        )

    def test_eval_mode_uses_running_stats(self):
        rng = np.random.default_rng(7)
        net = Mlp([2, 8, 1], batchnorm=True, dropout=0.0, rng=rng)
        X = rng.normal(size=(32, 2))
        net.forward(X, mode="train")
        shifted = X + 10.0
        # train-mode output is invariant to the shift (batch stats absorb it);
        # eval-mode output is not, because the running stats are fixed
        out_train, cache = net.forward(shifted, mode="train", want_cache=True,
                                       update_stats=False)
        base_train, base_cache = net.forward(X, mode="train", want_cache=True,
                                             update_stats=False)
        np.testing.assert_allclose(out_train, base_train, atol=1e-8)
        assert not np.allclose(net.forward(shifted), net.forward(X))


class TestDropout:
    def test_train_expectation_matches_eval(self):
        rng = np.random.default_rng(8)
        net = Mlp([3, 12, 1], batchnorm=False, dropout=0.5, rng=rng)
        X = rng.normal(size=(4, 3))
        eval_out = net.forward(X)
        draws = np.stack(
            [net.forward(X, mode="train", rng=rng) for _ in range(10000)]
        )
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - eval_out) <= 3 * se + 1e-12)

    def test_mask_scaling_preserves_kept_units(self):
        rng = np.random.default_rng(9)
        net = Mlp([3, 50, 1], batchnorm=False, dropout=0.5, rng=rng)
        X = rng.normal(size=(2, 3))
        _, cache = net.forward(X, mode="train", rng=rng, want_cache=True)
        mask = cache["layers"][0]["mask"]
        assert set(np.unique(mask)) <= {0.0, 2.0}

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(10)
        net = Mlp([3, 8, 2], batchnorm=False, dropout=0.0, rng=rng)
        X = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(
            net.forward(X, mode="train", update_stats=False), net.forward(X)
        )


class TestBackward:
    def test_linear_layer_gradients_to_1e6(self):
        rng = np.random.default_rng(11)
        net = Mlp([5, 1], batchnorm=False, dropout=0.0, rng=rng)
        X = rng.normal(size=(8, 5))
        y = rng.normal(size=8)
        report = grad_check(net.params(), mse_closure(net, X, y))
        assert max(report.values()) < 1e-6

    def test_two_layer_relu_batchnorm_gradients(self):
        # train-mode batch norm with a fixed batch of 8: gradients flow
        # through the batch statistics
        rng = np.random.default_rng(12)
        net = Mlp([4, 10, 1], batchnorm=True, dropout=0.0, rng=rng)
        X = rng.normal(size=(8, 4))
        y = rng.normal(size=8)
        report = grad_check(net.params(), mse_closure(net, X, y, mode="train"))
        assert max(report.values()) < 1e-3
        assert set(report) == {"w0", "b0", "w1", "b1", "bn0_scale", "bn0_shift"}

    def test_eval_mode_batchnorm_gradients(self):
        rng = np.random.default_rng(13)
        net = Mlp([4, 10, 1], batchnorm=True, dropout=0.0, rng=rng)
        # give the running stats a nontrivial history first
        net.forward(rng.normal(size=(64, 4)), mode="train")
        X = rng.normal(size=(8, 4))
        y = rng.normal(size=8)
        report = grad_check(net.params(), mse_closure(net, X, y, mode="eval"))
        assert max(report.values()) < 1e-3

    def test_softmax_head_gradients(self):
        rng = np.random.default_rng(14)
        net = Mlp([3, 8, 5], out_activation="softmax", batchnorm=True,
                  dropout=0.0, rng=rng)
        X = rng.normal(size=(6, 3))
        target = rng.uniform(0.5, 1.5, size=(6, 5))

        def loss_and_grads():
            out, cache = net.forward(X, mode="train", want_cache=True,
                                     update_stats=False)
            loss = float(np.sum((out - target) ** 2))
            grad, _ = net.backward(2.0 * (out - target), cache)
            return loss, net.blocks(grad)

        report = grad_check(net.params(), loss_and_grads)
        assert max(report.values()) < 1e-3

    def test_input_gradients(self):
        rng = np.random.default_rng(15)
        net = Mlp([4, 6, 1], batchnorm=True, dropout=0.0, rng=rng)
        X = rng.normal(size=(5, 4))
        y = rng.normal(size=5)

        out, cache = net.forward(X, mode="eval", want_cache=True)
        dpred = 2.0 * (out[:, 0] - y) / 5.0
        _, dx = net.backward(dpred[:, None], cache)

        eps = 1e-6
        for i in (0, 3):
            for j in (0, 2):
                Xp, Xm = X.copy(), X.copy()
                Xp[i, j] += eps
                Xm[i, j] -= eps
                lp = np.mean((net.forward(Xp)[:, 0] - y) ** 2)
                lm = np.mean((net.forward(Xm)[:, 0] - y) ** 2)
                assert dx[i, j] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4, abs=1e-10)


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes |update| = lr * |g| / (|g| + eps) after one step
        p = np.array([1.0, -2.0, 3.0])
        g = np.array([0.5, -0.1, 2.0])
        state = AdamState(lr=1e-3)
        before = p.copy()
        adam_step([p], g, state)
        np.testing.assert_allclose(np.abs(p - before), 1e-3, rtol=1e-6)
        np.testing.assert_array_equal(np.sign(before - p), np.sign(g))

    def test_matches_inline_reference_over_steps(self):
        rng = np.random.default_rng(16)
        p = rng.normal(size=7)
        reference = p.copy()
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        state = AdamState(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        for t in range(1, 6):
            g = rng.normal(size=7)
            adam_step([p], g.copy(), state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            reference -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            np.testing.assert_allclose(p, reference, rtol=1e-12)

    def test_updates_apply_in_place_to_network_views(self):
        rng = np.random.default_rng(17)
        net = Mlp([3, 4, 1], batchnorm=False, rng=rng)
        w_before = net.weights[0].copy()
        adam_step([net.flat_params], np.ones(net.n_params), AdamState(lr=0.5))
        assert not np.allclose(net.weights[0], w_before)

    def test_flat_step_is_bit_equal_to_per_block_steps(self):
        # the per-block update that one flat step over the concatenated
        # blocks replaced, kept here as the reference
        rng = np.random.default_rng(19)
        shapes = [(3, 4), (4,), (5, 2), (1,)]
        blocks = [rng.normal(size=s) for s in shapes]
        ref = [b.copy() for b in blocks]
        m = [np.zeros_like(b) for b in blocks]
        v = [np.zeros_like(b) for b in blocks]
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        for t in range(1, 51):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-4, 4) for s in shapes]
            adam_step(blocks, np.concatenate([g.ravel() for g in grads]), state)
            for p, g, mb, vb in zip(ref, grads, m, v):
                mb *= beta1
                mb += (1 - beta1) * g
                vb *= beta2
                vb += (1 - beta2) * g * g
                m_hat = mb / (1 - beta1 ** t)
                v_hat = vb / (1 - beta2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for p, r in zip(blocks, ref):
                np.testing.assert_array_equal(p, r)

    def test_shape_mismatch_rejected(self):
        from staytime import ContractError

        with pytest.raises(ContractError):
            adam_step([np.zeros(3)], np.zeros(4), AdamState())


class TestSnapshots:
    def test_snapshot_restore_round_trip(self):
        rng = np.random.default_rng(18)
        net = Mlp([3, 6, 1], batchnorm=True, dropout=0.0, rng=rng)
        X = rng.normal(size=(16, 3))
        snap = net.flat.copy()
        before = net.forward(X).copy()
        adam_step([net.flat_params], np.ones(net.n_params), AdamState(lr=0.1))
        net.forward(X, mode="train")
        assert not np.allclose(net.forward(X), before)
        net.flat[...] = snap
        np.testing.assert_array_equal(net.forward(X), before)


class TestWorkspace:
    @pytest.mark.parametrize("out_activation", ["identity", "softmax"])
    def test_reused_buffers_give_fresh_network_gradients(self, out_activation):
        # a full batch, the short last batch, then a full batch again through
        # one workspace, against a fresh network with fresh buffers each time
        rng = np.random.default_rng(21)
        net = Mlp([3, 16, 12, 5], out_activation=out_activation, dropout=0.5, rng=1)
        work = Workspace(net)
        for n in (64, 32, 64):
            X = rng.normal(size=(n, 3))
            dout = rng.normal(size=(n, 5))
            seed = int(rng.integers(1 << 30))
            fresh = Mlp.from_meta(net.meta())
            fresh.flat[...] = net.flat
            out, cache = net.forward(X, mode="train", rng=np.random.default_rng(seed),
                                     want_cache=True, work=work)
            grad, dx = net.backward(dout, cache)
            f_out, f_cache = fresh.forward(X, mode="train", rng=np.random.default_rng(seed),
                                           want_cache=True)
            f_grad, f_dx = fresh.backward(dout, f_cache)
            assert grad is work.grad
            np.testing.assert_array_equal(out, f_out)
            np.testing.assert_array_equal(grad, f_grad)
            np.testing.assert_array_equal(dx, f_dx)
            np.testing.assert_array_equal(net.flat, fresh.flat)  # running statistics

    def test_flat_vector_views(self):
        net = Mlp([3, 5, 4, 2], rng=2)
        names = ["w0", "b0", "w1", "b1", "w2", "b2",
                 "bn0_scale", "bn0_shift", "bn1_scale", "bn1_shift"]
        assert list(net.params()) == names
        assert list(net.state_arrays()) == names + [
            "bn0_run_mean", "bn0_run_var", "bn1_run_mean", "bn1_run_var"]
        assert net.n_params == sum(a.size for a in net.params().values())
        for arr in net.state_arrays().values():
            assert np.shares_memory(arr, net.flat)
        net.flat_params[:] = 0.0
        assert not net.weights[0].any() and net.bn_run_var[1].all()

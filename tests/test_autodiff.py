import gc
import weakref

import numpy as np
import pytest

from opscan import autodiff as ad
from opscan import optim
from opscan.autodiff import Parameter, Tensor, backward, grad_check, zero_grads
from opscan.optim import Adam, NumericalError


def param(rng, *shape, name="p", group=0):
    return Parameter(rng.normal(size=shape), name=name, layer_group=group)


class TestForwardValues:
    def test_sigmoid_tanh_relu(self):
        x = Tensor(np.array([0.0, -2.0, 3.0]))
        np.testing.assert_allclose(ad.sigmoid(x).data[0], 0.5)
        np.testing.assert_allclose(ad.tanh(x).data[0], 0.0)
        np.testing.assert_array_equal(ad.relu(x).data, [0.0, 0.0, 3.0])

    def test_sigmoid_extremes_stable(self):
        y = ad.sigmoid(Tensor(np.array([-1e4, 1e4]))).data
        assert y[0] == 0.0 and y[1] == 1.0

    def test_log_softmax_uniform(self):
        y = ad.log_softmax(Tensor(np.zeros((2, 5)))).data
        np.testing.assert_allclose(y, -np.log(5.0))

    def test_log_softmax_shift_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 7))
        a = ad.log_softmax(Tensor(x)).data
        b = ad.log_softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_cross_entropy_uniform_is_log_k(self):
        logits = Tensor(np.zeros((4, 6)))
        loss = ad.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert loss.item() == pytest.approx(np.log(6.0))

    def test_cross_entropy_ignores_rows(self):
        logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
        loss_all = ad.cross_entropy(logits, np.array([0, 0]))
        loss_ignored = ad.cross_entropy(logits, np.array([0, 99]), ignore_id=99)
        assert loss_ignored.item() < loss_all.item()
        assert loss_ignored.item() == pytest.approx(-np.log(1 / (1 + np.exp(-10.0))), rel=1e-6)

    def test_embedding_lookup_rows(self):
        m = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(m, np.array([[1, 0], [3, 3]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[0, 0], [3.0, 4.0, 5.0])

    def test_masked_pools(self):
        x = Tensor(np.arange(12.0).reshape(3, 2, 2))  # (T, B, H)
        mask = np.array([[1, 1], [1, 0], [0, 0]], dtype=float)
        mean = ad.masked_mean_over_time(x, mask)
        np.testing.assert_allclose(mean.data[0], [(0 + 4) / 2, (1 + 5) / 2])
        np.testing.assert_allclose(mean.data[1], [2.0, 3.0])
        mx = ad.masked_max_over_time(x, mask)
        np.testing.assert_allclose(mx.data[0], [4.0, 5.0])
        np.testing.assert_allclose(mx.data[1], [2.0, 3.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_pools_match_the_gathering_formulas(self, dtype):
        rng = np.random.default_rng(4)
        T_, B, H = 9, 6, 5
        lengths = np.array([9, 1, 4, 7, 2, 9])
        mask = (np.arange(T_)[:, None] < lengths[None, :]).astype(dtype)
        data = rng.normal(size=(T_, B, H)).astype(dtype)
        data[0, 2] = data[2, 2] = 50.0  # a tie for the max inside a sequence
        data[5:, 1] = 100.0  # large values past a sequence's end
        m3 = mask[:, :, None]
        idx = np.where(m3 != 0, data, -np.inf).argmax(axis=0)
        b_ix, h_ix = np.indices(idx.shape)
        x = Parameter(data.copy(), "x")
        mx = ad.masked_max_over_time(x, mask)
        assert mx.data.dtype == dtype
        np.testing.assert_array_equal(mx.data, data[idx, b_ix, h_ix])
        backward(ad.sum_all(mx))
        routed = np.zeros_like(data)
        routed[idx, b_ix, h_ix] = 1.0  # a tie goes to the earliest step only
        assert routed[0, 2].all() and not routed[2, 2].any()
        np.testing.assert_array_equal(x.grad, routed)
        mean = ad.masked_mean_over_time(Tensor(data), mask)
        assert mean.data.dtype == dtype
        np.testing.assert_array_equal(mean.data, (data * m3).sum(axis=0) / mask.sum(axis=0)[:, None])

    def test_last_over_time(self):
        x = Tensor(np.arange(12.0).reshape(3, 2, 2))
        out = ad.last_over_time(x, np.array([2, 1]))
        np.testing.assert_array_equal(out.data[0], [4.0, 5.0])
        np.testing.assert_array_equal(out.data[1], [2.0, 3.0])


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        w = Parameter(np.array([1.0, 2.0, 3.0]), "w")
        backward(ad.sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones(3))

    def test_quadratic_grad(self):
        w = Parameter(np.array([1.0, -2.0, 0.5]), "w")
        backward(ad.sum_all(ad.mul(w, w)))
        np.testing.assert_allclose(w.grad, 2 * w.data)

    def test_fanout_accumulates(self):
        x = Parameter(np.array([3.0]), "x")
        backward(ad.sum_all(ad.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_cross_entropy_grad_is_softmax_minus_onehot(self):
        logits = Parameter(np.array([[1.0, 2.0, 0.5]]), "logits")
        loss = ad.cross_entropy(logits, np.array([1]))
        backward(loss)
        p = np.exp(logits.data[0]) / np.exp(logits.data[0]).sum()
        expect = p.copy()
        expect[1] -= 1.0
        np.testing.assert_allclose(logits.grad[0], expect, atol=1e-12)

    def test_backward_twice_raises(self):
        w = Parameter(np.ones(2), "w")
        loss = ad.sum_all(w)
        backward(loss)
        with pytest.raises(ad.GradError):
            backward(loss)

    def test_backward_non_scalar_raises(self):
        w = Parameter(np.ones(2), "w")
        with pytest.raises(ad.GradError):
            backward(ad.mul(w, w))

    def test_bias_broadcast_grad(self):
        b = Parameter(np.zeros(3), "b")
        x = Tensor(np.ones((5, 3)))
        backward(ad.sum_all(ad.add(x, b)))
        np.testing.assert_array_equal(b.grad, [5.0, 5.0, 5.0])

    def test_consumed_graph_is_freed_without_the_collector(self):
        w = Parameter(np.ones((3, 2)), "w")
        gc.disable()
        try:
            hidden = ad.relu(ad.matmul(Tensor(np.ones((4, 3))), w))
            alive = weakref.ref(hidden.data)
            loss = ad.sum_all(hidden)
            del hidden
            backward(loss)
            del loss
            assert alive() is None
        finally:
            gc.enable()

    def test_grad_accumulates_across_backwards(self):
        w = Parameter(np.ones(2), "w")
        backward(ad.sum_all(w))
        backward(ad.sum_all(w))
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])
        zero_grads([w])
        assert w.grad is None


class TestErrors:
    def test_cross_entropy_all_ignored(self):
        with pytest.raises(ad.GradError):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([7, 7]), ignore_id=7)

    def test_cross_entropy_bad_target(self):
        with pytest.raises(ad.GradError):
            ad.cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))

    def test_embedding_bad_id(self):
        with pytest.raises(ad.GradError):
            ad.embedding_lookup(Tensor(np.zeros((2, 3))), np.array([2]))

    def test_masked_mean_empty_column(self):
        with pytest.raises(ad.GradError):
            ad.masked_mean_over_time(Tensor(np.zeros((2, 1, 3))), np.zeros((2, 1)))

    def test_last_over_time_bad_length(self):
        with pytest.raises(ad.GradError):
            ad.last_over_time(Tensor(np.zeros((2, 1, 3))), np.array([3]))


class TestGradCheckPrimitives:
    """Central-difference verification of every backward rule (float64)."""

    TOL = 1e-6

    def check(self, loss_fn, params):
        assert grad_check(loss_fn, params, eps=1e-5) <= self.TOL

    def test_matmul(self):
        rng = np.random.default_rng(1)
        a = param(rng, 4, 3, name="a")
        b = param(rng, 3, 5, name="b")
        c = Tensor(rng.normal(size=(4, 5)))
        self.check(lambda: ad.sum_all(ad.mul(ad.matmul(a, b), c)), [a, b])

    def test_add_broadcast(self):
        rng = np.random.default_rng(2)
        x = param(rng, 4, 3, name="x")
        b = param(rng, 3, name="b")
        c = Tensor(rng.normal(size=(4, 3)))
        self.check(lambda: ad.sum_all(ad.mul(ad.add(x, b), c)), [x, b])

    def test_mul(self):
        rng = np.random.default_rng(3)
        x = param(rng, 5, name="x")
        y = param(rng, 5, name="y")
        self.check(lambda: ad.sum_all(ad.mul(x, y)), [x, y])

    def test_sigmoid(self):
        rng = np.random.default_rng(4)
        x = param(rng, 6, name="x")
        self.check(lambda: ad.sum_all(ad.sigmoid(x)), [x])

    def test_tanh(self):
        rng = np.random.default_rng(5)
        x = param(rng, 6, name="x")
        self.check(lambda: ad.sum_all(ad.tanh(x)), [x])

    def test_relu(self):
        rng = np.random.default_rng(6)
        x = Parameter(rng.normal(size=8) + np.sign(rng.normal(size=8)) * 0.05, "x")
        self.check(lambda: ad.sum_all(ad.relu(x)), [x])

    def test_log_softmax(self):
        rng = np.random.default_rng(7)
        x = param(rng, 3, 5, name="x")
        c = Tensor(rng.normal(size=(3, 5)))
        self.check(lambda: ad.sum_all(ad.mul(ad.log_softmax(x), c)), [x])

    def test_embedding_lookup(self):
        rng = np.random.default_rng(8)
        m = param(rng, 6, 4, name="emb")
        ids = np.array([[0, 2, 2], [5, 0, 1]])
        c = Tensor(rng.normal(size=(2, 3, 4)))
        self.check(lambda: ad.sum_all(ad.mul(ad.embedding_lookup(m, ids), c)), [m])

    def test_concat(self):
        rng = np.random.default_rng(9)
        a = param(rng, 2, 3, name="a")
        b = param(rng, 2, 2, name="b")
        c = Tensor(rng.normal(size=(2, 5)))
        self.check(lambda: ad.sum_all(ad.mul(ad.concat([a, b], axis=1), c)), [a, b])

    def test_reshape_transpose(self):
        rng = np.random.default_rng(10)
        a = param(rng, 2, 6, name="a")
        c = Tensor(rng.normal(size=(4, 3)))
        self.check(
            lambda: ad.sum_all(ad.mul(ad.transpose(ad.reshape(a, (3, 4))), c)), [a]
        )

    def test_apply_mask(self):
        rng = np.random.default_rng(11)
        x = param(rng, 4, 3, name="x")
        mask = (rng.random((4, 3)) < 0.5).astype(float)
        c = Tensor(rng.normal(size=(4, 3)))
        self.check(lambda: ad.sum_all(ad.mul(ad.apply_mask(x, mask, 2.0), c)), [x])

    def test_masked_mean(self):
        rng = np.random.default_rng(12)
        x = param(rng, 5, 2, 3, name="x")
        mask = np.array([[1, 1], [1, 1], [1, 0], [0, 0], [1, 0]], dtype=float)
        c = Tensor(rng.normal(size=(2, 3)))
        self.check(lambda: ad.sum_all(ad.mul(ad.masked_mean_over_time(x, mask), c)), [x])

    def test_masked_max(self):
        rng = np.random.default_rng(13)
        x = param(rng, 5, 2, 3, name="x")
        x.data *= 5.0  # keep maxima well separated from the eps probe
        mask = np.array([[1, 1], [1, 1], [1, 0], [0, 1], [1, 0]], dtype=float)
        c = Tensor(rng.normal(size=(2, 3)))
        self.check(lambda: ad.sum_all(ad.mul(ad.masked_max_over_time(x, mask), c)), [x])

    def test_last_over_time(self):
        rng = np.random.default_rng(14)
        x = param(rng, 5, 3, 2, name="x")
        lengths = np.array([5, 1, 3])
        c = Tensor(rng.normal(size=(3, 2)))
        self.check(lambda: ad.sum_all(ad.mul(ad.last_over_time(x, lengths), c)), [x])

    def test_cross_entropy_with_ignore(self):
        rng = np.random.default_rng(15)
        logits = param(rng, 6, 4, name="logits")
        targets = np.array([0, 1, 9, 3, 2, 9])
        self.check(lambda: ad.cross_entropy(logits, targets, ignore_id=9), [logits])

    def test_two_layer_composite(self):
        rng = np.random.default_rng(16)
        w1 = param(rng, 4, 5, name="w1")
        b1 = param(rng, 5, name="b1")
        w2 = param(rng, 5, 3, name="w2")
        x = Tensor(rng.normal(size=(7, 4)))
        targets = rng.integers(0, 3, 7)

        def loss_fn():
            h = ad.relu(ad.add(ad.matmul(x, w1), b1))
            return ad.cross_entropy(ad.matmul(h, w2), targets)

        self.check(loss_fn, [w1, b1, w2])


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        w = Parameter(np.array([1.0, -1.0]), "w")
        w.grad = np.array([0.5, -0.25])
        Adam([w], weight_decay=0.0).step(0.1)
        np.testing.assert_allclose(w.data, [0.9, -0.9], atol=1e-6)

    def test_hand_computed_step(self):
        w = Parameter(np.array([1.0]), "w")
        w.grad = np.array([0.5])
        assert (optim.BETAS, optim.EPS) == ((0.9, 0.99), 1e-7)
        opt = Adam([w], weight_decay=0.0)
        opt.step(0.1)
        m_hat, v_hat = 0.5, 0.25
        expect = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-7)
        np.testing.assert_allclose(w.data, [expect], rtol=1e-12)

    def test_state_persists_two_steps(self):
        w = Parameter(np.array([0.0]), "w")
        opt = Adam([w], weight_decay=0.0)
        w.grad = np.array([1.0])
        opt.step(0.1)
        w.grad = np.array([-1.0])
        opt.step(0.1)
        # by hand: m2 = .9*.1 - .1 = -.01, mhat = -.01/(1-.81)
        # v2 = .99*.01 + .01 = .0199, vhat = .0199/(1-.9801) = 1.0
        w1 = -0.1 * 1.0 / (1.0 + 1e-7)
        m_hat = -0.01 / (1 - 0.81)
        expect = w1 - 0.1 * m_hat / (1.0 + 1e-7)
        np.testing.assert_allclose(w.data, [expect], rtol=1e-10)
        assert opt.state["w"]["t"] == 2

    def test_zero_lr_is_identity(self):
        w = Parameter(np.array([1.0]), "w")
        w.grad = np.array([123.0])
        Adam([w], weight_decay=0.0).step(0.0)
        assert w.data[0] == 1.0

    def test_frozen_param_bitwise_unchanged(self):
        rng = np.random.default_rng(0)
        w = Parameter(rng.normal(size=16), "w")
        w.frozen = True
        before = w.data.tobytes()
        opt = Adam([w], weight_decay=0.0)
        for _ in range(25):
            w.grad = rng.normal(size=16)
            opt.step(0.5)
        assert w.data.tobytes() == before
        assert "w" not in opt.state

    def test_nonfinite_grad_names_param(self):
        w = Parameter(np.array([1.0]), "badguy")
        w.grad = np.array([np.nan])
        with pytest.raises(NumericalError, match="badguy"):
            Adam([w], weight_decay=0.0).step(1e-3)

    def test_per_group_lrs(self):
        a = Parameter(np.array([1.0]), "a", layer_group=0)
        b = Parameter(np.array([1.0]), "b", layer_group=1)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        Adam([a, b], weight_decay=0.0).step(lr=[0.0, 0.1])
        assert a.data[0] == 1.0
        assert b.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_weight_decay_decoupled(self):
        w = Parameter(np.array([2.0]), "w")
        w.grad = np.array([0.0])
        opt = Adam([w], weight_decay=0.1)
        opt.step(0.5)
        # zero gradient: only the shrinkage term acts
        np.testing.assert_allclose(w.data, [2.0 - 0.5 * 0.1 * 2.0])

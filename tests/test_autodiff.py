import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscan import autodiff as ad
from opscan import kernels as K
from opscan import model as M
from opscan import optim
from opscan.autodiff import Parameter, Tensor, backward
from opscan.optim import Adam, NumericalError

import ref_step
from gradcheck import grad_check, log_softmax, mul, sigmoid, sum_all, tanh, zero_grads
from helpers import encoder


def param(rng, *shape, name="p", group=0):
    return Parameter(rng.normal(size=shape), name=name, layer_group=group)


class TestForwardValues:
    def test_sigmoid_tanh_relu(self):
        x = Tensor(np.array([0.0, -2.0, 3.0]))
        np.testing.assert_allclose(sigmoid(x).data[0], 0.5)
        np.testing.assert_allclose(tanh(x).data[0], 0.0)
        np.testing.assert_array_equal(ad.relu(x).data, [0.0, 0.0, 3.0])

    def test_sigmoid_extremes_stable(self):
        y = sigmoid(Tensor(np.array([-1e4, 1e4]))).data
        assert y[0] == 0.0 and y[1] == 1.0

    def test_log_softmax_uniform(self):
        y = log_softmax(Tensor(np.zeros((2, 5)))).data
        np.testing.assert_allclose(y, -np.log(5.0))

    def test_log_softmax_shift_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 7))
        a = log_softmax(Tensor(x)).data
        b = log_softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_cross_entropy_uniform_is_log_k(self):
        logits = Tensor(np.zeros((4, 6)))
        loss = ad.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert loss.item() == pytest.approx(np.log(6.0))

    def test_embedding_lookup_rows(self):
        m = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(m, np.array([[1, 0], [3, 3]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[0, 0], [3.0, 4.0, 5.0])

    def test_masked_pools(self):
        x = Tensor(np.arange(12.0).reshape(3, 2, 2))  # (T, B, H)
        pooled = ad.pool_over_time(x, np.array([2, 1])).data
        mx, mean = pooled[:, 2:4], pooled[:, 4:]
        np.testing.assert_allclose(mean[0], [(0 + 4) / 2, (1 + 5) / 2])
        np.testing.assert_allclose(mean[1], [2.0, 3.0])
        np.testing.assert_allclose(mx[0], [4.0, 5.0])
        np.testing.assert_allclose(mx[1], [2.0, 3.0])

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
        out = ad.pool_over_time(x, lengths)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data[:, :H], data[lengths - 1, np.arange(B)])
        np.testing.assert_array_equal(out.data[:, H : 2 * H], data[idx, b_ix, h_ix])
        np.testing.assert_array_equal(out.data[:, 2 * H :],
                                      (data * m3).sum(axis=0) / mask.sum(axis=0)[:, None])
        out.grad = np.zeros_like(out.data)
        out.grad[:, H : 2 * H] = 1.0  # the max's gradient alone
        out._backward()
        routed = np.zeros_like(data)
        routed[idx, b_ix, h_ix] = 1.0  # a tie goes to the earliest step only
        assert routed[0, 2].all() and not routed[2, 2].any()
        np.testing.assert_array_equal(x.grad, routed)
        np.testing.assert_array_equal(x.data, data)  # pooling wrote nothing into its input

    def test_last_over_time(self):
        x = Tensor(np.arange(12.0).reshape(3, 2, 2))
        out = ad.pool_over_time(x, np.array([2, 1]))
        np.testing.assert_array_equal(out.data[0, :2], [4.0, 5.0])
        np.testing.assert_array_equal(out.data[1, :2], [2.0, 3.0])


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        w = Parameter(np.array([1.0, 2.0, 3.0]), "w")
        backward(sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones(3))

    def test_quadratic_grad(self):
        w = Parameter(np.array([1.0, -2.0, 0.5]), "w")
        backward(sum_all(mul(w, w)))
        np.testing.assert_allclose(w.grad, 2 * w.data)

    def test_fanout_accumulates(self):
        x = Parameter(np.array([3.0]), "x")
        backward(sum_all(ad.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_cross_entropy_grad_is_softmax_minus_onehot(self):
        logits = Parameter(np.array([[1.0, 2.0, 0.5]]), "logits")
        loss = ad.cross_entropy(logits, np.array([1]))
        backward(loss)
        p = np.exp(logits.data[0]) / np.exp(logits.data[0]).sum()
        expect = p.copy()
        expect[1] -= 1.0
        np.testing.assert_allclose(logits.grad[0], expect, atol=1e-12)

    def test_bias_broadcast_grad(self):
        b = Parameter(np.zeros(3), "b")
        x = Tensor(np.ones((5, 3)))
        backward(sum_all(ad.add(x, b)))
        np.testing.assert_array_equal(b.grad, [5.0, 5.0, 5.0])

    def test_consumed_graph_is_freed_without_the_collector(self):
        w = Parameter(np.ones((3, 2)), "w")
        gc.disable()
        try:
            hidden = ad.relu(ad.matmul(Tensor(np.ones((4, 3))), w))
            alive = weakref.ref(hidden.data)
            loss = sum_all(hidden)
            del hidden
            backward(loss)
            # released by backward itself, while the caller still holds loss
            assert alive() is None
            assert loss._parents == () and loss._backward is None and loss.grad is None
            assert w.grad is not None
        finally:
            gc.enable()

    def test_backward_releases_every_lstm_layer_output(self, monkeypatch):
        real = K.lstm_seq_forward
        outputs = []

        def lstm_seq_forward(*args, **kwargs):
            hs, gates = real(*args, **kwargs)
            outputs.append(weakref.ref(hs))
            return hs, gates

        monkeypatch.setattr(K, "lstm_seq_forward", lstm_seq_forward)
        enc = encoder(11, emb_size=6, hidden_size=8, n_layers=2,
                      dropouts=M.Dropouts(0.1, 0.1, 0.1, 0.1, 0.0), seed=3)
        lm = M.LanguageModel(enc, vocab_hash="h", seed=4)
        ids = np.random.default_rng(5).integers(1, 11, size=(7, 3))
        gc.disable()
        try:
            loss, _ = lm.loss(ids[:-1], ids[1:], None, rng=np.random.default_rng(6))
            assert len(outputs) == 2 and all(ref() is not None for ref in outputs)
            backward(loss)
            assert [ref() for ref in outputs] == [None, None]
            assert loss._parents == ()
            assert all(p.grad is not None for p in lm.parameters())
        finally:
            gc.enable()

    def test_grad_accumulates_across_backwards(self):
        w = Parameter(np.ones(2), "w")
        backward(sum_all(w))
        backward(sum_all(w))
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])
        zero_grads([w])
        assert w.grad is None


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
        self.check(lambda: sum_all(mul(ad.matmul(a, b), c)), [a, b])

    def test_add_broadcast(self):
        rng = np.random.default_rng(2)
        x = param(rng, 4, 3, name="x")
        b = param(rng, 3, name="b")
        c = Tensor(rng.normal(size=(4, 3)))
        self.check(lambda: sum_all(mul(ad.add(x, b), c)), [x, b])

    def test_mul(self):
        rng = np.random.default_rng(3)
        x = param(rng, 5, name="x")
        y = param(rng, 5, name="y")
        self.check(lambda: sum_all(mul(x, y)), [x, y])

    def test_sigmoid(self):
        rng = np.random.default_rng(4)
        x = param(rng, 6, name="x")
        self.check(lambda: sum_all(sigmoid(x)), [x])

    def test_tanh(self):
        rng = np.random.default_rng(5)
        x = param(rng, 6, name="x")
        self.check(lambda: sum_all(tanh(x)), [x])

    def test_relu(self):
        rng = np.random.default_rng(6)
        x = Parameter(rng.normal(size=8) + np.sign(rng.normal(size=8)) * 0.05, "x")
        self.check(lambda: sum_all(ad.relu(x)), [x])

    def test_log_softmax(self):
        rng = np.random.default_rng(7)
        x = param(rng, 3, 5, name="x")
        c = Tensor(rng.normal(size=(3, 5)))
        self.check(lambda: sum_all(mul(log_softmax(x), c)), [x])

    def test_embedding_lookup(self):
        rng = np.random.default_rng(8)
        m = param(rng, 6, 4, name="emb")
        ids = np.array([[0, 2, 2], [5, 0, 1]])
        c = Tensor(rng.normal(size=(2, 3, 4)))
        self.check(lambda: sum_all(mul(ad.embedding_lookup(m, ids), c)), [m])

    def test_concat(self):
        """pool_over_time's last, max and mean side by side, each segment
        with its own upstream gradient."""
        rng = np.random.default_rng(9)
        x = param(rng, 5, 3, 2, name="x")
        x.data *= 5.0  # keep maxima well separated from the eps probe
        lengths = np.array([5, 1, 3])
        c = Tensor(rng.normal(size=(3, 6)))
        self.check(lambda: sum_all(mul(ad.pool_over_time(x, lengths), c)), [x])

    def check_pool_segment(self, x, lengths, segment, rng):
        """Grad-check one of pool_over_time's segments (0 last, 1 max, 2
        mean): the upstream weight is zero on the other two."""
        H = x.shape[2]
        c = np.zeros((x.shape[1], 3 * H))
        c[:, segment * H : (segment + 1) * H] = rng.normal(size=(x.shape[1], H))
        self.check(lambda: sum_all(mul(ad.pool_over_time(x, lengths), Tensor(c))), [x])

    def test_reshape_transpose(self):
        rng = np.random.default_rng(10)
        a = param(rng, 2, 6, name="a")
        c = Tensor(rng.normal(size=(4, 3)))
        self.check(
            lambda: sum_all(mul(ad.transpose(ad.reshape(a, (3, 4))), c)), [a]
        )

    def test_apply_mask(self):
        rng = np.random.default_rng(11)
        x = param(rng, 4, 3, name="x")
        mask = (rng.random((4, 3)) < 0.5).astype(float)
        c = Tensor(rng.normal(size=(4, 3)))
        self.check(lambda: sum_all(mul(ad.apply_mask(x, mask, 2.0), c)), [x])

    def test_masked_mean(self):
        rng = np.random.default_rng(12)
        x = param(rng, 5, 2, 3, name="x")
        self.check_pool_segment(x, np.array([5, 2]), 2, rng)

    def test_masked_max(self):
        rng = np.random.default_rng(13)
        x = param(rng, 5, 2, 3, name="x")
        x.data *= 5.0  # keep maxima well separated from the eps probe
        self.check_pool_segment(x, np.array([5, 3]), 1, rng)

    def test_last_over_time(self):
        rng = np.random.default_rng(14)
        x = param(rng, 5, 3, 2, name="x")
        self.check_pool_segment(x, np.array([5, 1, 3]), 0, rng)

    def test_cross_entropy(self):
        rng = np.random.default_rng(15)
        logits = param(rng, 6, 4, name="logits")
        targets = np.array([0, 1, 3, 3, 2, 0])
        self.check(lambda: ad.cross_entropy(logits, targets), [logits])

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


DTYPES = [np.float32, np.float64]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: -0.0 differs from 0.0 and NaN matches
    itself."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestEmbeddingGradOracle:
    """The embedding backward sums each id's rows in occurrence order, as
    np.add.at does, bit for bit."""

    IDS = {
        "repeated": lambda rng, v: rng.integers(0, v, (9, 5)),
        "skewed": lambda rng, v: np.minimum(rng.geometric(0.3, (12, 4)) - 1, v - 1),
        "unique": lambda rng, v: rng.permutation(v)[:10].reshape(5, 2),
        "single": lambda rng, v: np.array([[3]]),
        "one_id_everywhere": lambda rng, v: np.full((7, 3), 2),
        "empty": lambda rng, v: np.zeros((0, 4), dtype=np.int64),
    }

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", sorted(IDS))
    def test_matches_add_at(self, case, dtype):
        rng = np.random.default_rng(len(case))
        v, e = 11, 6
        ids = self.IDS[case](rng, v)
        m = Parameter(rng.normal(size=(v, e)).astype(dtype), "emb")
        out = ad.embedding_lookup(m, ids)
        # magnitudes over many decades make the summation order visible
        upstream = (rng.normal(size=out.shape) * 10.0 ** rng.uniform(-6, 6, out.shape)
                    ).astype(dtype)
        upstream[..., 0] = -0.0
        upstream[..., 1] = rng.choice([-0.0, 0.0, 1.0], size=upstream.shape[:-1])
        out.grad = upstream
        out._backward()
        want = ref_step.accumulate(None, m.data, ref_step.embedding_grad(m.data, ids, upstream))
        assert same_bits(m.grad, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_adds_into_a_tied_gradient(self, dtype):
        """A tied matrix already holds a gradient: rows no id names add a +0,
        which turns a -0.0 there into +0.0 as the scatter-add into zeros does."""
        rng = np.random.default_rng(5)
        m = Parameter(rng.normal(size=(6, 3)).astype(dtype), "emb")
        before = rng.normal(size=(6, 3)).astype(dtype)
        before[:, 0] = -0.0
        m.grad = before.copy()
        ids = np.array([[1, 4, 1], [4, 4, 0]])
        out = ad.embedding_lookup(m, ids)
        out.grad = rng.normal(size=out.shape).astype(dtype)
        out._backward()
        want = ref_step.accumulate(before.copy(), m.data,
                                   ref_step.embedding_grad(m.data, ids, out.grad))
        assert same_bits(m.grad, want)

    @settings(max_examples=60, deadline=None)
    @given(v=st.integers(1, 40), e=st.integers(1, 300), n=st.integers(0, 600),
           skew=st.floats(0.01, 1.0), dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16))
    def test_any_shape_matches_add_at(self, v, e, n, skew, dtype, seed):
        rng = np.random.default_rng(seed)
        ids = np.minimum(rng.geometric(skew, n) - 1, v - 1)
        m = Parameter(np.zeros((v, e), dtype=dtype), "emb")
        out = ad.embedding_lookup(m, ids)
        out.grad = (rng.normal(size=(n, e)) * 10.0 ** rng.uniform(-5, 5, (n, 1))).astype(dtype)
        out._backward()
        want = ref_step.accumulate(None, m.data, ref_step.embedding_grad(m.data, ids, out.grad))
        assert same_bits(m.grad, want)

    def test_one_column_over_many_rows(self):
        """With one column the reduce runs over the rows' own axis: it must
        still add them one after another, not pairwise."""
        rng = np.random.default_rng(8)
        m = Parameter(np.zeros((3, 1), dtype=np.float32), "emb")
        ids = rng.integers(0, 3, 5000)
        out = ad.embedding_lookup(m, ids)
        out.grad = (rng.normal(size=(5000, 1)) * 10.0 ** rng.uniform(-4, 4, (5000, 1))
                    ).astype(np.float32)
        out._backward()
        assert same_bits(m.grad, ref_step.embedding_grad(m.data, ids, out.grad) + 0)


class TestMaskedMaxGradOracle:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_add_at(self, dtype):
        rng = np.random.default_rng(3)
        x = Parameter(rng.integers(-2, 3, (6, 4, 5)).astype(dtype), "x")  # many ties
        lengths = np.array([6, 4, 6, 1])
        mask = np.arange(6)[:, None] < lengths[None, :]
        out = ad.pool_over_time(x, lengths)
        upstream = np.zeros(out.shape, dtype)
        upstream[:, 5:10] = rng.normal(size=(4, 5))  # the max's gradient alone
        upstream[0] = -0.0
        out.grad = upstream
        out._backward()
        want = ref_step.accumulate(
            None, x.data, ref_step.masked_max_grad(x.data, mask, upstream[:, 5:10]))
        assert same_bits(x.grad, want)


class TestPoolGradOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), T_=st.integers(1, 9), B=st.integers(1, 5), H=st.integers(1, 4),
           dtype=st.sampled_from(DTYPES))
    def test_matches_the_three_routings_in_order(self, data, T_, B, H, dtype):
        """pool_over_time's backward equals last's, max's and mean's
        gradients, each from its own formula, added in that order: lengths
        of 1 and of T, ties for the max, and -0.0 upstream included."""
        lengths = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([1, T_]), st.integers(1, T_)), min_size=B, max_size=B)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        x = Parameter(rng.integers(-2, 3, (T_, B, H)).astype(dtype), "x")  # many ties
        upstream = rng.normal(size=(B, 3 * H)).astype(dtype)
        upstream[rng.random((B, 3 * H)) < 0.3] = -0.0
        out = ad.pool_over_time(x, lengths)
        out.grad = upstream
        out._backward()
        assert same_bits(x.grad, ref_step.pool_grad(x.data, lengths, upstream))


class TestAccumulateOracle:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_first_gradient_is_a_fresh_zero_plus_g(self, dtype):
        t = Parameter(np.ones((2, 3), dtype=dtype), "t")
        g = np.array([[-0.0, 1.5, -2.0], [0.0, -0.0, 3.25]], dtype=dtype)
        t.accumulate(g)
        assert same_bits(t.grad, ref_step.accumulate(None, t.data, g))
        assert not np.signbit(t.grad[0, 0])
        assert not np.shares_memory(t.grad, g)
        g[0, 1] = 99.0
        assert t.grad[0, 1] == 1.5

    def test_broadcasts_and_casts_like_the_zeroed_sum(self):
        t = Tensor(np.ones((4, 3), dtype=np.float32))
        t.requires_grad = True
        row = np.array([1e-9, -0.0, 1.0 / 3.0])  # float64, broadcast over 4 rows
        t.accumulate(row)
        want = ref_step.accumulate(None, t.data, row)
        assert t.grad.dtype == np.float32 and same_bits(t.grad, want)
        t.accumulate(row)
        assert same_bits(t.grad, ref_step.accumulate(want, t.data, row))

    def test_a_shape_that_cannot_broadcast_is_refused(self):
        t = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            t.accumulate(np.ones((3, 3)))


class TestAdamOracle:
    """Adam.step updates in place and through shared scratch, with the
    products and sums of the allocate-per-step formula, bit for bit."""

    @staticmethod
    def _params(dtype, rng):
        shapes = [("emb", (7, 4), 0), ("w", (4, 5), 1), ("b", (5,), 1), ("head", (5, 3), 2),
                  ("frozen", (3, 3), 2)]
        return [Parameter(rng.normal(size=shape).astype(dtype), name, group)
                for name, shape, group in shapes]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_the_allocating_formula(self, dtype, weight_decay):
        rng = np.random.default_rng(17)
        params = self._params(dtype, rng)
        params[-1].frozen = True
        ref = [Parameter(p.data.copy(), p.name, p.layer_group) for p in params]
        ref[-1].frozen = True
        opt, ref_opt = Adam(params, weight_decay=weight_decay), ref_step.Adam(weight_decay)
        steps = [(0.01, None), ([0.001, 0.003, 0.01], 0.87), (0.02, 0.95), ([0.0, 1e-3, 0.5], None)]
        for lr, beta1 in steps:
            for p, r in zip(params, ref):
                g = (rng.normal(size=p.shape) * 10.0 ** rng.uniform(-3, 3)).astype(dtype)
                g.flat[0] = -0.0
                p.grad, r.grad = g, g.copy()
            opt.step(lr, beta1=beta1)
            ref_opt.step(ref, lr, beta1=beta1)
            for p, r in zip(params, ref):
                assert same_bits(p.data, r.data), p.name
                assert same_bits(p.grad, r.grad), p.name  # the scratch is not the gradient
        assert opt.state.keys() == ref_opt.state.keys() == {"emb", "w", "b", "head"}
        for name, st in opt.state.items():
            want = ref_opt.state[name]
            assert st["t"] == want["t"] == len(steps)
            assert same_bits(st["m"], want["m"]) and same_bits(st["v"], want["v"])

    def test_a_later_step_allocates_no_state(self):
        rng = np.random.default_rng(3)
        params = [Parameter(rng.normal(size=shape), name) for name, shape in
                  (("big", (200, 500)), ("w", (30, 40)), ("b", (40,)))]
        opt = Adam(params, weight_decay=0.01)
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt.step(0.01)
        largest = max(p.data.nbytes for p in params)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            opt.step(0.01, beta1=0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < largest
        assert all(opt.state[p.name]["t"] == 2 for p in params)

    def test_a_parameter_without_a_gradient_is_skipped(self):
        a, b = Parameter(np.ones(3), "a"), Parameter(np.ones(8), "b")
        a.grad = np.full(3, 0.5)
        opt = Adam([a, b], weight_decay=0.1)
        opt.step(0.1)
        assert set(opt.state) == {"a"}
        assert b.data.tolist() == [1.0] * 8 and a.data[0] < 1.0


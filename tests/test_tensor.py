"""Autodiff core: op semantics, broadcasting, tape behavior, error paths."""

import itertools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import hcl.tensor
from hcl.encoder import ConvEncoder, EncoderConfig
from hcl.tensor import (
    NonFiniteError,
    Parameter,
    ShapeMismatchError,
    Tensor,
    add,
    avg_pool2d,
    concat,
    conv2d,
    exp,
    l2_normalize,
    matmul,
    mean,
    multiply,
    no_tape,
    relu,
    reshape,
    scalar_multiply,
    softmax_cross_entropy,
    sum_,
    transpose,
)


def _conv2d_reference(x, w, b, stride, padding, g):
    """Row-major im2col conv2d as first written: (out, gx, gw, gb) for upstream g."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    s, p = stride, padding
    ho = (h + 2 * p - kh) // s + 1
    wo = (wd + 2 * p - kw) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)
    wmat = w.reshape(f, -1)
    out = cols @ wmat.T
    if b is not None:
        out = out + b
    out = np.ascontiguousarray(out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2))

    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
    gw = (gmat.T @ cols).reshape(w.shape)
    gb = None if b is None else gmat.sum(axis=0)
    gcols = gmat @ wmat
    gwin = gcols.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    gxp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + s * ho : s, j : j + s * wo : s] += gwin[:, :, :, :, i, j]
    gx = gxp[:, :, p : p + h, p : p + wd] if p else gxp
    return out, gx, gw, gb


def _avg_pool2d_reference(x, k=2):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


def _conv2d_with_grads(x, w, b, stride, padding, g):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = conv2d(xt, wt, bt, stride=stride, padding=padding)
    sum_(multiply(out, Tensor(g))).backward()
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


def _assert_conv2d_matches_reference(x, w, b, stride, padding, g):
    got = _conv2d_with_grads(x, w, b, stride, padding, g)
    want = _conv2d_reference(x, w, b, stride, padding, g)
    for name, a, e in zip(("out", "gx", "gw", "gb"), got, want):
        if e is None:
            assert a is None
        else:
            assert a.shape == e.shape, name
            assert np.array_equal(a, e), name


class TestTensorBasics:
    def test_data_is_float64_and_contiguous(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_scalar_stays_zero_dim(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert float(t.data) == 3.5

    def test_detach_shares_data_blocks_grad(self):
        t = Tensor([[1.0, 2.0]], requires_grad=True)
        d = t.detach()
        assert d.data is t.data
        assert not d.requires_grad
        assert d._parents == ()

    def test_parameter_has_name_and_grad_buffer(self):
        p = Parameter(np.ones((2, 2)), "layer.w")
        assert p.name == "layer.w"
        assert p.requires_grad
        assert p.grad is not None
        assert np.array_equal(p.grad, np.zeros((2, 2)))

    def test_non_finite_input_rejected(self):
        bad = Tensor([np.inf, 1.0])
        with pytest.raises(NonFiniteError):
            relu(bad)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_output_rejected(self):
        big = Tensor([[800.0]])
        with pytest.raises(NonFiniteError):
            exp(big)


class TestForwardValues:
    def test_add_broadcasts_rows(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.array([10.0, 20.0, 30.0]))
        out = add(a, b)
        assert np.array_equal(out.data, a.data + b.data)

    def test_matmul_requires_2d(self):
        with pytest.raises(ShapeMismatchError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_relu_clamps_negatives(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_mean_and_sum(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert float(mean(x).data) == 2.5
        s = sum_(x, axis=0)
        assert np.array_equal(s.data, [3.0, 5.0, 7.0])
        sk = sum_(x, axis=1, keepdims=True)
        assert sk.shape == (2, 1)

    def test_concat_feature_axis(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((2, 2)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        assert np.array_equal(out.data[:, :3], np.ones((2, 3)))
        assert np.array_equal(out.data[:, 3:], np.zeros((2, 2)))

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

    def test_l2_normalize_unit_rows(self):
        x = Tensor([[3.0, 4.0], [0.0, 2.0]])
        out = l2_normalize(x)
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0)
        assert np.allclose(out.data[0], [0.6, 0.8])

    def test_l2_normalize_zero_vector_errors(self):
        with pytest.raises(ValueError, match="zero vector"):
            l2_normalize(Tensor([[0.0, 0.0]]))

    def test_transpose_and_reshape(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(transpose(x).data, x.data.T)
        assert reshape(x, (3, 2)).shape == (3, 2)

    def test_softmax_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 7)))
        loss = softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert float(loss.data) == pytest.approx(np.log(7.0), abs=1e-12)

    def test_softmax_cross_entropy_label_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestConvPool:
    def test_conv2d_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1)
        assert np.allclose(out.data, x)

    def test_conv2d_matches_manual_sum(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.ones((1, 1, 2, 2))
        out = conv2d(Tensor(x), Tensor(w), None, stride=2, padding=0)
        expect = np.array([[[[0 + 1 + 4 + 5, 2 + 3 + 6 + 7],
                             [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]]]], dtype=float)
        assert np.array_equal(out.data, expect)

    def test_conv2d_bias_shape_checked(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Tensor(np.ones((2, 1, 3, 3)))
        with pytest.raises(ShapeMismatchError):
            conv2d(x, w, Tensor(np.ones(3)), stride=1, padding=1)

    def test_avg_pool_halves_spatial(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avg_pool_requires_divisible(self):
        with pytest.raises(ShapeMismatchError):
            avg_pool2d(Tensor(np.ones((1, 1, 5, 5))), 2)

    def test_avg_pool_window_pinned_to_two(self):
        with pytest.raises(ValueError, match="k = 2"):
            avg_pool2d(Tensor(np.ones((1, 1, 6, 6))), 3)


def _nonzero_ints(rng, shape):
    """Small nonzero integers: every conv sum is exact whatever the BLAS order."""
    return rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=shape)


class TestConvPoolOracle:
    """The conv and pool kernels against the formulations they replaced."""

    @pytest.mark.parametrize(
        "n,c,k,stride,padding,f",
        [(n, c, k, s, p, f) for n, c, k, s, p in itertools.product(
            (1, 5), (1, 3, 16), (1, 3), (1, 2), (0, 1)) for f in (1, 4)],
    )
    def test_conv2d_index_mapping_exact(self, n, c, k, stride, padding, f):
        rng = np.random.default_rng(n * 1000 + c * 100 + k * 10 + stride + padding)
        h, wd = 7, 10
        ho = (h + 2 * padding - k) // stride + 1
        wo = (wd + 2 * padding - k) // stride + 1
        x = _nonzero_ints(rng, (n, c, h, wd))
        w = _nonzero_ints(rng, (f, c, k, k))
        g = _nonzero_ints(rng, (n, f, ho, wo))
        _assert_conv2d_matches_reference(x, w, _nonzero_ints(rng, f), stride, padding, g)
        _assert_conv2d_matches_reference(x, w, None, stride, padding, g)

    @pytest.mark.parametrize(
        "n,c,side,f",
        [(64, 3, 32, 16), (64, 16, 16, 32), (64, 32, 8, 64),  # desk encoder layers
         (32, 3, 16, 8), (32, 8, 8, 16)],  # quickstart encoder layers
    )
    def test_conv2d_bitwise_at_encoder_shapes(self, n, c, side, f):
        """Random floats, byte-for-byte, at the shapes the encoder runs.

        The channel-major GEMMs swap operand roles relative to the reference.
        At these sizes OpenBLAS runs its blocked kernels, which sum each
        element in the same order either way; tiny GEMMs may go to
        size-specific kernels that round differently in the last bit.
        """
        rng = np.random.default_rng(side * f)
        x = rng.normal(size=(n, c, side, side))
        w = rng.normal(size=(f, c, 3, 3))
        g = rng.normal(size=(n, f, side, side))
        _assert_conv2d_matches_reference(x, w, rng.normal(size=f), 1, 1, g)

    @pytest.mark.parametrize("shape", [(1, 1, 2, 4), (5, 3, 4, 6), (64, 16, 32, 32), (3, 64, 8, 4)])
    def test_avg_pool_matches_mean_bitwise(self, shape):
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        assert np.array_equal(avg_pool2d(Tensor(x), 2).data, _avg_pool2d_reference(x))

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (3, 64, 8, 2)])
    def test_avg_pool_pairs_rows_at_width_two(self, shape):
        """At width 2 numpy's `mean` sums each window left to right instead;
        the op keeps its one pairing there too."""
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        paired = ((x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]) + (x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2])) / 4
        assert np.array_equal(avg_pool2d(Tensor(x), 2).data, paired)


class TestFiniteness:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_mid_graph_overflow_named_by_producing_op(self):
        with pytest.raises(NonFiniteError, match=r"^exp: non-finite values in output$"):
            relu(exp(Tensor([[800.0]])))

    @pytest.mark.parametrize("bad", ["x", "w", "b"])
    def test_conv2d_rejects_non_finite_leaf(self, bad):
        args = {"x": np.ones((1, 2, 4, 4)), "w": np.ones((3, 2, 3, 3)), "b": np.ones(3)}
        args[bad].flat[1] = np.nan
        with pytest.raises(NonFiniteError, match=r"^conv2d: non-finite values in input$"):
            conv2d(Tensor(args["x"]), Parameter(args["w"]), Parameter(args["b"]), padding=1)


class TestBackward:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            y.backward()

    def test_backward_requires_nonempty_tape(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(ValueError, match="tape"):
            x.backward()

    def test_simple_chain_gradient(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = mean(multiply(x, x))
        loss.backward()
        assert np.allclose(x.grad, 2.0 * x.data / 3.0)

    def test_add_broadcast_gradient_sums(self):
        b = Tensor(np.zeros(3), requires_grad=True)
        a = Tensor(np.ones((4, 3)))
        loss = mean(add(a, b))
        loss.backward()
        assert np.allclose(b.grad, np.full(3, 4.0 / 12.0))

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        for _ in range(2):
            loss = mean(multiply(x, x))
            loss.backward()
        assert np.allclose(x.grad, 2 * 2.0 * 2.0)

    def test_shared_node_counted_once_per_path(self):
        x = Tensor([3.0], requires_grad=True)
        y = multiply(x, x)
        loss = mean(add(y, y))
        loss.backward()
        assert np.allclose(x.grad, 2 * 2 * 3.0)

    def test_detach_cuts_gradient_flow(self):
        x = Tensor([5.0], requires_grad=True)
        y = multiply(x, x)
        loss = mean(multiply(y.detach(), x))
        loss.backward()
        assert np.allclose(x.grad, y.data)

    def test_gradients_bitwise_reproducible(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(6, 5))
        w_data = rng.normal(size=(5, 4))
        grads = []
        for _ in range(2):
            w = Tensor(w_data.copy(), requires_grad=True)
            loss = mean(relu(matmul(Tensor(data.copy()), w)))
            loss.backward()
            grads.append(w.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_scalar_multiply_exact_zero(self):
        x = Tensor([1.5, -2.5], requires_grad=True)
        out = scalar_multiply(x, 0.0)
        assert np.array_equal(out.data, [0.0, 0.0])
        loss = mean(out)
        loss.backward()
        assert np.array_equal(x.grad, [0.0, 0.0])


def _small_encoder(seed=0):
    cfg = EncoderConfig(channels=(4, 8), hidden_dim=16, feature_dim=8)
    return ConvEncoder(cfg, 8, np.random.default_rng(seed))


def _records_tape() -> bool:
    x = Tensor([1.0], requires_grad=True)
    return bool(add(x, x)._parents)


class TestNoTape:
    def test_encoder_forward_matches_taped(self):
        enc = _small_encoder()
        x = Tensor(np.random.default_rng(1).random((5, 3, 8, 8)))
        taped = l2_normalize(enc.forward(x))
        with no_tape():
            free = l2_normalize(enc.forward(x))
        assert np.array_equal(free.data, taped.data)
        assert taped._parents and taped.requires_grad
        assert free._parents == () and free._backward is None and not free.requires_grad

    def test_mode_restored_after_nesting(self):
        assert _records_tape()
        with no_tape():
            with no_tape():
                assert not _records_tape()
            assert not _records_tape()
        assert _records_tape()

    def test_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with no_tape():
                raise RuntimeError("boom")
        assert _records_tape()

    def test_backward_on_no_tape_output_raises(self):
        w = Parameter(np.array([1.0, 2.0]), name="w")
        with no_tape():
            loss = mean(multiply(w, w))
        with pytest.raises(ValueError, match="empty tape"):
            loss.backward()
        assert not w.grad.any()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_nan_named_by_producing_op(self, monkeypatch):
        # finite input; the pooled window sums to inf + (-inf) = NaN
        x = Tensor([1e308, 1e308, -1e308, -1e308])
        seen = []
        check = hcl.tensor._check_finite

        def recording(arr, kind, role):
            seen.append((kind, bool(np.isnan(arr).any())))
            check(arr, kind, role)

        monkeypatch.setattr(hcl.tensor, "_check_finite", recording)
        with no_tape():
            with pytest.raises(NonFiniteError, match=r"^avg_pool2d: non-finite values in output$"):
                relu(avg_pool2d(reshape(x, (1, 1, 2, 2))))
        assert seen[-1] == ("avg_pool2d", True)

    @pytest.mark.parametrize("taped", [True, False])
    def test_each_array_checked_once(self, monkeypatch, taped):
        enc = _small_encoder()
        x = Tensor(np.random.default_rng(3).random((2, 3, 8, 8)))
        seen = []
        check = hcl.tensor._check_finite

        def counting(arr, kind, role):
            seen.append((arr, role))
            check(arr, kind, role)

        monkeypatch.setattr(hcl.tensor, "_check_finite", counting)
        if taped:
            out = l2_normalize(enc.forward(x))
        else:
            with no_tape():
                out = l2_normalize(enc.forward(x))
        # 3 ops per conv layer, then reshape, 2 x (matmul, add), relu, l2_normalize
        n_ops = 3 * len(enc.convs) + 7
        outputs = [a for a, role in seen if role == "output"]
        inputs = [a for a, role in seen if role == "input"]
        assert len(outputs) == n_ops and outputs[-1] is out.data
        assert len(inputs) == 1 + len(enc.parameters())
        assert len({id(a) for a, _ in seen}) == len(seen)

"""Autodiff core: op semantics, broadcasting, tape behavior, error paths."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
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
    conv_relu_pool,
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


def _conv2d_reference(x, w, b, padding, g):
    """Row-major im2col conv2d as first written: (out, gx, gw, gb) for upstream g."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    p = padding
    ho = h + 2 * p - kh + 1
    wo = wd + 2 * p - kw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
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
            gxp[:, :, i : i + ho, j : j + wo] += gwin[:, :, :, :, i, j]
    gx = gxp[:, :, p : p + h, p : p + wd] if p else gxp
    return out, gx, gw, gb


def _avg_pool2d_reference(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def _conv2d_with_grads(x, w, b, padding, g):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = conv2d(xt, wt, bt, padding=padding)
    sum_(multiply(out, Tensor(g))).backward()
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


def _assert_conv2d_matches_reference(x, w, b, padding, g):
    got = _conv2d_with_grads(x, w, b, padding, g)
    want = _conv2d_reference(x, w, b, padding, g)
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
        out = conv2d(Tensor(x), Tensor(w), None, padding=1)
        assert np.allclose(out.data, x)

    def test_conv2d_matches_manual_sum(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.ones((1, 1, 2, 2))
        out = conv2d(Tensor(x), Tensor(w), None)
        expect = np.array([[[[x[0, 0, i:i + 2, j:j + 2].sum() for j in range(3)]
                             for i in range(3)]]])
        assert expect[0, 0, 0, 0] == 0 + 1 + 4 + 5
        assert np.array_equal(out.data, expect)

    def test_conv2d_bias_shape_checked(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Tensor(np.ones((2, 1, 3, 3)))
        with pytest.raises(ShapeMismatchError):
            conv2d(x, w, Tensor(np.ones(3)), padding=1)

    def test_avg_pool_halves_spatial(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avg_pool_requires_divisible(self):
        with pytest.raises(ShapeMismatchError):
            avg_pool2d(Tensor(np.ones((1, 1, 5, 5))))


def _nonzero_ints(rng, shape):
    """Small nonzero integers: every conv sum is exact whatever the BLAS order."""
    return rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=shape)


class TestConvPoolOracle:
    """The conv and pool kernels against the formulations they replaced."""

    @pytest.mark.parametrize(
        "n,c,k,padding,f",
        [(n, c, k, p, f) for n, c, k, p in itertools.product(
            (1, 5), (1, 3, 16), (1, 2, 3), (0, 1, 2)) for f in (1, 4)],
    )
    def test_conv2d_index_mapping_exact(self, n, c, k, padding, f):
        """Odd and even windows, and padding up to twice the encoder's one."""
        rng = np.random.default_rng(n * 1000 + c * 100 + k * 10 + 1 + padding)
        h, wd = 7, 10
        ho = h + 2 * padding - k + 1
        wo = wd + 2 * padding - k + 1
        x = _nonzero_ints(rng, (n, c, h, wd))
        w = _nonzero_ints(rng, (f, c, k, k))
        g = _nonzero_ints(rng, (n, f, ho, wo))
        _assert_conv2d_matches_reference(x, w, _nonzero_ints(rng, f), padding, g)
        _assert_conv2d_matches_reference(x, w, None, padding, g)

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
        _assert_conv2d_matches_reference(x, w, rng.normal(size=f), 1, g)

    @pytest.mark.parametrize("shape", [(1, 1, 2, 4), (5, 3, 4, 6), (64, 16, 32, 32), (3, 64, 8, 4)])
    def test_avg_pool_matches_mean_bitwise(self, shape):
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        assert np.array_equal(avg_pool2d(Tensor(x)).data, _avg_pool2d_reference(x))

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (3, 64, 8, 2)])
    def test_avg_pool_pairs_rows_at_width_two(self, shape):
        """At width 2 numpy's `mean` sums each window left to right instead;
        the op keeps its one pairing there too."""
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        paired = ((x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]) + (x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2])) / 4
        assert np.array_equal(avg_pool2d(Tensor(x)).data, paired)


def _stage_with_grads(fused, x, w, b, padding, g):
    """(out, gx, gw, gb) of one encoder stage, as `conv_relu_pool` or as
    the three-op composition, for upstream gradient g."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    if fused:
        out = conv_relu_pool(xt, wt, bt, padding=padding)
    else:
        out = avg_pool2d(relu(conv2d(xt, wt, bt, padding=padding)))
    sum_(multiply(out, Tensor(g))).backward()
    return out.data, xt.grad, wt.grad, bt.grad


def _stage_without_tape(fused, x, w, b, padding):
    with no_tape():
        if fused:
            return conv_relu_pool(Tensor(x), Tensor(w), Tensor(b), padding=padding).data
        return avg_pool2d(relu(conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding))).data


def _assert_stage_matches_composition(x, w, b, padding, g):
    got = _stage_with_grads(True, x, w, b, padding, g)
    want = _stage_with_grads(False, x, w, b, padding, g)
    for name, a, e in zip(("out", "gx", "gw", "gb"), got, want):
        assert a.shape == e.shape, name
        assert np.array_equal(a, e), name
    free = _stage_without_tape(True, x, w, b, padding)
    assert np.array_equal(free, _stage_without_tape(False, x, w, b, padding))
    assert np.array_equal(free, got[0])


class TestConvReluPoolOracle:
    """The fused encoder stage against `avg_pool2d(relu(conv2d(...)))`."""

    @pytest.mark.parametrize(
        "n,c,side,f",
        [(64, 3, 32, 16), (64, 16, 16, 32), (64, 32, 8, 64),  # desk encoder layers
         (32, 3, 16, 8), (32, 8, 8, 16)],  # quickstart encoder layers
    )
    def test_bitwise_at_encoder_shapes(self, n, c, side, f):
        rng = np.random.default_rng(side * f + 7)
        x = rng.normal(size=(n, c, side, side))
        w = rng.normal(size=(f, c, 3, 3))
        g = rng.normal(size=(n, f, side // 2, side // 2))
        _assert_stage_matches_composition(x, w, rng.normal(size=f), 1, g)

    @pytest.mark.parametrize(
        "k,padding,n,c,f",
        [(k, p, n, c, f) for k, p in itertools.product((1, 2, 3), (0, 1, 2))
         for n, c, f in ((1, 1, 1), (3, 5, 4))],
    )
    def test_index_mapping_exact(self, k, padding, n, c, f):
        """Odd and even windows, padding up to twice the encoder's one, and
        input extents chosen so both conv output extents are even."""
        rng = np.random.default_rng(k * 100 + padding * 10 + n)
        h, wd = 6 + (k + 1) % 2, 10 + (k + 1) % 2
        ho, wo = h + 2 * padding - k + 1, wd + 2 * padding - k + 1
        assert ho % 2 == 0 and wo % 2 == 0
        x = _nonzero_ints(rng, (n, c, h, wd))
        w = _nonzero_ints(rng, (f, c, k, k))
        g = _nonzero_ints(rng, (n, f, ho // 2, wo // 2))
        _assert_stage_matches_composition(x, w, _nonzero_ints(rng, f), padding, g)

    @pytest.mark.parametrize("shape,padding", [((1, 2, 5, 4), 1), ((1, 2, 4, 5), 1),
                                               ((1, 2, 1, 1), 0), ((2, 4, 4), 1)])
    def test_odd_empty_or_non_4d_rejected(self, shape, padding):
        x, w, b = Tensor(np.ones(shape)), Tensor(np.ones((3, 2, 3, 3))), Tensor(np.ones(3))
        with pytest.raises(ShapeMismatchError, match=r"^conv_relu_pool: "):
            conv_relu_pool(x, w, b, padding=padding)

    def test_bias_shape_checked(self):
        x, w = Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 2, 3, 3)))
        with pytest.raises(ShapeMismatchError, match=r"^conv_relu_pool bias: "):
            conv_relu_pool(x, w, Tensor(np.ones(2)), padding=1)


def _stage_or_shape_error(fused, x, w, b, padding):
    try:
        return _stage_without_tape(fused, x, w, b, padding)
    except ShapeMismatchError:
        return None


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), c_w=st.integers(1, 3), f=st.integers(1, 3),
       extra_bias=st.booleans(), h=st.integers(1, 9), wd=st.integers(1, 9),
       k=st.integers(1, 4), padding=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_conv_relu_pool_shape_rule(n, c, c_w, f, extra_bias, h, wd, k, padding, seed):
    """Either the fused stage returns (n, f, ho/2, wo/2), equal to the
    composition, or both raise ShapeMismatchError; never a bare numpy error."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, wd))
    w = rng.normal(size=(f, c_w, k, k))
    b = rng.normal(size=f + extra_bias)
    fused = _stage_or_shape_error(True, x, w, b, padding)
    composed = _stage_or_shape_error(False, x, w, b, padding)
    if composed is None:
        assert fused is None
    else:
        ho, wo = h + 2 * padding - k + 1, wd + 2 * padding - k + 1
        assert fused.shape == (n, f, ho // 2, wo // 2)
        assert np.array_equal(fused, composed)


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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_conv_relu_pool_checks_only_what_survives_relu(self):
        """A pre-activation is not an op output: +inf reaches the pooled
        output and is reported there, -inf becomes 0 and is not."""
        x = Tensor(np.full((1, 1, 2, 2), 1e308))
        with pytest.raises(NonFiniteError, match=r"^conv_relu_pool: non-finite values in output$"):
            conv_relu_pool(x, Tensor(np.full((1, 1, 1, 1), 10.0)), Tensor(np.zeros(1)), padding=0)
        out = conv_relu_pool(x, Tensor(np.full((1, 1, 1, 1), -10.0)), Tensor(np.zeros(1)), padding=0)
        assert np.array_equal(out.data, np.zeros((1, 1, 1, 1)))

    def test_make_rejects_non_finite_leaf_parent(self):
        # an op built from `_make` alone, with a finite output: only the
        # gate itself can reject the NaN parent
        w = Parameter(np.array([np.nan, 1.0]), name="w")
        with pytest.raises(NonFiniteError, match=r"^gate: non-finite values in input$"):
            hcl.tensor._make(np.zeros(2), (w,), lambda g: None, "gate")


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

    def test_leaf_over_op_output_cuts_gradient_flow(self):
        """The stop-gradient idiom: a leaf on an op output's array shares it
        and passes no gradient back through that op."""
        x = Tensor([5.0], requires_grad=True)
        y = multiply(x, x)
        stop = Tensor(y.data)
        assert stop.data is y.data and not stop.requires_grad
        loss = mean(multiply(stop, x))
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

    def test_first_gradient_adds_to_positive_zero(self):
        # a fresh gradient is 0.0 + g, so a -0.0 contribution lands as +0.0
        x = Tensor([1.5], requires_grad=True)
        sum_(scalar_multiply(x, -0.0)).backward()
        assert x.grad[0] == 0.0 and not np.signbit(x.grad[0])

    def test_second_backward_on_same_loss_raises(self):
        x = Tensor([3.0], requires_grad=True)
        loss = mean(multiply(x, x))
        loss.backward()
        with pytest.raises(ValueError, match="tape already consumed"):
            loss.backward()
        assert np.array_equal(x.grad, [6.0])

    def test_backward_through_consumed_intermediate_raises(self):
        x = Tensor([3.0], requires_grad=True)
        y = multiply(x, x)
        mean(y).backward()
        loss = mean(add(y, y))
        with pytest.raises(ValueError, match="tape already consumed"):
            loss.backward()
        assert np.array_equal(x.grad, [6.0])
        assert np.array_equal(y.grad, [1.0])
        with no_tape():
            free = mean(multiply(x, x))
        with pytest.raises(ValueError, match="empty tape"):
            free.backward()


def _default_encoder_step(hold_features: bool):
    """Traced bytes of one default-encoder forward + backward at batch 16.

    Returns (features or None, loss, {"forward", "peak", "after"}), each
    figure in bytes above the live size before the forward.
    """
    enc = ConvEncoder(EncoderConfig(), 32, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).random((16, 3, 32, 32)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        features = enc.forward(x)
        loss = mean(features)
        if not hold_features:
            features = None
        forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return features, loss, {"forward": forward - base, "peak": peak - base, "after": after - base}


class TestTapeRelease:
    MB = 1e6

    def test_backward_frees_the_tape_while_loss_is_held(self):
        _, loss, mem = _default_encoder_step(hold_features=False)
        assert mem["forward"] > 10 * self.MB  # the tape really was built
        assert mem["after"] < 1 * self.MB
        assert loss._parents == () and loss._backward is None

    def test_backward_peak_stays_near_end_of_forward(self):
        _, _, mem = _default_encoder_step(hold_features=False)
        assert mem["peak"] - mem["forward"] <= 5 * self.MB

    def test_held_intermediate_keeps_its_gradient(self):
        features, _, _ = _default_encoder_step(hold_features=True)
        assert features._parents == () and features._backward is None
        assert np.array_equal(features.grad, np.full(features.shape, 1.0 / features.size))

    def test_conv2d_frees_cols_before_col2im(self):
        # colsT (72 rows) dwarfs x (8 channels) and the output (1 filter);
        # if it lived through backward, it and its gradient twin would
        # coexist and the peak would rise by about its size.
        rng = np.random.default_rng(2)
        x = Tensor(rng.random((4, 8, 32, 32)), requires_grad=True)
        w = Parameter(rng.random((1, 8, 3, 3)))
        cols_bytes = 8 * 9 * 4 * 32 * 32 * 8
        tracemalloc.start()
        try:
            loss = sum_(conv2d(x, w, padding=1))
            forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - forward < cols_bytes / 2

    @staticmethod
    def _stage(seed, n, c, f):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.random((n, c, 32, 32)), requires_grad=True),
                Parameter(rng.random((f, c, 3, 3))), Parameter(np.zeros(f)))

    def test_conv_relu_pool_frees_cols_before_col2im(self):
        # as for conv2d: colsT (72 rows) dwarfs x (8 channels) and the
        # conv output (1 filter), so keeping it through backward would
        # raise the peak by about its size
        x, w, b = self._stage(2, 4, 8, 1)
        cols_bytes = 8 * 9 * 4 * 32 * 32 * 8
        tracemalloc.start()
        try:
            loss = sum_(conv_relu_pool(x, w, b, padding=1))
            forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - forward < cols_bytes / 2

    def test_conv_relu_pool_keeps_cols_mask_and_output_only(self):
        # 16 filters over 2 channels: the conv output (and the relu output,
        # its size) is nearly as large as colsT and 4x the pooled output,
        # so keeping either one exceeds the slack
        x, w, b = self._stage(3, 4, 2, 16)
        m = 4 * 32 * 32
        cols_bytes, conv_bytes = 2 * 9 * m * 8, 16 * m * 8
        mask_bytes, out_bytes = 16 * m, conv_bytes // 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv_relu_pool(x, w, b, padding=1)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert live <= cols_bytes + mask_bytes + out_bytes + conv_bytes / 4

    def test_conv_relu_pool_without_tape_frees_cols_after_the_gemm(self):
        # colsT and the conv output coexist only in the GEMM; the relu and
        # the pool's temporaries come after colsT is gone, and no mask is built
        x, w, b = self._stage(4, 4, 2, 16)
        m = 4 * 32 * 32
        cols_bytes, conv_bytes = 2 * 9 * m * 8, 16 * m * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_tape():
                out = conv_relu_pool(x, w, b, padding=1)
            live, peak = (v - base for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert live <= conv_bytes / 4 + 4096  # the pooled output alone
        assert peak <= cols_bytes + conv_bytes + conv_bytes / 8


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
        # 1 op per conv stage, then reshape, 2 x (matmul, add), relu, l2_normalize
        n_ops = len(enc.convs) + 7
        outputs = [a for a, role in seen if role == "output"]
        inputs = [a for a, role in seen if role == "input"]
        assert len(outputs) == n_ops and outputs[-1] is out.data
        assert len(inputs) == 1 + len(enc.parameters())
        assert len({id(a) for a, _ in seen}) == len(seen)


@st.composite
def _broadcast_input_shape(draw, out_shape):
    """A shape that broadcasts to ``out_shape``: leading axes dropped and
    some remaining axes set to 1."""
    kept = out_shape[draw(st.integers(0, len(out_shape))):]
    return tuple(1 if draw(st.booleans()) else n for n in kept)


def _sum_to(full: np.ndarray, shape: tuple) -> np.ndarray:
    """``full`` summed over the axes along which ``shape`` was broadcast."""
    lead = full.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1 and full.shape[lead + i] != 1)
    return np.sum(full, axis=axes).reshape(shape)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), out_shape=hnp.array_shapes(min_dims=1, max_dims=4, max_side=4))
def test_broadcast_gradients_sum_over_broadcast_axes(data, out_shape):
    """`add` and `multiply` hand each input a gradient of its own shape,
    equal to the upstream gradient summed over the axes it was broadcast
    along.  Small integers keep every sum exact, whatever its order."""
    ints = st.integers(-3, 3).map(float)
    shape_a, shape_b = (data.draw(_broadcast_input_shape(out_shape)) for _ in range(2))
    a_np, b_np = (data.draw(hnp.arrays(np.float64, s, elements=ints)) for s in (shape_a, shape_b))
    g = data.draw(hnp.arrays(np.float64, out_shape, elements=ints))
    for op, wrt_a, wrt_b in ((add, np.ones_like, np.ones_like),
                             (multiply, lambda _: b_np, lambda _: a_np)):
        a, b = Tensor(a_np, requires_grad=True), Tensor(b_np, requires_grad=True)
        sum_(multiply(op(a, b), Tensor(g))).backward()
        for t, local in ((a, wrt_a(a_np)), (b, wrt_b(b_np))):
            assert t.grad.shape == t.shape
            assert np.array_equal(t.grad, _sum_to(g * np.broadcast_to(local, out_shape), t.shape))

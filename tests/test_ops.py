import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from crackscope import ops
from crackscope.errors import InvalidKernel, InvalidShape
from crackscope.gradcheck import random_op_case


def _rand(rng, shape):
    return rng.uniform(-1, 1, shape)


def test_as_nchw_requires_four_dims():
    with pytest.raises(InvalidShape):
        ops.as_nchw(np.zeros((2, 3)))
    out = ops.as_nchw(np.zeros((1, 1, 1, 1), dtype=np.float32))
    assert out.dtype == np.float64


class TestGlobalPools:
    def test_avg_hand_case(self):
        x = np.arange(1, 9.0).reshape(1, 2, 2, 2)
        out = ops.global_avg_pool(x)
        assert np.allclose(out.ravel(), [2.5, 6.5])

    def test_avg_constant(self):
        x = np.full((2, 3, 4, 5), 7.25)
        assert np.allclose(ops.global_avg_pool(x), 7.25)

    def test_avg_matches_naive(self):
        rng = np.random.default_rng(1)
        x = _rand(rng, (2, 3, 5, 4))
        assert np.allclose(ops.global_avg_pool(x), oracles.naive_global_avg_pool(x))

    def test_max_hand_case(self):
        x = np.array([[1.0, 9.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert ops.global_max_pool(x)[0, 0, 0, 0] == 9.0

    def test_max_constant(self):
        x = np.full((1, 2, 3, 3), -2.5)
        assert np.all(ops.global_max_pool(x) == -2.5)

    def test_max_matches_naive(self):
        rng = np.random.default_rng(2)
        x = _rand(rng, (2, 4, 3, 6))
        assert np.array_equal(ops.global_max_pool(x), oracles.naive_global_max_pool(x))

    def test_empty_spatial_extent_rejected(self):
        with pytest.raises(InvalidShape):
            ops.global_avg_pool(np.zeros((1, 2, 0, 3)))
        with pytest.raises(InvalidShape):
            ops.global_max_pool(np.zeros((1, 2, 3, 0)))

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = _rand(rng, (2, 3, 4, 4))
        perm = rng.permutation(16)
        shuffled = x.reshape(2, 3, 16)[:, :, perm].reshape(2, 3, 4, 4)
        assert np.allclose(ops.global_avg_pool(x), ops.global_avg_pool(shuffled))
        assert np.array_equal(ops.global_max_pool(x), ops.global_max_pool(shuffled))


class TestConv1dChannels:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(4)
        w = _rand(rng, (2, 5, 1, 1))
        out = ops.conv1d_channels(w, np.array([0.0, 1.0, 0.0]))
        assert np.allclose(out, w)

    def test_zero_kernel(self):
        w = np.ones((1, 4, 1, 1))
        assert np.all(ops.conv1d_channels(w, np.zeros(3)) == 0.0)

    def test_hand_case_with_zero_pad(self):
        w = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
        out = ops.conv1d_channels(w, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(out.ravel(), [3.0, 6.0, 5.0])

    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        w = _rand(rng, (2, 7, 1, 1))
        kernel = _rand(rng, 5)
        assert np.allclose(
            ops.conv1d_channels(w, kernel), oracles.naive_conv1d_channels(w, kernel)
        )

    def test_even_kernel_rejected(self):
        with pytest.raises(InvalidKernel):
            ops.conv1d_channels(np.ones((1, 3, 1, 1)), np.ones(4))


class TestConv2d:
    def test_unit_1x1_kernel_is_identity(self):
        rng = np.random.default_rng(6)
        x = _rand(rng, (1, 3, 4, 4))
        kernel = np.zeros((3, 3, 1, 1))
        for c in range(3):
            kernel[c, c, 0, 0] = 1.0
        assert np.allclose(ops.conv2d(x, kernel, np.zeros(3)), x)

    def test_zero_kernel_gives_bias(self):
        x = np.ones((1, 2, 3, 3))
        out = ops.conv2d(x, np.zeros((2, 2, 1, 1)), np.array([1.5, -2.0]))
        assert np.all(out[0, 0] == 1.5)
        assert np.all(out[0, 1] == -2.0)

    def test_matches_naive(self):
        rng = np.random.default_rng(7)
        x = _rand(rng, (2, 3, 5, 6))
        bias = _rand(rng, 4)
        for k in (1, 3, 5):
            kernel = _rand(rng, (4, 3, k, k))
            assert np.allclose(
                ops.conv2d(x, kernel, bias), oracles.naive_conv2d(x, kernel, bias, k // 2)
            )

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x = _rand(rng, (1, 2, 4, 4))
        y = _rand(rng, (1, 2, 4, 4))
        kernel = _rand(rng, (3, 2, 3, 3))
        zero = np.zeros(3)
        a, b = 1.7, -0.3
        lhs = ops.conv2d(a * x + b * y, kernel, zero)
        rhs = a * ops.conv2d(x, kernel, zero) + b * ops.conv2d(y, kernel, zero)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_channel_mismatch_rejected(self):
        with pytest.raises(InvalidShape):
            ops.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 1, 1)), np.zeros(1))

    def test_even_kernel_rejected(self):
        for shape in ((1, 1, 2, 3), (1, 1, 3, 4), (1, 1, 0, 1)):
            with pytest.raises(InvalidKernel):
                ops.conv2d(np.ones((1, 1, 4, 4)), np.ones(shape), np.zeros(1))

    def test_kernel_wider_than_input_keeps_extent(self):
        # every 5x5 window of a 2x2 input covers the whole input
        out = ops.conv2d(np.arange(4.0).reshape(1, 1, 2, 2), np.ones((1, 1, 5, 5)), np.zeros(1))
        assert out.shape == (1, 1, 2, 2) and np.all(out == 6.0)

    def test_empty_extent_rejected(self):
        with pytest.raises(InvalidShape):
            ops.conv2d(np.ones((1, 1, 0, 3)), np.ones((1, 1, 1, 1)), np.zeros(1))


# integer-valued so that ties are common; the sign of 0 and of NaN is drawn too
_POOL_VALUES = [-2.0, -1.0, 0.0, 1.0, 2.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
# 1e16 against small values makes a sum depend on the order of its terms
_UPSTREAM = st.one_of(st.sampled_from([1e16, -1e16]), st.floats(-4.0, 4.0))


@st.composite
def pool_cases(draw):
    """``(x, k, upstream)`` for maxpool2d, odd k from below to above the
    extent, non-square, with some planes all ``-inf``."""
    k = draw(st.sampled_from([1, 3, 5, 7]))
    h = draw(st.integers(1, k + 5))
    w = draw(st.integers(1, k + 5))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    x = draw(arrays(np.float64, (n, c, h, w), elements=st.sampled_from(_POOL_VALUES)))
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1)), draw(st.integers(0, c - 1))] = -np.inf
    up = draw(arrays(np.float64, (n, c, h, w), elements=_UPSTREAM))
    return x, k, up


def _assert_matches_former_body(x, k, up):
    """``out`` and the gradient equal the sliding-window/argmax/add.at body's
    byte for byte.  Where the input holds -0.0 or a negative NaN, only
    ``out``'s values are compared: which sign of a tied zero or NaN a max
    returns is not fixed even for the former body (it depends on the
    reduction order numpy picks)."""
    out, pullback = ops.maxpool2d_vjp(x, k)
    ref_out, ref_pullback = oracles.naive_maxpool2d_vjp(x, k, 1, k // 2)
    assert out.shape == ref_out.shape
    signed = np.signbit(x) & ((x == 0) | np.isnan(x))
    if signed.any():
        assert np.array_equal(out, ref_out, equal_nan=True)
    else:
        assert out.tobytes() == ref_out.tobytes()
    if not np.isnan(x).any():  # the loop oracle skips NaN instead of propagating it
        assert np.array_equal(out, oracles.naive_maxpool2d(x, k, 1, k // 2))
    grad = pullback(up)[0]
    ref_grad = ref_pullback(up)[0]
    assert grad.shape == ref_grad.shape == x.shape
    assert np.ascontiguousarray(grad).tobytes() == np.ascontiguousarray(ref_grad).tobytes()


class TestMaxpool2d:
    def test_identity_window(self):
        rng = np.random.default_rng(9)
        x = _rand(rng, (1, 2, 4, 4))
        assert np.array_equal(ops.maxpool2d(x, 1), x)

    def test_constant_input(self):
        x = np.full((1, 1, 6, 6), 3.25)
        assert np.all(ops.maxpool2d(x, 5) == 3.25)

    def test_matches_naive(self):
        rng = np.random.default_rng(10)
        x = _rand(rng, (2, 2, 6, 7))
        for k in (1, 3, 5, 7, 9):
            assert np.array_equal(ops.maxpool2d(x, k), oracles.naive_maxpool2d(x, k, 1, k // 2))

    def test_padding_never_wins(self):
        x = np.full((1, 1, 3, 3), -5.0)
        out = ops.maxpool2d(x, 3)
        assert np.all(out == -5.0)

    def test_window_larger_than_input_takes_plane_max(self):
        out = ops.maxpool2d(np.array([[[[1.0, 4.0], [3.0, 2.0]]]]), 5)
        assert out.shape == (1, 1, 2, 2) and np.all(out == 4.0)

    def test_even_window_rejected(self):
        for k in (0, 2, 4):
            with pytest.raises(InvalidKernel):
                ops.maxpool2d(np.ones((1, 1, 4, 4)), k)

    def test_empty_extent_rejected(self):
        with pytest.raises(InvalidShape):
            ops.maxpool2d(np.ones((1, 1, 3, 0)), 3)

    @given(pool_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_former_body_bit_for_bit(self, case):
        _assert_matches_former_body(*case)

    def test_pullback_adds_in_output_order(self):
        # x0 wins windows 0, 1 and 2; summed in that order the three upstreams
        # give 1.0, in any other order the 1.0 is lost against 1e16
        x = np.zeros((1, 1, 1, 4))
        up = np.array([1e16, -1e16, 1.0, 5.0]).reshape(1, 1, 1, 4)
        _assert_matches_former_body(x, 5, up)
        assert ops.maxpool2d_vjp(x, 5)[1](up)[0][0, 0, 0, 0] == 1.0

    def test_peak_memory_stays_linear_in_the_input(self):
        """A forward and one pullback at 1x32x80x80, k=5, allocate under 8x
        the input at peak; a copied k*k window array alone would be 25x."""
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 32, 80, 80))
        up = rng.standard_normal((1, 32, 80, 80))
        tracemalloc.start()
        try:
            _, pullback = ops.maxpool2d_vjp(x, 5)
            pullback(up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes


class TestActivations:
    def test_sigmoid_zero(self):
        assert ops.sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_large_negative_is_finite(self):
        out = ops.sigmoid(np.array([-1000.0, -50.0]))
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0.0)
        assert out[1] > 0.0

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(12)
        x = _rand(rng, (1, 2, 3, 3)) * 5
        assert np.allclose(ops.sigmoid(x) + ops.sigmoid(-x), 1.0)

    def test_relu_cases(self):
        assert ops.relu(np.array(-1.0)) == 0.0
        assert ops.relu(np.array(2.0)) == 2.0
        rng = np.random.default_rng(13)
        x = _rand(rng, 40)
        assert np.array_equal(ops.relu(x), np.array([max(v, 0.0) for v in x]))


class TestBroadcastMul:
    def test_ones_identity(self):
        rng = np.random.default_rng(14)
        x = _rand(rng, (2, 3, 4, 4))
        assert np.array_equal(ops.broadcast_mul(x, np.ones((2, 3, 1, 1))), x)

    def test_zeros(self):
        x = np.ones((1, 2, 3, 3))
        assert np.all(ops.broadcast_mul(x, np.zeros((1, 1, 3, 3))) == 0.0)

    def test_matches_naive_both_forms(self):
        rng = np.random.default_rng(15)
        x = _rand(rng, (2, 3, 4, 5))
        for w in (_rand(rng, (2, 3, 1, 1)), _rand(rng, (2, 1, 4, 5))):
            assert np.allclose(ops.broadcast_mul(x, w), oracles.naive_broadcast_mul(x, w))

    def test_incompatible_shape_rejected(self):
        with pytest.raises(InvalidShape):
            ops.broadcast_mul(np.ones((1, 2, 3, 3)), np.ones((1, 2, 3, 1)))


class TestChannelStats:
    def test_single_channel(self):
        rng = np.random.default_rng(18)
        x = _rand(rng, (1, 1, 3, 4))
        stats = ops.channel_stats(x)
        assert np.array_equal(stats[:, :1], x)
        assert np.allclose(stats[:, 1:], x)

    def test_two_channel_pixel(self):
        x = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 3.0)])[None]
        stats = ops.channel_stats(x)
        assert np.all(stats[:, :1] == 3.0)
        assert np.all(stats[:, 1:] == 2.0)

    def test_matches_naive(self):
        rng = np.random.default_rng(19)
        x = _rand(rng, (2, 5, 3, 4))
        stats = ops.channel_stats(x)
        omx, omean = oracles.naive_channel_stats(x)
        assert np.array_equal(stats[:, :1], omx)
        assert np.allclose(stats[:, 1:], omean)

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(20)
        x = _rand(rng, (1, 6, 4, 4))
        perm = rng.permutation(6)
        stats = ops.channel_stats(x)
        shuffled = ops.channel_stats(x[:, perm])
        assert np.array_equal(stats[:, :1], shuffled[:, :1])
        assert np.allclose(stats[:, 1:], shuffled[:, 1:])

    def test_zero_channels_rejected(self):
        with pytest.raises(InvalidShape):
            ops.channel_stats(np.zeros((1, 0, 2, 2)))


SHAPE_CONTRACTS = {
    "global_avg_pool": lambda inp, out: out.shape == inp[0].shape[:2] + (1, 1),
    "global_max_pool": lambda inp, out: out.shape == inp[0].shape[:2] + (1, 1),
    "conv1d_channels": lambda inp, out: out.shape == inp[0].shape,
    "conv2d": lambda inp, out: out.shape
    == (inp[0].shape[0], inp[1].shape[0]) + inp[0].shape[2:],
    "maxpool2d": lambda inp, out: out.shape == inp[0].shape,
    "sigmoid": lambda inp, out: out.shape == inp[0].shape,
    "relu": lambda inp, out: out.shape == inp[0].shape,
    "broadcast_mul": lambda inp, out: out.shape == inp[0].shape,
    "channel_stats": lambda inp, out: out.shape == (inp[0].shape[0], 2) + inp[0].shape[2:],
}


@pytest.mark.parametrize("op", sorted(ops.VJP_OPS))
def test_fuzz_shapes_and_finiteness(op):
    """200 random valid shapes per op: contract holds, outputs finite."""
    rng = np.random.default_rng(sum(map(ord, op)))
    contract = SHAPE_CONTRACTS[op]
    for _ in range(200):
        inputs = random_op_case(op, rng)
        out = ops.VJP_OPS[op](*inputs)[0]
        assert contract(inputs, out)
        assert np.all(np.isfinite(out))

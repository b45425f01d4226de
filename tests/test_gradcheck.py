import numpy as np
import pytest

from crackscope import ops
from crackscope.errors import InvalidShape, NotDifferentiable
from crackscope.gradcheck import (
    _BLOCKS,
    GradCheckReport,
    _random_block_case,
    _spaced,
    gradcheck,
    random_op_case,
)


class TestVjpHandCases:
    def test_sigmoid_at_zero(self):
        (grad,) = ops.vjp("sigmoid", (np.zeros((1, 1, 1, 1)),), np.ones((1, 1, 1, 1)))
        assert np.allclose(grad, 0.25)

    def test_broadcast_mul_input_grad_is_weights(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (1, 3, 2, 2))
        w = rng.uniform(-1, 1, (1, 3, 1, 1))
        dx, dw = ops.vjp("broadcast_mul", (x, w), np.ones_like(x))
        assert np.allclose(dx, np.broadcast_to(w, x.shape))
        assert np.allclose(dw, x.sum(axis=(2, 3), keepdims=True))

    def test_broadcast_upstream_rejected(self):
        """An upstream numpy would broadcast to the output shape is still wrong."""
        with pytest.raises(InvalidShape):
            ops.vjp("sigmoid", (np.zeros((1, 2, 3, 3)),), np.ones(3))

    def test_mismatched_broadcast_mul_upstream_rejected(self):
        x = np.ones((1, 3, 2, 2))
        w = np.ones((1, 3, 1, 1))
        with pytest.raises(InvalidShape):
            ops.vjp("broadcast_mul", (x, w), np.ones((1, 2, 2, 2)))

    def test_channel_stats_upstream_pair_checked(self):
        x = np.ones((1, 3, 2, 2))
        with pytest.raises(InvalidShape):
            ops.vjp("channel_stats", (x,), (np.ones((1, 1, 2, 2)), np.ones((1, 3, 2, 2))))
        (grad,) = ops.vjp("channel_stats", (x,), (np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2))))
        assert grad.shape == x.shape

    def test_unknown_op_raises(self):
        with pytest.raises(NotDifferentiable):
            ops.vjp("softmax", (np.ones((1, 1, 1, 1)),), np.ones((1, 1, 1, 1)))


class TestGradcheck:
    def test_sigmoid_passes(self):
        rng = np.random.default_rng(1)
        report = gradcheck("sigmoid", (rng.uniform(-2, 2, (1, 2, 3, 3)),), eps=1e-5, tol=1e-4)
        assert report.passed
        assert report.max_rel_error <= 1e-4

    def test_maxpool_distinct_inputs_pass(self):
        values = np.arange(36, dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.permutation(values).reshape(1, 1, 6, 6) * 0.1
        report = gradcheck("maxpool2d", (x, 3, 1, 1), eps=1e-5, tol=1e-4)
        assert report.passed

    def test_conv2d_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        inputs = (
            rng.uniform(-1, 1, (1, 2, 5, 5)),
            rng.uniform(-1, 1, (3, 2, 3, 3)),
            rng.uniform(-1, 1, 3),
            1,
        )
        report = gradcheck("conv2d", inputs, eps=1e-5, tol=1e-4)
        assert report.passed
        assert report.max_rel_error <= 1e-4
        assert len(report.per_input_errors) == 3  # x, kernel, bias; not the padding

    def test_pass_flag_follows_tolerance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (1, 1, 3, 3))
        loose = gradcheck("sigmoid", (x,), tol=1e-4)
        tight = gradcheck("sigmoid", (x,), tol=1e-15)
        assert loose.passed == (loose.max_rel_error <= 1e-4)
        assert tight.passed == (tight.max_rel_error <= 1e-15)
        assert not tight.passed  # fd noise sits well above 1e-15

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (1, 2, 3, 3))
        a = gradcheck("sigmoid", (x,), seed=42)
        b = gradcheck("sigmoid", (x,), seed=42)
        assert a == b

    def test_report_string(self):
        report = GradCheckReport("demo", 1e-9, (1e-9,), 1e-4, True)
        assert "demo" in str(report) and "pass" in str(report)


@pytest.mark.parametrize("op", sorted(ops.VJP_OPS))
def test_every_op_passes_gradcheck(op):
    """Each registered op at 20 random cases (the acceptance suite runs 100)."""
    rng = np.random.default_rng(sum(map(ord, op)))
    for case in range(20):
        inputs = random_op_case(op, rng)
        report = gradcheck(op, inputs, eps=1e-5, tol=1e-4, seed=case)
        assert report.passed, f"{op} case {case}: {report}"


def test_spaced_inputs_avoid_ties_and_the_relu_kink():
    """Every value at least gap/4 from 0 and gap/2 from every other value."""
    rng = np.random.default_rng(0)
    gap = 0.02
    for _ in range(2000):
        shape = tuple(int(d) for d in rng.integers(1, 6, size=4))
        values = np.sort(_spaced(rng, shape, gap).ravel())
        assert np.abs(values).min() >= gap / 4 * (1 - 1e-9)
        if values.size > 1:
            assert np.diff(values).min() >= gap / 2


def _assert_pure_pullback(body, inputs, rng):
    """One pullback called with two upstreams matches fresh pullbacks and
    leaves the saved inputs and the output as they were."""
    saved = [np.copy(a) if isinstance(a, np.ndarray) else a for a in inputs]
    out, pullback = body(*inputs)
    outs = out if isinstance(out, tuple) else (out,)
    outs_before = [np.copy(o) for o in outs]
    ups = []
    for _ in range(2):
        up = tuple(rng.standard_normal(np.shape(o)) for o in outs)
        ups.append(up if isinstance(out, tuple) else up[0])
    first = [pullback(up) for up in ups]
    for up, grads in zip(ups, first):
        fresh = body(*inputs)[1](up)
        assert len(grads) == len(fresh)
        for g, f in zip(grads, fresh):
            assert np.array_equal(g, f)
    for a, b in zip(inputs, saved):
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
    for o, b in zip(outs, outs_before):
        assert np.array_equal(o, b)


@pytest.mark.parametrize("op", sorted(ops.VJP_OPS))
def test_op_pullback_is_pure(op):
    rng = np.random.default_rng(sum(map(ord, op)) + 1)
    for _ in range(10):
        _assert_pure_pullback(ops.VJP_OPS[op], random_op_case(op, rng), rng)


@pytest.mark.parametrize("block", sorted(_BLOCKS))
def test_block_pullback_is_pure(block):
    rng = np.random.default_rng(sum(map(ord, block)))
    for _ in range(3):
        _assert_pure_pullback(_BLOCKS[block], _random_block_case(block, rng), rng)

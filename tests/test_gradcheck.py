import numpy as np
import pytest

from crackscope import ops
from crackscope.errors import InvalidShape, NotDifferentiable
from crackscope.gradcheck import (
    _BLOCKS,
    GradCheckReport,
    _random_block_case,
    gradcheck_fn,
    random_op_case,
    run_gradient_suite,
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
        """The (max, mean) upstream is one [N, 2, H, W] array."""
        x = np.ones((1, 3, 2, 2))
        for wrong in (np.ones((1, 1, 2, 2)), (np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2)))):
            with pytest.raises(InvalidShape):
                ops.vjp("channel_stats", (x,), wrong)
        (grad,) = ops.vjp("channel_stats", (x,), np.ones((1, 2, 2, 2)))
        assert grad.shape == x.shape

    def test_unknown_op_raises(self):
        with pytest.raises(NotDifferentiable):
            ops.vjp("softmax", (np.ones((1, 1, 1, 1)),), np.ones((1, 1, 1, 1)))


class TestGradcheck:
    def test_sigmoid_passes(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, (1, 2, 3, 3))
        report = gradcheck_fn("sigmoid", ops.VJP_OPS["sigmoid"], (x,), eps=1e-5, tol=1e-4)
        assert report.passed
        assert report.max_rel_error <= 1e-4

    def test_maxpool_distinct_inputs_pass(self):
        values = np.arange(36, dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.permutation(values).reshape(1, 1, 6, 6) * 0.1
        report = gradcheck_fn("maxpool2d", ops.VJP_OPS["maxpool2d"], (x, 3), eps=1e-5, tol=1e-4)
        assert report.passed

    def test_conv2d_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        inputs = (
            rng.uniform(-1, 1, (1, 2, 5, 5)),
            rng.uniform(-1, 1, (3, 2, 3, 3)),
            rng.uniform(-1, 1, 3),
        )
        report = gradcheck_fn("conv2d", ops.VJP_OPS["conv2d"], inputs, eps=1e-5, tol=1e-4)
        assert report.passed
        assert report.max_rel_error <= 1e-4
        assert len(report.per_input_errors) == 3  # x, kernel, bias

    def test_non_square_conv2d_passes(self):
        rng = np.random.default_rng(9)
        for kh, kw in ((1, 5), (5, 3), (3, 7)):
            inputs = (
                rng.uniform(-1, 1, (1, 2, 4, 5)),
                rng.uniform(-1, 1, (2, 2, kh, kw)),
                rng.uniform(-1, 1, 2),
            )
            assert gradcheck_fn("conv2d", ops.VJP_OPS["conv2d"], inputs).passed

    def test_pass_flag_follows_tolerance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (1, 1, 3, 3))
        loose = gradcheck_fn("sigmoid", ops.VJP_OPS["sigmoid"], (x,), tol=1e-4)
        tight = gradcheck_fn("sigmoid", ops.VJP_OPS["sigmoid"], (x,), tol=1e-15)
        assert loose.passed == (loose.max_rel_error <= 1e-4)
        assert tight.passed == (tight.max_rel_error <= 1e-15)
        assert not tight.passed  # fd noise sits well above 1e-15

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (1, 2, 3, 3))
        a = gradcheck_fn("sigmoid", ops.VJP_OPS["sigmoid"], (x,), seed=42)
        b = gradcheck_fn("sigmoid", ops.VJP_OPS["sigmoid"], (x,), seed=42)
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
        report = gradcheck_fn(op, ops.VJP_OPS[op], inputs, eps=1e-5, tol=1e-4, seed=case)
        assert report.passed, f"{op} case {case}: {report}"


class TestKinkRule:
    def test_relu_probe_straddling_zero_is_at_kink(self):
        x = np.array([3e-6, 0.5, -0.5]).reshape(1, 1, 1, 3)
        report = gradcheck_fn("relu", ops.VJP_OPS["relu"], (x,), eps=1e-5, tol=1e-4)
        assert report.at_kink and not report.passed
        away = gradcheck_fn("relu", ops.VJP_OPS["relu"], (x + 0.1,), eps=1e-5, tol=1e-4)
        assert not away.at_kink and away.passed

    def test_curvature_at_a_tiny_tolerance_is_no_kink(self):
        """One-sided slopes part by about eps * f'' on any curved function,
        and by rounding noise on a linear one: neither marks a kink, even
        where every probe fails."""
        x = np.random.default_rng(8).uniform(-1, 1, (1, 2, 3, 3))
        report = gradcheck_fn("sigmoid", ops.VJP_OPS["sigmoid"], (x,), tol=1e-18)
        assert not report.passed and not report.at_kink
        assert not any(r.at_kink or r.passed for r in run_gradient_suite(cases=1, tol=1e-18))

    def test_coarse_eps_on_a_smooth_function_is_no_kink(self):
        x = np.linspace(0.15, 0.4, 6).repeat(2).reshape(1, 1, 3, 4) * [1, -1, 1, -1]
        report = gradcheck_fn("sigmoid", ops.VJP_OPS["sigmoid"], (x,), eps=0.1, tol=1e-4)
        assert not report.passed and not report.at_kink

    def test_wrong_smooth_pullback_fails_off_any_kink(self, monkeypatch):
        def half_sigmoid(x):
            out, pullback = ops.sigmoid_vjp(x)
            return out, lambda up: (0.5 * pullback(up)[0],)

        monkeypatch.setitem(ops.VJP_OPS, "sigmoid", half_sigmoid)
        (report,) = [r for r in run_gradient_suite(cases=2) if r.op == "sigmoid"]
        assert not report.passed and not report.at_kink

    def test_worst_case_replays_with_fewer_cases(self):
        full = run_gradient_suite(seed=3, cases=3)
        for case in {r.case for r in full}:
            replay = run_gradient_suite(seed=3, cases=case + 1)
            for a, b in zip(full, replay):
                if a.case == case:
                    assert a == b

    def test_fail_line_names_case_shapes_and_kink(self):
        report = GradCheckReport("relu", 0.3, (0.3,), 1e-4, False, True, 4, ((1, 2, 3, 3),))
        assert str(report) == (
            "relu: max_rel_error=3.000e-01 tol=1.0e-04 FAIL case=4 shapes=1x2x3x3"
            " (a probe straddles a kink; lower --eps)"
        )

    def test_report_records_array_input_shapes(self):
        rng = np.random.default_rng(7)
        inputs = random_op_case("conv2d", rng)
        report = gradcheck_fn("conv2d", ops.VJP_OPS["conv2d"], inputs)
        assert report.shapes == tuple(a.shape for a in inputs[:3])


def _assert_pure_pullback(body, inputs, rng):
    """The output is one array and the pullback returns one gradient per
    array input, of its shape.  One pullback called with two upstreams
    matches fresh pullbacks and leaves the saved inputs and the output as
    they were."""
    saved = [np.copy(a) if isinstance(a, np.ndarray) else a for a in inputs]
    out, pullback = body(*inputs)
    assert type(out) is np.ndarray
    out_before = np.copy(out)
    ups = [rng.standard_normal(out.shape) for _ in range(2)]
    first = [pullback(up) for up in ups]
    arrays = [a for a in inputs if isinstance(a, np.ndarray)]
    for up, grads in zip(ups, first):
        assert [(type(g), g.shape) for g in grads] == [(np.ndarray, a.shape) for a in arrays]
        fresh = body(*inputs)[1](up)
        assert len(grads) == len(fresh)
        for g, f in zip(grads, fresh):
            assert np.array_equal(g, f)
    for a, b in zip(inputs, saved):
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
    assert np.array_equal(out, out_before)


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

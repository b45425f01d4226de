import tracemalloc

import numpy as np
import pytest

import oracles
from crackscope import attention, ops
from crackscope.errors import InvalidKernel, InvalidShape
from crackscope.gradcheck import gradcheck_fn


def _rand(rng, shape):
    return rng.uniform(-1, 1, shape)


class TestKernelSize:
    def test_256_channels(self):
        assert attention.eca_kernel_size(256) == 5  # |8/2 + 1/2| = 4.5 -> 5

    def test_2_channels_floored_to_3(self):
        assert attention.eca_kernel_size(2) == 3  # |1/2 + 1/2| = 1 -> floor 3

    def test_512_channels(self):
        assert attention.eca_kernel_size(512) == 5  # |4.5 + 0.5| = 5

    def test_zero_channels_rejected(self):
        with pytest.raises(InvalidShape):
            attention.eca_kernel_size(0)

    def test_result_is_odd(self):
        for c in range(1, 4096, 37):
            k = attention.eca_kernel_size(c)
            assert k % 2 == 1 and k >= 3


class TestEca:
    def test_zero_kernel_halves_input(self):
        rng = np.random.default_rng(0)
        x = _rand(rng, (2, 4, 5, 5))
        out = attention.eca_forward(x, attention.init_eca(4, zero=True))
        assert np.abs(out - 0.5 * x).max() <= 1e-12

    def test_per_channel_ratio_constant(self):
        rng = np.random.default_rng(1)
        x = _rand(rng, (1, 3, 4, 4)) + 2.0  # keep x nonzero
        out = attention.eca_forward(x, attention.init_eca(3, seed=5))
        ratio = out / x
        for c in range(3):
            channel = ratio[0, c]
            assert np.abs(channel - channel.ravel()[0]).max() <= 1e-12

    def test_weights_invariant_under_spatial_shuffle(self):
        rng = np.random.default_rng(2)
        p = attention.init_eca(4, seed=9)
        x = _rand(rng, (2, 4, 4, 4))
        perm = rng.permutation(16)
        shuffled = x.reshape(2, 4, 16)[:, :, perm].reshape(2, 4, 4, 4)
        w1 = attention.eca_weights(x, p)
        w2 = attention.eca_weights(shuffled, p)
        assert np.abs(w1 - w2).max() <= 1e-12

    def test_weights_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        w = attention.eca_weights(_rand(rng, (1, 8, 3, 3)), attention.init_eca(8, seed=1))
        assert np.all(w > 0.0) and np.all(w < 1.0)

    def test_kernel_longer_than_2c_minus_1_rejected(self):
        p = attention.EcaParams(np.ones(5))
        with pytest.raises(InvalidShape):
            attention.eca_forward(np.ones((1, 2, 2, 2)), p)

    def test_even_kernel_rejected(self):
        p = attention.EcaParams(np.ones(4))
        with pytest.raises(InvalidKernel):
            attention.eca_forward(np.ones((1, 4, 2, 2)), p)


class TestCam:
    def test_zero_params_halve_input(self):
        rng = np.random.default_rng(4)
        x = _rand(rng, (2, 8, 3, 3))
        out = attention.cam_forward(x, attention.init_cam(8, zero=True))
        assert np.abs(out - 0.5 * x).max() <= 1e-12

    def test_weights_invariant_under_spatial_shuffle(self):
        rng = np.random.default_rng(5)
        p = attention.init_cam(6, seed=3)
        x = _rand(rng, (1, 6, 5, 5))
        perm = rng.permutation(25)
        shuffled = x.reshape(1, 6, 25)[:, :, perm].reshape(1, 6, 5, 5)
        assert np.abs(attention.cam_weights(x, p) - attention.cam_weights(shuffled, p)).max() <= 1e-12

    def test_constant_tensor_doubles_logit(self):
        # on a constant tensor both pooled vectors coincide, so the summed
        # branches equal twice a single branch
        p = attention.init_cam(4, seed=11)
        x = np.full((1, 4, 3, 3), 0.7)
        pooled = ops.global_avg_pool(x)[0, :, 0, 0]
        hidden = ops.relu(oracles.naive_matvec(pooled, p.w1, p.b1))
        single = oracles.naive_matvec(hidden, p.w2, p.b2)
        expected = ops.sigmoid(2.0 * single).reshape(1, 4, 1, 1)
        assert np.allclose(attention.cam_weights(x, p), expected)

    def test_hidden_size_is_channels_over_16_at_least_1(self):
        rng = np.random.default_rng(24)
        for channels, hidden in ((4, 1), (24, 1), (40, 2), (64, 4)):
            p = attention.init_cam(channels, seed=1)
            assert p.w1.shape == (hidden, channels) and p.w2.shape == (channels, hidden)
            x = _rand(rng, (1, channels, 3, 3))
            assert attention.cam_forward(x, p).shape == x.shape

    def test_inconsistent_mlp_shapes_rejected(self):
        with pytest.raises(InvalidShape):
            attention.CamParams(np.zeros((2, 4)), np.zeros(2), np.zeros((4, 3)), np.zeros(4))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(InvalidShape):
            attention.cam_forward(np.ones((1, 5, 2, 2)), attention.init_cam(4))


class TestSam:
    def test_zero_params_halve_input(self):
        rng = np.random.default_rng(6)
        x = _rand(rng, (2, 3, 6, 6))
        out = attention.sam_forward(x, attention.init_sam(zero=True))
        assert np.abs(out - 0.5 * x).max() <= 1e-12

    def test_map_invariant_under_channel_shuffle(self):
        rng = np.random.default_rng(7)
        p = attention.init_sam(seed=2)
        x = _rand(rng, (1, 6, 8, 8))
        perm = rng.permutation(6)
        m1 = attention.sam_map(x, p)
        m2 = attention.sam_map(x[:, perm], p)
        assert np.abs(m1 - m2).max() <= 1e-12

    def test_single_channel_stats_degenerate(self):
        rng = np.random.default_rng(8)
        x = _rand(rng, (1, 1, 4, 4))
        stats = ops.channel_stats(x)
        assert np.array_equal(stats[:, :1], x)
        assert np.allclose(stats[:, 1:], x)

    def test_map_shape_and_range(self):
        rng = np.random.default_rng(9)
        m = attention.sam_map(_rand(rng, (2, 5, 7, 9)), attention.init_sam(seed=4))
        assert m.shape == (2, 1, 7, 9)
        assert np.all(m > 0.0) and np.all(m < 1.0)

    def test_wrong_kernel_shape_rejected(self):
        p = attention.SamParams(np.zeros((1, 3, 7, 7)))
        with pytest.raises(InvalidShape):
            attention.sam_forward(np.ones((1, 2, 4, 4)), p)


class TestCbam:
    def test_zero_params_quarter_input(self):
        rng = np.random.default_rng(10)
        x = _rand(rng, (1, 4, 5, 5))
        out = attention.cbam_forward(
            x, attention.init_cam(4, zero=True), attention.init_sam(zero=True)
        )
        assert np.abs(out - 0.25 * x).max() <= 1e-12

    def test_equals_manual_composition(self):
        rng = np.random.default_rng(11)
        x = _rand(rng, (2, 4, 4, 4))
        cam = attention.init_cam(4, seed=1)
        sam = attention.init_sam(seed=2)
        manual = attention.sam_forward(attention.cam_forward(x, cam), sam)
        assert np.array_equal(attention.cbam_forward(x, cam, sam), manual)


class TestSppf:
    def test_shape_contract(self):
        rng = np.random.default_rng(12)
        p = attention.init_sppf(8, 4, 8, seed=0)
        out = attention.sppf_forward(_rand(rng, (1, 8, 16, 16)), p)
        assert out.shape == (1, 8, 16, 16)

    def test_stacked_pools_equal_single_wide_pools(self):
        rng = np.random.default_rng(13)
        y0 = _rand(rng, (1, 3, 12, 12))
        y1 = ops.maxpool2d(y0, 5)
        y2 = ops.maxpool2d(y1, 5)
        y3 = ops.maxpool2d(y2, 5)
        assert np.array_equal(y2, ops.maxpool2d(y0, 9))
        assert np.array_equal(y3, ops.maxpool2d(y0, 13))

    def test_identity_reduce_conv_exposes_stacked_pools(self):
        # with an identity reduce conv (cmid = cin) and an expand conv that
        # selects one concat block, the middle stages are single wide pools
        rng = np.random.default_rng(23)
        cin = 2
        x = rng.uniform(-1, 1, (1, cin, 10, 10))
        identity = np.zeros((cin, cin, 1, 1))
        for c in range(cin):
            identity[c, c, 0, 0] = 1.0
        for block, k in ((2, 9), (3, 13)):
            selector = np.zeros((cin, 4 * cin, 1, 1))
            for c in range(cin):
                selector[c, block * cin + c, 0, 0] = 1.0
            p = attention.SppfParams(identity, np.zeros(cin), selector, np.zeros(cin))
            out = attention.sppf_forward(x, p)
            assert np.array_equal(out, ops.maxpool2d(x, k))

    def test_concat_width_validated(self):
        p = attention.SppfParams(
            np.zeros((4, 8, 1, 1)), np.zeros(4), np.zeros((8, 12, 1, 1)), np.zeros(8)
        )
        with pytest.raises(InvalidShape):
            attention.sppf_forward(np.ones((1, 8, 4, 4)), p)


class TestPipeline:
    def test_zero_attention_scales_conv_features(self):
        # eca contributes 0.5 and cbam 0.25: the sppf stage sees conv * 0.125
        rng = np.random.default_rng(14)
        x = _rand(rng, (1, 2, 8, 8))
        p = attention.init_pipeline(2, 4, 2, 3, seed=0, zero_attention=True)
        conv_out = ops.conv2d(x, p.conv_kernel, p.conv_bias)
        expected = attention.sppf_forward(0.125 * conv_out, p.sppf)
        assert np.abs(attention.demo_pipeline(x, p) - expected).max() <= 1e-12

    def test_shape_contract(self):
        rng = np.random.default_rng(15)
        p = attention.init_pipeline(3, 4, 2, 5, seed=1)
        out = attention.demo_pipeline(_rand(rng, (2, 3, 9, 9)), p)
        assert out.shape == (2, 5, 9, 9)

    def test_input_grad_runs_each_forward_once(self, monkeypatch):
        # conv: front, sam, sppf reduce and expand; sigmoid: eca, cam, sam
        calls = {"conv2d_vjp": 0, "maxpool2d_vjp": 0, "sigmoid_vjp": 0}
        for name in calls:
            body = getattr(attention, name)

            def counted(*args, _body=body, _name=name, **kwargs):
                calls[_name] += 1
                return _body(*args, **kwargs)

            monkeypatch.setattr(attention, name, counted)
        rng = np.random.default_rng(19)
        x = _rand(rng, (1, 2, 6, 6))
        p = attention.init_pipeline(2, 4, 2, 3, seed=0)
        out, pullback = attention.pipeline_vjp(x, p)
        (grad,) = pullback(np.ones_like(out))
        assert calls == {"conv2d_vjp": 4, "maxpool2d_vjp": 3, "sigmoid_vjp": 3}
        assert np.array_equal(attention.pipeline_input_grad(x, p, np.ones_like(out)), grad)
        assert np.array_equal(attention.demo_pipeline(x, p), out)

    @staticmethod
    def _bench_case():
        """The benchmark's shapes: 1x3x80x80 in, 64 channels, SPPF 32 -> 64."""
        rng = np.random.default_rng(24)
        p = attention.init_pipeline(3, 64, 32, 64, seed=0)
        return p, rng.standard_normal((1, 3, 80, 80)), rng.standard_normal((1, 64, 80, 80))

    def test_input_grad_peak_memory(self):
        """The input gradient peaked at 58.1 MB while each max pool kept its
        padded frame and row-segment maxima, at 49.2 MB with pools that keep
        only their output, and peaks at 32.9 MB now that the block chains'
        convolutions keep nothing for their kernel and bias gradients."""
        p, x, up = self._bench_case()
        tracemalloc.start()
        try:
            attention.pipeline_input_grad(x, p, up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 35e6

    def test_forward_holds_no_kernel_gradient_inputs(self):
        """What one forward leaves alive, its output and what its pullback
        saved: 36.1 MB while each convolution kept its im2col columns (for a
        1x1 kernel, its input) for ``dkernel``, 19.7 MB with input-only
        convolutions."""
        p, x, _ = self._bench_case()
        tracemalloc.start()
        try:
            out, pullback = attention.pipeline_vjp(x, p)  # both alive while measured
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 21e6

    def test_pullback_contracts_no_kernel_gradient(self, monkeypatch):
        """No block reads a convolution's ``dkernel``, so no pullback makes
        the ``np.tensordot`` contraction that builds it (4 per pipeline
        while every convolution returned all three gradients)."""
        calls = []
        tensordot = np.tensordot

        def counted(*args, **kwargs):
            calls.append(1)
            return tensordot(*args, **kwargs)

        monkeypatch.setattr(np, "tensordot", counted)
        p, x, up = self._bench_case()
        out, pullback = attention.pipeline_vjp(x, p)
        (grad,) = pullback(up)
        assert grad.shape == x.shape and len(calls) == 0


_BLOCKS = {
    "eca": lambda x: attention.eca_vjp(x, attention.init_eca(4, seed=0)),
    "cam": lambda x: attention.cam_vjp(x, attention.init_cam(4, seed=1)),
    "sam": lambda x: attention.sam_vjp(x, attention.init_sam(seed=2)),
    "cbam": lambda x: attention.cbam_vjp(x, attention.init_cam(4, seed=3), attention.init_sam(seed=4)),
    "sppf": lambda x: attention.sppf_vjp(x, attention.init_sppf(4, 2, 3, seed=5)),
    "pipeline": lambda x: attention.pipeline_vjp(x, attention.init_pipeline(4, 4, 2, 3, seed=6)),
}


@pytest.mark.parametrize("block", sorted(_BLOCKS))
def test_block_pullback_is_repeatable_and_writes_no_input(block):
    """The chains add gradients in place, only into arrays they have just
    allocated: a second pullback gives the same bytes, and neither call
    writes into the input, the output or the upstream."""
    rng = np.random.default_rng(27)
    x = _rand(rng, (2, 4, 6, 5))
    out, pullback = _BLOCKS[block](x)
    up = _rand(rng, out.shape)
    saved = [a.copy() for a in (x, out, up)]
    (first,) = pullback(up)
    (second,) = pullback(up)
    assert first.shape == x.shape and first.tobytes() == second.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(saved, (x, out, up)))


class TestBlockGradients:
    """Spot checks; the acceptance suite sweeps 100 cases per block."""

    def _check(self, fn, *inputs):
        report = gradcheck_fn("block", fn, inputs, eps=1e-5, tol=1e-4, seed=0)
        assert report.passed, report

    def test_eca(self):
        rng = np.random.default_rng(16)
        p = attention.init_eca(3, seed=0)
        self._check(attention.eca_vjp, _rand(rng, (1, 3, 4, 4)), p)

    def test_cbam(self):
        rng = np.random.default_rng(17)
        cam = attention.init_cam(4, seed=0)
        sam = attention.init_sam(seed=1)
        self._check(attention.cbam_vjp, _rand(rng, (1, 4, 4, 4)), cam, sam)

    def test_pipeline(self):
        rng = np.random.default_rng(18)
        p = attention.init_pipeline(2, 4, 2, 3, seed=0)
        self._check(attention.pipeline_vjp, _rand(rng, (1, 2, 5, 5)), p)

    def test_pipeline_with_24_channels(self):
        """24 channels give CBAM one hidden unit: no divisibility rule applies."""
        rng = np.random.default_rng(25)
        p = attention.init_pipeline(3, 24, 12, 24, seed=0)
        self._check(attention.pipeline_vjp, _rand(rng, (1, 3, 3, 3)), p)

    def test_cam_with_40_channels(self):
        rng = np.random.default_rng(26)
        self._check(attention.cam_vjp, _rand(rng, (1, 40, 2, 2)), attention.init_cam(40, seed=2))

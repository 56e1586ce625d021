"""Inter-component transforms and the color codec path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codec import CodecParams, decode_image, encode_image
from repro.codec.color import ict_forward, ict_inverse, rct_forward, rct_inverse
from repro.image import SyntheticSpec, psnr, synthetic_image
from repro.obs import Tracer
from repro.tier2.codestream import read_codestream

_rgb_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)),
    elements=st.integers(-255, 255),
)


def _color_image(side=64, seed=1):
    r = synthetic_image(SyntheticSpec(side, side, "mix", seed=seed))
    g = synthetic_image(SyntheticSpec(side, side, "fbm", seed=seed + 1))
    b = synthetic_image(SyntheticSpec(side, side, "mix", seed=seed + 2))
    return np.stack([r, g, b], axis=2)


class TestRct:
    @given(_rgb_arrays)
    def test_exact_roundtrip(self, rgb):
        y, cb, cr = rct_forward(rgb)
        assert np.array_equal(rct_inverse(y, cb, cr), rgb)

    def test_gray_input_gives_zero_chroma(self):
        rgb = np.full((4, 4, 3), 77, dtype=np.int64)
        y, cb, cr = rct_forward(rgb)
        assert np.all(y == 77) and np.all(cb == 0) and np.all(cr == 0)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rct_forward(np.zeros((2, 2, 3)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            rct_forward(np.zeros((2, 2, 4), dtype=np.int64))


class TestIct:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 10), st.integers(1, 10), st.just(3)),
            elements=st.floats(-200, 200, allow_nan=False),
        )
    )
    def test_near_exact_roundtrip(self, rgb):
        y, cb, cr = ict_forward(rgb)
        assert np.allclose(ict_inverse(y, cb, cr), rgb, atol=1e-9)

    def test_luma_weights(self):
        rgb = np.zeros((1, 1, 3))
        rgb[0, 0] = [100.0, 0.0, 0.0]
        y, _, _ = ict_forward(rgb)
        assert y[0, 0] == pytest.approx(29.9)

    def test_gray_gives_zero_chroma(self):
        rgb = np.full((3, 3, 3), 50.0)
        _, cb, cr = ict_forward(rgb)
        assert np.allclose(cb, 0, atol=1e-9) and np.allclose(cr, 0, atol=1e-9)


class TestColorCodec:
    def test_lossless_color_bit_exact(self):
        rgb = _color_image(48)
        res = encode_image(rgb, CodecParams(filter_name="5/3", levels=3, cb_size=16))
        assert np.array_equal(decode_image(res.data), rgb)

    def test_lossy_color_quality(self):
        rgb = _color_image(64)
        res = encode_image(rgb, CodecParams(levels=3, base_step=1 / 128, cb_size=16))
        rec = decode_image(res.data)
        assert rec.shape == rgb.shape
        assert psnr(rgb, rec) > 40

    def test_color_rate_control(self):
        rgb = _color_image(64)
        res = encode_image(
            rgb, CodecParams(levels=3, base_step=1 / 64, cb_size=16, target_bpp=(1.5,))
        )
        assert res.rate_bpp() <= 1.5 * 1.3

    def test_color_layers_monotone(self):
        rgb = _color_image(64)
        res = encode_image(
            rgb,
            CodecParams(levels=3, base_step=1 / 64, cb_size=16, target_bpp=(0.75, 3.0)),
        )
        lo = psnr(rgb, decode_image(res.data, max_layer=0))
        hi = psnr(rgb, decode_image(res.data, max_layer=1))
        assert hi > lo

    def test_tiled_color_lossless(self):
        rgb = _color_image(64)
        res = encode_image(
            rgb, CodecParams(filter_name="5/3", levels=3, cb_size=16, tile_size=32)
        )
        assert np.array_equal(decode_image(res.data), rgb)

    def test_block_records_carry_component(self):
        rgb = _color_image(32)
        res = encode_image(rgb, CodecParams(filter_name="5/3", levels=2, cb_size=16))
        comps = {rec.component for rec in res.blocks}
        assert comps == {0, 1, 2}

    def test_inter_component_work_counted(self):
        rgb = _color_image(32)
        tr = Tracer()
        res = encode_image(rgb, CodecParams(levels=2, cb_size=16), tracer=tr)
        assert tr.stage_seconds()["inter-component transform"] > 0
        assert read_codestream(res.data).params.n_components == 3
        assert sum(rec.n_samples for rec in res.blocks) == rgb.size

"""End-to-end codec: round-trips, rate control, layers, tiling."""

import numpy as np
import pytest

from repro.codec import (
    CodecParams,
    band_layouts,
    decode_image,
    encode_image,
    resolution_bands,
)
from repro.image import SyntheticSpec, psnr, synthetic_image
from repro.obs import Tracer
from repro.tier2.codestream import read_codestream


class TestParams:
    def test_defaults_match_paper(self):
        p = CodecParams()
        assert p.levels == 5 and p.filter_name == "9/7" and p.cb_size == 64

    @pytest.mark.parametrize(
        "kw",
        [
            dict(cb_size=3),
            dict(cb_size=128),
            dict(cb_size=48),
            dict(filter_name="13/7"),
            dict(tile_size=-1),
            dict(bit_depth=0),
            dict(target_bpp=(1.0, 0.5)),
            dict(target_bpp=(0.0,)),
            dict(levels=-1),
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            CodecParams(**kw)

    def test_effective_levels_clamps(self):
        p = CodecParams(levels=5)
        assert p.effective_levels(8, 8) == 3
        assert p.effective_levels(1024, 1024) == 5

    def test_n_layers(self):
        assert CodecParams().n_layers == 1
        assert CodecParams(target_bpp=(0.25, 1.0)).n_layers == 2


class TestBlocks:
    def test_band_layout_grids(self):
        layouts = band_layouts(100, 100, 2, 32)
        assert layouts[(2, "LL")].grid == (1, 1)
        assert layouts[(1, "HL")].grid == (2, 2)
        blocks = layouts[(1, "HL")].blocks()
        assert len(blocks) == 4
        assert blocks[0].shape == (32, 32)
        assert blocks[-1].shape == (18, 18)

    def test_blocks_tile_the_band(self):
        layout = band_layouts(77, 53, 1, 16)[(1, "HH")]
        cover = np.zeros((layout.height, layout.width), dtype=int)
        for b in layout.blocks():
            cover[b.y0 : b.y0 + b.height, b.x0 : b.x0 + b.width] += 1
        assert np.all(cover == 1)

    def test_empty_band(self):
        layout = band_layouts(1, 8, 1, 16)[(1, "LH")]  # zero rows
        assert layout.is_empty and layout.grid == (0, 0)
        assert layout.blocks() == []

    def test_resolution_order(self):
        res = resolution_bands(3)
        assert res[0] == [(3, "LL")]
        assert res[1] == [(3, "HL"), (3, "LH"), (3, "HH")]
        assert res[3] == [(1, "HL"), (1, "LH"), (1, "HH")]


class TestLossless:
    @pytest.mark.parametrize("shape", [(64, 64), (60, 100), (33, 17)])
    def test_53_bit_exact(self, shape):
        img = synthetic_image(SyntheticSpec(*shape, kind="mix", seed=11))
        res = encode_image(img, CodecParams(levels=3, filter_name="5/3", cb_size=16))
        rec = decode_image(res.data)
        assert np.array_equal(rec, img)

    def test_53_compresses(self):
        img = synthetic_image(SyntheticSpec(64, 64, "mix", seed=11))
        res = encode_image(img, CodecParams(levels=3, filter_name="5/3", cb_size=16))
        assert res.n_bytes < img.size  # below 8 bpp

    def test_53_tiled_bit_exact(self):
        img = synthetic_image(SyntheticSpec(64, 64, "mix", seed=12))
        res = encode_image(
            img, CodecParams(levels=3, filter_name="5/3", cb_size=16, tile_size=32)
        )
        assert np.array_equal(decode_image(res.data), img)


class TestLossy:
    def test_fine_step_near_lossless(self, medium_image):
        res = encode_image(
            medium_image, CodecParams(levels=3, base_step=1 / 256, cb_size=32)
        )
        rec = decode_image(res.data)
        assert psnr(medium_image, rec) > 48

    def test_quality_monotone_in_step(self, small_image):
        from repro.image import mse

        errs = []
        for base in (8.0, 1.0, 1 / 16):
            res = encode_image(
                small_image, CodecParams(levels=3, base_step=base, cb_size=16)
            )
            errs.append(mse(small_image, decode_image(res.data)))
        assert errs[0] > errs[1] >= errs[2]
        assert errs[0] > errs[2]

    def test_rate_target_respected(self, medium_image):
        res = encode_image(
            medium_image,
            CodecParams(levels=3, base_step=1 / 128, cb_size=32, target_bpp=(0.5,)),
        )
        assert res.rate_bpp() <= 0.5 * 1.25  # within 25% of target

    def test_layer_psnr_monotone(self, medium_image):
        res = encode_image(
            medium_image,
            CodecParams(
                levels=3, base_step=1 / 128, cb_size=32, target_bpp=(0.25, 0.5, 1.5)
            ),
        )
        psnrs = [
            psnr(medium_image, decode_image(res.data, max_layer=k)) for k in range(3)
        ]
        assert psnrs[0] < psnrs[1] < psnrs[2]

    def test_odd_size_image(self):
        img = synthetic_image(SyntheticSpec(45, 77, "mix", seed=13))
        res = encode_image(img, CodecParams(levels=2, base_step=1 / 128, cb_size=16))
        rec = decode_image(res.data)
        assert rec.shape == img.shape
        assert psnr(img, rec) > 40

    def test_tiny_image(self):
        img = synthetic_image(SyntheticSpec(4, 4, "mix", seed=13))
        res = encode_image(img, CodecParams(levels=1, base_step=1 / 128, cb_size=4))
        rec = decode_image(res.data)
        assert psnr(img, rec) > 40

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros((0, 4), dtype=np.uint8), CodecParams())

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros((4, 4, 2), dtype=np.uint8), CodecParams())
        with pytest.raises(ValueError):
            encode_image(np.zeros(16, dtype=np.uint8), CodecParams())


class TestTiling:
    def test_tiled_quality_below_untiled(self, medium_image):
        target = (0.25,)
        res_u = encode_image(
            medium_image,
            CodecParams(levels=3, base_step=1 / 128, cb_size=32, target_bpp=target),
        )
        res_t = encode_image(
            medium_image,
            CodecParams(
                levels=3, base_step=1 / 128, cb_size=32, target_bpp=target, tile_size=32
            ),
        )
        p_u = psnr(medium_image, decode_image(res_u.data))
        p_t = psnr(medium_image, decode_image(res_t.data))
        assert p_u > p_t

    def test_tile_count_in_report(self, medium_image):
        res = encode_image(
            medium_image, CodecParams(levels=2, base_step=1 / 64, cb_size=32, tile_size=64)
        )
        stream = read_codestream(res.data)
        assert stream.params.n_tiles == 4 and len(stream.tiles) == 4
        assert {rec.tile_index for rec in res.blocks} == {0, 1, 2, 3}

    def test_non_dividing_tile_size(self):
        img = synthetic_image(SyntheticSpec(50, 70, "mix", seed=14))
        res = encode_image(
            img, CodecParams(levels=2, base_step=1 / 128, cb_size=16, tile_size=32)
        )
        rec = decode_image(res.data)
        assert rec.shape == img.shape
        assert psnr(img, rec) > 40


@pytest.fixture(scope="module")
def traced_medium(medium_image):
    """The ``encoded_medium`` encode under a tracer: (result, tracer)."""
    tr = Tracer()
    res = encode_image(
        medium_image, CodecParams(levels=3, base_step=1 / 64, cb_size=32), tracer=tr
    )
    return res, tr


class TestInstrumentation:
    def test_all_stages_recorded(self, traced_medium):
        stages = traced_medium[1].stage_seconds()
        for name in (
            "image I/O",
            "intra-component transform",
            "quantization",
            "tier-1 coding",
            "R/D allocation",
            "tier-2 coding",
            "bitstream I/O",
        ):
            assert name in stages
            assert stages[name] >= 0

    def test_work_counters(self, traced_medium, encoded_medium):
        # Stage spans carry no counters: the work is read off the result.
        res, _ = traced_medium
        assert res.data == encoded_medium.data
        assert sum(rec.decisions for rec in res.blocks) > 0
        assert res.image_shape == (128, 128)
        # The transform's samples are exactly what the code-blocks cover.
        assert sum(rec.n_samples for rec in res.blocks) == 128 * 128
        assert res.n_bytes == len(res.data) > 0

    def test_block_records(self, encoded_medium):
        assert encoded_medium.blocks
        for rec in encoded_medium.blocks:
            assert rec.decisions >= 0
            assert rec.n_samples == rec.info.height * rec.info.width
            assert len(rec.weighted_dists) == rec.encoded.n_passes

    def test_decoder_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_image(b"garbage-bytes")

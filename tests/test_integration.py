"""Cross-module integration: the full reproduction pipeline end to end."""

import pytest

from repro import (
    CodecParams,
    INTEL_SMP,
    SGI_POWER_CHALLENGE,
    VerticalStrategy,
    decode_image,
    encode_image,
    measure_pixel_stats,
    psnr,
    scaled_workload,
    simulate_encode,
    synthetic_image,
    SyntheticSpec,
)
from repro.core import theoretical_speedup_from_breakdown
from repro.perf import workload_from_encode_result


class TestRealToSimulatedPipeline:
    """The workflow every experiment uses: real encode -> simulated SMP."""

    def test_full_chain(self, encoded_medium):
        # A 128x128 image is far below the paper's scale: per-phase thread
        # fork/join overhead exceeds the per-phase work, so parallelizing
        # a tiny image is a net LOSS -- a real phenomenon the model
        # captures (the strict speedup check runs at scale below).
        wl = workload_from_encode_result(encoded_medium)
        serial = simulate_encode(wl, INTEL_SMP, 1, VerticalStrategy.NAIVE)
        par = simulate_encode(wl, INTEL_SMP, 4, VerticalStrategy.AGGREGATED)
        assert serial.total_ms > 0 and par.total_ms > 0
        assert par.total_ms < serial.total_ms * 6  # bounded overhead
        bound = theoretical_speedup_from_breakdown(serial, 4)
        assert serial.total_ms / par.total_ms <= bound + 1e-9

    def test_full_chain_at_scale(self, encoded_medium):
        stats = measure_pixel_stats(encoded_medium)
        wl = scaled_workload(1024, 1024, stats)
        serial = simulate_encode(wl, INTEL_SMP, 1, VerticalStrategy.NAIVE)
        par = simulate_encode(wl, INTEL_SMP, 4, VerticalStrategy.AGGREGATED)
        assert par.total_ms < serial.total_ms

    def test_extrapolated_chain(self, encoded_medium):
        stats = measure_pixel_stats(encoded_medium)
        wl = scaled_workload(2048, 2048, stats)
        intel = simulate_encode(wl, INTEL_SMP, 4, VerticalStrategy.AGGREGATED)
        sgi = simulate_encode(wl, SGI_POWER_CHALLENGE, 16, VerticalStrategy.AGGREGATED)
        assert intel.total_ms > 0 and sgi.total_ms > 0

    def test_workload_matches_real_decisions(self, encoded_medium):
        wl = workload_from_encode_result(encoded_medium)
        assert wl.total_decisions == sum(rec.decisions for rec in encoded_medium.blocks)


class TestParallelEncoderEquivalence:
    """The real parallel pipeline components compose into the same image."""

    def test_scalable_stream_is_prefix_decodable(self):
        img = synthetic_image(SyntheticSpec(64, 64, "mix", seed=41))
        res = encode_image(
            img,
            CodecParams(levels=3, base_step=1 / 64, cb_size=16, target_bpp=(0.5, 2.0)),
        )
        low = decode_image(res.data, max_layer=0)
        high = decode_image(res.data, max_layer=1)
        assert psnr(img, high) > psnr(img, low)


class TestDeterminismEndToEnd:
    def test_encode_bitstream_deterministic(self):
        img = synthetic_image(SyntheticSpec(48, 48, "mix", seed=42))
        p = CodecParams(levels=2, base_step=1 / 64, cb_size=16, target_bpp=(1.0,))
        a = encode_image(img, p)
        b = encode_image(img, p)
        assert a.data == b.data

    def test_simulation_deterministic_across_workload_builds(self, encoded_medium):
        stats = measure_pixel_stats(encoded_medium)
        t1 = simulate_encode(scaled_workload(512, 512, stats), INTEL_SMP, 4)
        t2 = simulate_encode(scaled_workload(512, 512, stats), INTEL_SMP, 4)
        assert t1.total_ms == t2.total_ms


class TestPaperHeadlines:
    """The paper's four headline numbers, at reduced scale."""

    @pytest.fixture(scope="class")
    def wl(self, encoded_medium):
        stats = measure_pixel_stats(encoded_medium)
        return scaled_workload(2048, 2048, stats)

    def test_naive_parallel_modest(self, wl):
        s = simulate_encode(wl, INTEL_SMP, 1, VerticalStrategy.NAIVE)
        p = simulate_encode(wl, INTEL_SMP, 4, VerticalStrategy.NAIVE)
        assert 1.3 <= s.total_ms / p.total_ms <= 2.4  # paper: 1.75

    def test_improved_beats_naive(self, wl):
        n = simulate_encode(wl, INTEL_SMP, 4, VerticalStrategy.NAIVE)
        a = simulate_encode(wl, INTEL_SMP, 4, VerticalStrategy.AGGREGATED)
        assert a.total_ms < n.total_ms

    def test_sgi_five_x(self, wl):
        s = simulate_encode(
            wl, SGI_POWER_CHALLENGE, 1, VerticalStrategy.NAIVE, parallel_quant=True
        )
        p = simulate_encode(
            wl, SGI_POWER_CHALLENGE, 10, VerticalStrategy.AGGREGATED, parallel_quant=True
        )
        assert 3.0 <= s.total_ms / p.total_ms <= 9.0  # paper: ~5

    def test_vertical_pathology_headline(self, wl):
        s = simulate_encode(wl, INTEL_SMP, 1, VerticalStrategy.NAIVE)
        assert s.vertical_ms() > 3.0 * s.horizontal_ms()  # paper: 6.7x

"""Depth tests for smaller paths: stage spans, codestream framing,
Huffman length-limiting, helpers."""

import numpy as np
import pytest

from repro.baselines.jpeg.huffman import build_code_lengths, canonical_codes
from repro.image import image_for_kpixels
from repro.obs.tracer import STAGE_NAMES, Tracer, stage_span
from repro.perf.calibrate import PixelStats
from repro.smp import schedule_makespan
from repro.tier2.codestream import CodestreamParams, TilePart, write_codestream, read_codestream


class TestInstrument:
    def test_timed_accumulates(self):
        tr = Tracer()
        for _ in range(2):
            with stage_span(tr, "image I/O"):
                pass
        assert [s.name for s in tr.spans] == ["image I/O", "image I/O"]
        assert tr.stage_seconds()["image I/O"] == pytest.approx(
            sum(s.seconds for s in tr.spans)
        )

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            stage_span(Tracer(), "mystery stage")

    def test_canonical_stage_order(self):
        assert STAGE_NAMES[0] == "image I/O"
        assert STAGE_NAMES[-1] == "bitstream I/O"
        assert "tier-1 coding" in STAGE_NAMES


class TestCodestreamEdge:
    def _params(self):
        return CodestreamParams(
            height=8, width=8, bit_depth=8, levels=1, filter_name="5/3",
            cb_size=8, n_layers=1, tile_size=0, base_step=0.5,
        )

    def test_unexpected_marker_rejected(self):
        data = bytearray(write_codestream(self._params(), [TilePart(0, b"xy")]))
        # Overwrite the SOT marker byte with garbage.
        sot_pos = data.index(0x90, 4)
        data[sot_pos] = 0x42
        with pytest.raises(ValueError, match="marker"):
            read_codestream(bytes(data))

    def test_n_tile_parts_color(self):
        p = CodestreamParams(
            height=64, width=64, bit_depth=8, levels=1, filter_name="9/7",
            cb_size=16, n_layers=1, tile_size=32, base_step=0.5, n_components=3,
        )
        assert p.n_tiles == 4
        assert p.n_tile_parts == 12

    def test_roi_shift_roundtrips(self):
        import dataclasses

        p = dataclasses.replace(self._params(), roi_shift=9)
        data = write_codestream(p, [TilePart(0, b"")])
        assert read_codestream(data).params.roi_shift == 9


class TestHuffmanLengthLimit:
    def test_fibonacci_frequencies_capped_at_16(self):
        """Fibonacci-like frequencies force deep trees; the 16-bit cap
        must hold while preserving the Kraft inequality."""
        freqs = {}
        a, b = 1, 1
        for sym in range(30):
            freqs[sym] = a
            a, b = b, a + b
        lengths = build_code_lengths(freqs)
        assert max(lengths.values()) <= 16
        assert sum(2.0 ** -l for l in lengths.values()) <= 1.0 + 1e-12
        # Decodable canonical code still exists.
        codes = canonical_codes(lengths)
        assert len(codes) == 30

    def test_single_symbol(self):
        assert build_code_lengths({42: 100}) == {42: 1}

    def test_empty(self):
        assert build_code_lengths({}) == {}


class TestHelpers:
    def test_image_for_kpixels_fallback(self):
        img = image_for_kpixels(100, seed=0, kind="edges")  # non-standard size
        assert abs(img.shape[0] * img.shape[1] - 100 * 1024) < 100 * 1024 * 0.1

    def test_pixel_stats_validation(self):
        with pytest.raises(ValueError):
            PixelStats(decisions_per_sample=-1, passes_per_block=1, bytes_per_sample=1)

    def test_makespan_empty(self):
        assert schedule_makespan([], lambda x: x) == 0.0

    def test_decode_breakdown_helpers(self):
        from repro.experiments.common import standard_workload
        from repro.perf import simulate_decode
        from repro.smp import INTEL_SMP

        bd = simulate_decode(standard_workload(256, True), INTEL_SMP, 2)
        assert bd.vertical_ms() > 0
        assert bd.horizontal_ms() > 0
        assert bd.dwt_ms() == 0  # decode uses IDWT phase names
        assert bd.total_ms == pytest.approx(sum(bd.stage_ms.values()))

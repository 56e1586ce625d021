"""Error-resilient decoding: framing, fault injection, concealment.

The contract under test (see DESIGN.md "Error resilience"):

- ``decode_image(..., resilient=True)`` NEVER raises on damaged input
  when the main header survives; it returns a full-size image of the
  original shape/dtype plus a :class:`DecodeReport`.
- Clean framed (v2) streams round-trip exactly as their strict decode.
- Strict decoding fails fast with :class:`CodestreamError` on damage.
- Results are identical for any worker count.
- Fault injection is deterministic.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.codec import CodecParams, decode_image, encode_image
from repro.image import SyntheticSpec, psnr, synthetic_image
from repro.tier2.codestream import CodestreamError, main_header_size, read_version
from repro.tier2.framing import FRAME_OVERHEAD, collect_frames, crc16, parse_frame_at, write_frame

MODES = sorted(faults.FAULT_MODES)


@pytest.fixture(scope="module")
def image():
    return synthetic_image(SyntheticSpec(64, 64, "mix", seed=50))


@pytest.fixture(scope="module")
def framed(image):
    """A layered, rate-targeted v2 (framed) codestream."""
    res = encode_image(
        image,
        CodecParams(
            levels=3, base_step=1 / 64, cb_size=16,
            target_bpp=(0.5, 2.0), resilience=True,
        ),
    )
    return res.data


@pytest.fixture(scope="module")
def unframed(image):
    res = encode_image(
        image,
        CodecParams(levels=3, base_step=1 / 64, cb_size=16, target_bpp=(0.5, 2.0)),
    )
    return res.data


class TestFraming:
    def test_frame_roundtrip(self):
        body = b"the quick brown fox"
        frame = write_frame(7, body)
        assert len(frame) == FRAME_OVERHEAD + len(body)
        seq, out, end = parse_frame_at(frame, 0)
        assert (seq, out, end) == (7, body, len(frame))

    def test_single_bitflips_never_corrupt_body_silently(self):
        # The CRC covers the body: any flip in marker, length, CRC or
        # body raises; a flip inside the 2-byte seq field still parses
        # (seq is advisory) but must deliver the body intact.
        body = b"payload bytes"
        frame = bytearray(write_frame(3, body))
        for bit in range(len(frame) * 8):
            frame[bit // 8] ^= 1 << (bit % 8)
            try:
                _seq, out, _end = parse_frame_at(bytes(frame), 0)
                assert out == body  # only seq flips may survive
                assert 2 <= bit // 8 < 4
            except CodestreamError:
                pass
            frame[bit // 8] ^= 1 << (bit % 8)

    def test_collect_frames_resyncs_past_garbage(self):
        stream = write_frame(0, b"aa") + b"\x00" * 37 + write_frame(1, b"bb")
        frames, skipped = collect_frames(stream)
        assert frames == [(0, b"aa"), (1, b"bb")]
        assert skipped == 37

    def test_crc16_reference_value(self):
        # CRC-16/CCITT-FALSE check value from the standard test vector.
        assert crc16(b"123456789") == 0x29B1


class TestCleanStreams:
    def test_version_bump(self, framed, unframed):
        assert read_version(framed) == 2
        assert read_version(unframed) == 1

    def test_clean_framed_matches_strict(self, framed):
        strict = decode_image(framed)
        resilient, report = decode_image(framed, resilient=True)
        assert np.array_equal(strict, resilient)
        assert report.clean
        assert report.framed
        assert report.packets_dropped == 0
        assert report.blocks_concealed == 0

    def test_clean_unframed_still_decodes_resilient(self, unframed):
        strict = decode_image(unframed)
        resilient, report = decode_image(unframed, resilient=True)
        assert np.array_equal(strict, resilient)
        assert report.clean
        assert not report.framed

    def test_lossless_framed_roundtrip(self, image):
        res = encode_image(
            image,
            CodecParams(filter_name="5/3", levels=3, cb_size=16, resilience=True),
        )
        rec, report = decode_image(res.data, resilient=True)
        assert np.array_equal(rec, image)
        assert report.clean

    def test_framing_overhead_small(self, image):
        p = CodecParams(filter_name="5/3", levels=3, cb_size=16)
        plain = encode_image(image, p).data
        framed = encode_image(image, p.with_(resilience=True)).data
        assert len(framed) - len(plain) < 0.05 * len(plain)


class TestStrictFailsFast:
    def test_corrupt_framed_packet_raises(self, framed):
        skip = main_header_size(True)
        bad = faults.inject(framed, mode="burst", rate=0.02, seed=1, skip_prefix=skip)
        with pytest.raises(CodestreamError):
            decode_image(bad)

    def test_truncated_framed_raises(self, framed):
        with pytest.raises(CodestreamError):
            decode_image(framed[: len(framed) - 40])

    def test_bad_header_crc_raises(self, framed):
        bad = bytearray(framed)
        bad[6] ^= 0xFF  # inside the first main-header copy
        bad[6 + main_header_size(True) // 2] ^= 0xFF  # and the second
        with pytest.raises(CodestreamError):
            decode_image(bytes(bad))


@pytest.mark.fuzz
class TestFuzzResilient:
    @given(
        mode=st.sampled_from(MODES),
        rate=st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_raises_protected_header(self, image, framed, mode, rate, seed):
        """Damage anything past the main header: full-size image, no raise."""
        bad = faults.inject(
            framed, mode=mode, rate=rate, seed=seed,
            skip_prefix=main_header_size(True),
        )
        out, report = decode_image(bad, resilient=True)
        assert out.shape == image.shape
        assert out.dtype == image.dtype
        assert report.bytes_skipped >= 0
        assert report.packets_dropped >= 0

    @given(
        mode=st.sampled_from(MODES),
        rate=st.sampled_from([1e-3, 1e-2, 0.1]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_raises_full_stream(self, framed, mode, rate, seed):
        """Damage ANY byte (headers included): still no raise."""
        bad = faults.inject(framed, mode=mode, rate=rate, seed=seed)
        out, _report = decode_image(bad, resilient=True)
        assert isinstance(out, np.ndarray)
        assert out.size > 0

    @given(
        mode=st.sampled_from(MODES),
        rate=st.sampled_from([1e-3, 1e-2]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=15, deadline=None)
    def test_unframed_resilient_never_raises(self, image, unframed, mode, rate, seed):
        """The v1 best-effort path holds the same no-raise contract."""
        bad = faults.inject(
            unframed, mode=mode, rate=rate, seed=seed,
            skip_prefix=main_header_size(False),
        )
        out, _report = decode_image(bad, resilient=True)
        assert out.shape == image.shape
        assert out.dtype == image.dtype


class TestGracefulDegradation:
    def test_psnr_degrades_monotonically_on_average(self, image, framed):
        skip = main_header_size(True)
        rates = (0.0, 1e-3, 1e-2, 0.1)
        seeds = range(4)
        curve = []
        for rate in rates:
            vals = []
            for seed in seeds:
                bad = faults.inject(
                    framed, mode="burst", rate=rate, seed=seed, skip_prefix=skip
                )
                out, _ = decode_image(bad, resilient=True)
                vals.append(min(psnr(image, out), 99.0))
            curve.append(float(np.mean(vals)))
        # Averaged over seeds the curve never climbs materially, and the
        # heavy-damage end sits clearly below the clean end.
        assert all(b <= a + 2.0 for a, b in zip(curve, curve[1:])), curve
        assert curve[-1] < curve[0] - 3.0, curve

    def test_moderate_damage_keeps_usable_image(self, image, framed):
        bad = faults.inject(
            framed, mode="bitflip", rate=1e-4, seed=9,
            skip_prefix=main_header_size(True),
        )
        out, report = decode_image(bad, resilient=True)
        assert psnr(image, out) > 15.0
        assert not report.clean or psnr(image, out) > 25.0

    def test_report_accounts_for_damage(self, framed):
        skip = main_header_size(True)
        bad = faults.inject(framed, mode="burst", rate=0.05, seed=3, skip_prefix=skip)
        _, report = decode_image(bad, resilient=True)
        assert not report.clean
        damage_seen = (
            report.packets_dropped > 0
            or report.blocks_concealed > 0
            or report.bytes_skipped > 0
            or report.tiles_concealed > 0
        )
        assert damage_seen
        assert "decode report:" in report.summary()


class TestWorkerEquivalence:
    @pytest.mark.parametrize("rate,seed", [(1e-3, 7), (1e-2, 11), (0.1, 13)])
    def test_identical_across_worker_counts(self, framed, rate, seed):
        bad = faults.inject(
            framed, mode="bitflip", rate=rate, seed=seed,
            skip_prefix=main_header_size(True),
        )
        o1, r1 = decode_image(bad, resilient=True, n_workers=1)
        o4, r4 = decode_image(bad, resilient=True, n_workers=4)
        assert np.array_equal(o1, o4)
        assert r1.blocks_concealed == r4.blocks_concealed
        assert r1.packets_dropped == r4.packets_dropped


class TestBackendEquivalence:
    """Damage concealment is backend-invariant: the process pool must
    report exactly the serial path's DecodeReport, not just a similar
    image -- exception capture happens per block on every backend."""

    @pytest.mark.parametrize("rate,seed", [(1e-3, 7), (1e-2, 11), (0.1, 13)])
    def test_resilient_decode_identical_across_backends(
        self, framed, rate, seed, process_backend
    ):
        bad = faults.inject(
            framed, mode="bitflip", rate=rate, seed=seed,
            skip_prefix=main_header_size(True),
        )
        ref_img, ref_rep = decode_image(bad, resilient=True, backend="serial")
        for backend in ("serial", process_backend):
            img, rep = decode_image(
                bad, resilient=True, n_workers=2, backend=backend
            )
            assert np.array_equal(img, ref_img)
            assert rep.blocks_concealed == ref_rep.blocks_concealed
            assert rep.packets_dropped == ref_rep.packets_dropped
            assert rep.summary() == ref_rep.summary()

    @pytest.mark.parametrize("mode", ["truncate", "burst"])
    def test_structural_damage_identical_across_backends(
        self, framed, mode, process_backend
    ):
        bad = faults.inject(
            framed, mode=mode, rate=0.05, seed=3,
            skip_prefix=main_header_size(True),
        )
        ref_img, ref_rep = decode_image(bad, resilient=True, backend="serial")
        img, rep = decode_image(
            bad, resilient=True, n_workers=2, backend=process_backend
        )
        assert np.array_equal(img, ref_img)
        assert rep.summary() == ref_rep.summary()


class TestParallelFaultIsolation:
    @pytest.fixture(scope="class")
    def jobs(self):
        from repro.core.parallel import parallel_encode_blocks

        rng = np.random.default_rng(17)
        coeffs = [
            (rng.integers(-100, 100, size=(16, 16)).astype(np.int32), "LL")
            for _ in range(6)
        ]
        encoded = parallel_encode_blocks(coeffs, n_workers=1)
        return [
            (eb.data, (16, 16), "LL", eb.n_planes, None) for eb in encoded
        ], coeffs

    def test_conceal_isolates_poisoned_block(self, jobs):
        from repro.core.parallel import parallel_decode_blocks

        good_jobs, coeffs = jobs
        poisoned = list(good_jobs)
        poisoned[2] = (None, (16, 16), "LL", 5, None)  # raises in tier-1
        for n in (1, 4):
            outs = parallel_decode_blocks(poisoned, n_workers=n, on_error="conceal")
            assert outs[2] is None
            others = [i for i in range(len(outs)) if i != 2]
            for i in others:
                assert outs[i] is not None
                assert np.array_equal(outs[i][0], coeffs[i][0])

    def test_raise_mode_propagates_after_drain(self, jobs):
        from repro.core.parallel import parallel_decode_blocks

        good_jobs, _ = jobs
        poisoned = list(good_jobs)
        poisoned[0] = (None, (16, 16), "LL", 5, None)
        for n in (1, 4):
            with pytest.raises(Exception):
                parallel_decode_blocks(poisoned, n_workers=n, on_error="raise")

    def test_conceal_isolates_on_process_backend(self, jobs, process_backend):
        """The poisoned block's exception ships back across the process
        boundary and is concealed in place, exactly as in-thread."""
        from repro.core.parallel import parallel_decode_blocks

        good_jobs, coeffs = jobs
        poisoned = list(good_jobs)
        poisoned[2] = (None, (16, 16), "LL", 5, None)
        outs = parallel_decode_blocks(
            poisoned, n_workers=2, on_error="conceal", backend=process_backend
        )
        assert outs[2] is None
        for i in (0, 1, 3, 4, 5):
            assert np.array_equal(outs[i][0], coeffs[i][0])

    def test_results_identical_any_worker_count(self, jobs):
        from repro.core.parallel import parallel_decode_blocks

        good_jobs, _ = jobs
        a = parallel_decode_blocks(good_jobs, n_workers=1)
        b = parallel_decode_blocks(good_jobs, n_workers=4)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x[0], y[0]) and x[1] == y[1]


class TestFaultInjection:
    @pytest.mark.parametrize("mode", MODES)
    def test_deterministic(self, framed, mode):
        a = faults.inject(framed, mode=mode, rate=1e-2, seed=5)
        b = faults.inject(framed, mode=mode, rate=1e-2, seed=5)
        assert a == b
        c = faults.inject(framed, mode=mode, rate=1e-2, seed=6)
        assert a != c

    def test_skip_prefix_protects_prefix(self, framed):
        skip = main_header_size(True)
        for mode in MODES:
            bad = faults.inject(framed, mode=mode, rate=0.1, seed=2, skip_prefix=skip)
            assert bad[:skip] == framed[:skip], mode

    def test_zero_rate_is_identity(self, framed):
        for mode in MODES:
            assert faults.inject(framed, mode=mode, rate=0.0, seed=0) == framed

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultSpec("unknown", 0.1)
        with pytest.raises(ValueError):
            faults.FaultSpec("bitflip", 1.5)
        with pytest.raises(ValueError):
            faults.inject(b"data", mode="bitflip")


class TestCli:
    def test_faults_inject_and_resilient_decode(self, tmp_path, image, framed):
        from repro.cli import main
        from repro.image import read_pnm

        src = tmp_path / "in.rj2k"
        dst = tmp_path / "bad.rj2k"
        out = tmp_path / "out.pgm"
        src.write_bytes(framed)

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main([
                "faults", "inject", str(src), str(dst),
                "--mode", "bitflip", "--rate", "1e-3", "--seed", "3",
                "--protect-header",
            ])
        assert rc == 0
        assert "mode=bitflip" in buf.getvalue()
        assert dst.read_bytes() != framed

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["decode", str(dst), str(out), "--resilient"])
        assert rc == 0
        assert "decode report:" in buf.getvalue()
        assert read_pnm(str(out)).shape == image.shape

    def test_encode_resilient_flag(self, tmp_path, image):
        from repro.cli import main
        from repro.image import write_pnm

        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.rj2k"
        write_pnm(str(src), image)
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main([
                "encode", str(src), str(dst),
                "--resilient", "--lossless", "--levels", "3", "--cb-size", "16",
            ])
        assert rc == 0
        assert read_version(dst.read_bytes()) == 2
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["info", str(dst)])
        assert rc == 0
        assert "v2 resilient" in buf.getvalue()

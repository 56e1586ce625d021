"""Real parallel implementations equal the serial paths exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    parallel_dwt2d,
    parallel_encode_blocks,
    parallel_idwt2d,
    parallel_quantize,
)
from repro.ebcot import encode_codeblock
from repro.quant import quantize
from repro.smp import round_robin, staggered_round_robin
from repro.wavelet import dwt2d, idwt2d


class TestParallelDwt:
    @given(
        st.integers(8, 50),
        st.integers(8, 50),
        st.integers(1, 3),
        st.integers(1, 5),
        st.sampled_from(["5/3", "9/7"]),
    )
    @settings(max_examples=20)
    def test_matches_serial(self, h, w, levels, workers, filt):
        rng = np.random.default_rng(h * 100 + w)
        if filt == "5/3":
            img = rng.integers(-200, 200, size=(h, w)).astype(np.int32)
        else:
            img = rng.normal(scale=50, size=(h, w))
        levels = min(levels, 2)
        serial = dwt2d(img, levels, filt)
        par = parallel_dwt2d(img, levels, filt, n_workers=workers)
        assert np.allclose(par.ll, serial.ll, atol=1e-10)
        for lev in range(levels):
            for o in ("HL", "LH", "HH"):
                assert np.allclose(
                    par.details[lev][o], serial.details[lev][o], atol=1e-10
                )

    @given(st.integers(8, 40), st.integers(1, 5))
    @settings(max_examples=15)
    def test_parallel_inverse_roundtrip(self, n, workers):
        rng = np.random.default_rng(n)
        img = rng.normal(scale=50, size=(n, n + 3))
        sb = parallel_dwt2d(img, 2, "9/7", n_workers=workers)
        rec = parallel_idwt2d(sb, n_workers=workers)
        assert np.allclose(rec, img, atol=1e-8)

    def test_parallel_inverse_matches_serial_inverse(self):
        rng = np.random.default_rng(3)
        img = rng.integers(-100, 100, size=(32, 32)).astype(np.int32)
        sb = dwt2d(img, 2, "5/3")
        assert np.array_equal(parallel_idwt2d(sb, n_workers=3), idwt2d(sb))

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            parallel_dwt2d(np.zeros((8, 8)), 1, "9/7", n_workers=0)

    def test_more_workers_than_columns(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(16, 3))
        par = parallel_dwt2d(img, 1, "9/7", n_workers=8)
        ser = dwt2d(img, 1, "9/7")
        assert np.allclose(par.ll, ser.ll)


class TestParallelBlocks:
    def _blocks(self, rng, n):
        out = []
        for _ in range(n):
            h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
            coeffs = np.round(rng.laplace(0, 20, size=(h, w))).astype(np.int64)
            orient = rng.choice(["LL", "LH", "HL", "HH"])
            out.append((coeffs, str(orient)))
        return out

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("scheduler", [staggered_round_robin, round_robin])
    def test_matches_serial_in_order(self, workers, scheduler):
        rng = np.random.default_rng(5)
        blocks = self._blocks(rng, 13)
        serial = [encode_codeblock(c, o) for c, o in blocks]
        par = parallel_encode_blocks(blocks, n_workers=workers, scheduler=scheduler)
        assert len(par) == len(serial)
        for a, b in zip(par, serial):
            assert a.data == b.data
            assert a.n_planes == b.n_planes

    def test_empty_list(self):
        assert parallel_encode_blocks([], n_workers=3) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            parallel_encode_blocks([], n_workers=0)


class TestParallelQuantize:
    @given(st.integers(1, 400), st.integers(1, 6), st.floats(0.01, 10.0))
    @settings(max_examples=20)
    def test_matches_serial(self, n, workers, step):
        rng = np.random.default_rng(n)
        coeffs = rng.normal(scale=30, size=n)
        par = parallel_quantize(coeffs, step, n_workers=workers)
        assert np.array_equal(par, quantize(coeffs, step))

    def test_2d_shape_preserved(self):
        rng = np.random.default_rng(6)
        coeffs = rng.normal(size=(13, 7))
        out = parallel_quantize(coeffs, 0.5, n_workers=3)
        assert out.shape == (13, 7)

"""The real tier-1 pool equals the serial path exactly."""

import numpy as np
import pytest

from repro.core import parallel_encode_blocks
from repro.core.parallel import _deal, _decode_cost, _encode_cost
from repro.ebcot import encode_codeblock
from repro.image import SyntheticSpec, synthetic_image
from repro.smp import round_robin, schedule_makespan, staggered_round_robin
from repro.wavelet import dwt2d


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
        # The pool deals by predicted cost, not by position: blocks fed in
        # a scheduler's interleaved order still come back in that order.
        rng = np.random.default_rng(5)
        blocks = [b for share in scheduler(self._blocks(rng, 13), 3) for b in share]
        serial = [encode_codeblock(c, o) for c, o in blocks]
        par = parallel_encode_blocks(blocks, n_workers=workers)
        assert len(par) == len(serial)
        for a, b in zip(par, serial):
            assert a.data == b.data
            assert a.n_planes == b.n_planes

    def test_empty_list(self):
        assert parallel_encode_blocks([], n_workers=3) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            parallel_encode_blocks([], n_workers=0)


def _image_blocks(seed, side=128, levels=3, cb=16):
    """Code-blocks of a real 5/3 transform, in scan order, with their
    true tier-1 cost (MQ decisions) and their decode jobs."""
    img = synthetic_image(SyntheticSpec(side, side, "mix", seed=seed))
    sb = dwt2d(img.astype(np.int64) - 128, levels, "5/3")
    bands = [(sb.ll, "LL")] + [
        (lvl[o], o) for lvl in sb.details for o in ("HL", "LH", "HH")
    ]
    blocks = [
        (np.ascontiguousarray(band[y : y + cb, x : x + cb]), o)
        for band, o in bands
        for y in range(0, band.shape[0], cb)
        for x in range(0, band.shape[1], cb)
    ]
    encoded = [encode_codeblock(c, o) for c, o in blocks]
    decisions = [e.total_decisions() for e in encoded]
    jobs = [(e.data, e.shape, e.orient, e.n_planes, None) for e in encoded]
    return blocks, jobs, decisions


class TestDeal:
    """Tier-1 blocks are dealt to workers by predicted cost (LPT)."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_every_index_once_and_deterministic(self, workers):
        blocks, jobs, _ = _image_blocks(seed=3)
        for items, cost in ((blocks, _encode_cost), (jobs, _decode_cost)):
            deal = _deal(items, cost, workers)
            assert len(deal) == workers
            dealt = sorted(i for share in deal for i, _ in share)
            assert dealt == list(range(len(items)))
            for share in deal:
                assert all(payload is items[i] for i, payload in share)
            again = _deal(items, cost, workers)
            assert [[i for i, _ in s] for s in again] == [
                [i for i, _ in s] for s in deal
            ]

    def test_single_worker_keeps_scan_order(self):
        blocks, _, _ = _image_blocks(seed=3)
        (share,) = _deal(blocks, _encode_cost, 1)
        assert [i for i, _ in share] == list(range(len(blocks)))

    @pytest.mark.parametrize("seed", [3, 5, 8])
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_makespan_not_above_staggered_round_robin(self, seed, workers):
        """Measured in MQ decisions, so the check involves no timing."""
        blocks, jobs, decisions = _image_blocks(seed)
        weight = decisions.__getitem__
        staggered = schedule_makespan(
            staggered_round_robin(range(len(blocks)), workers), weight
        )
        for items, cost in ((blocks, _encode_cost), (jobs, _decode_cost)):
            deal = [[i for i, _ in s] for s in _deal(items, cost, workers)]
            assert schedule_makespan(deal, weight) <= staggered

    def test_malformed_block_costs_nothing(self):
        """A bad payload must fail in its kernel, not in the deal."""
        assert _encode_cost((None, "LL")) == 0
        assert _encode_cost(None) == 0
        assert _encode_cost((np.zeros((0, 4), dtype=np.int32), "LL")) == 0
        assert _decode_cost((None, (8, 8), "LL", 5, None)) == 1
        assert _decode_cost((b"abc", (8, 8), "LL", 5, None)) == 4
        assert _encode_cost((np.array([[0, -5], [3, 1]]), "LL")) == 4 * 3


"""PCRD rate allocation: hull properties and budget fitting."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rate import (
    BlockRateInfo,
    allocate_layers,
    allocate_truncation,
    convex_hull_points,
    lambda_for_budget,
)


def _random_blocks(rng, n_blocks):
    blocks = []
    for b in range(n_blocks):
        n = int(rng.integers(1, 12))
        rates = np.cumsum(rng.uniform(1, 50, size=n))
        dists = np.cumsum(rng.uniform(0, 100, size=n))
        blocks.append(BlockRateInfo(b, rates.tolist(), dists.tolist()))
    return blocks


class TestConvexHull:
    def test_hull_slopes_strictly_decreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            rates = np.cumsum(rng.uniform(0.5, 10, size=n))
            dists = np.cumsum(rng.uniform(0, 20, size=n))
            hull = convex_hull_points(rates.tolist(), dists.tolist())
            r_prev = d_prev = 0.0
            prev_slope = float("inf")
            for k in hull:
                slope = (dists[k] - d_prev) / (rates[k] - r_prev)
                assert slope < prev_slope + 1e-9
                assert slope > 0
                prev_slope = slope
                r_prev, d_prev = rates[k], dists[k]

    def test_concave_curve_keeps_all(self):
        rates = [1.0, 2.0, 3.0]
        dists = [10.0, 15.0, 17.0]  # decreasing marginal gain
        assert convex_hull_points(rates, dists) == [0, 1, 2]

    def test_dominated_point_dropped(self):
        rates = [1.0, 2.0, 3.0]
        dists = [1.0, 9.0, 10.0]  # point 0 is dominated by the 0->1 chord
        hull = convex_hull_points(rates, dists)
        assert 0 not in hull and 1 in hull

    def test_useless_pass_never_selected(self):
        rates = [1.0, 2.0]
        dists = [5.0, 5.0]  # second pass reduces nothing
        assert convex_hull_points(rates, dists) == [0]

    def test_empty(self):
        assert convex_hull_points([], []) == []


class TestBudgetFitting:
    @given(st.integers(0, 2**31), st.floats(10.0, 2000.0))
    @settings(max_examples=30)
    def test_budget_respected(self, seed, budget):
        blocks = _random_blocks(np.random.default_rng(seed), 8)
        passes = allocate_truncation(blocks, budget)
        total = sum(
            blocks[i].rates[p - 1] for i, p in enumerate(passes) if p > 0
        )
        assert total <= budget + 1e-6

    def test_infinite_budget_keeps_hull_maximum(self):
        blocks = _random_blocks(np.random.default_rng(1), 5)
        passes = allocate_truncation(blocks, float("inf"))
        for info, p in zip(blocks, passes):
            hull = convex_hull_points(info.rates, info.dists)
            assert p == (hull[-1] + 1 if hull else 0)

    def test_zero_budget_drops_everything(self):
        blocks = _random_blocks(np.random.default_rng(2), 5)
        assert allocate_truncation(blocks, 0.0) == [0] * 5

    def test_rate_monotone_in_lambda(self):
        blocks = _random_blocks(np.random.default_rng(3), 6)
        lams = [0.0, 0.5, 1.0, 5.0, 50.0]
        totals = []
        for lam in lams:
            passes = [
                _passes(blocks[i], lam) for i in range(len(blocks))
            ]
            totals.append(
                sum(blocks[i].rates[p - 1] for i, p in enumerate(passes) if p)
            )
        assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_lambda_for_budget_monotone(self):
        blocks = _random_blocks(np.random.default_rng(4), 6)
        lam_small = lambda_for_budget(blocks, 20.0)
        lam_big = lambda_for_budget(blocks, 500.0)
        assert lam_small >= lam_big


def _passes(info, lam):
    from repro.rate.pcrd import _hull_slopes, _passes_for_lambda

    return _passes_for_lambda(_hull_slopes(info), lam)


class TestLayers:
    def test_layers_monotone_per_block(self):
        blocks = _random_blocks(np.random.default_rng(5), 10)
        alloc = allocate_layers(blocks, [50.0, 150.0, 1000.0])
        for b in range(10):
            seq = [alloc[layer][b] for layer in range(3)]
            assert all(x <= y for x, y in zip(seq, seq[1:]))

    def test_more_budget_more_passes(self):
        blocks = _random_blocks(np.random.default_rng(6), 10)
        alloc = allocate_layers(blocks, [50.0, 500.0])
        assert sum(alloc[1]) >= sum(alloc[0])

    def test_non_increasing_budgets_rejected(self):
        blocks = _random_blocks(np.random.default_rng(7), 2)
        with pytest.raises(ValueError):
            allocate_layers(blocks, [100.0, 100.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BlockRateInfo(0, [1.0], [1.0, 2.0])


class TestHullsOncePerCall:
    @staticmethod
    def _seeded_allocations():
        out = []
        for seed in range(20):
            blocks = _random_blocks(np.random.default_rng(100 + seed), 30)
            total = sum(b.rates[-1] for b in blocks)
            budgets = [total * f for f in (0.05, 0.2, 0.5, 0.9)]
            out.append(
                (allocate_layers(blocks, budgets), allocate_truncation(blocks, total * 0.3))
            )
        return out

    def test_seeded_allocations_unchanged(self):
        # Pinned digest of the allocations for these seeds: computing the
        # hulls once per call must not change any allocation.
        digest = hashlib.sha256(repr(self._seeded_allocations()).encode()).hexdigest()
        assert digest == "e21d24296a82403c650096fa02dd39275a755f44cd3adfaebf0da6dad9ca498b"

    @pytest.mark.parametrize("layered", [False, True])
    def test_one_hull_per_block_per_call(self, monkeypatch, layered):
        from repro.rate import pcrd

        calls = []
        real = pcrd.convex_hull_points

        def counting(rates, dists):
            calls.append(len(rates))
            return real(rates, dists)

        monkeypatch.setattr(pcrd, "convex_hull_points", counting)
        blocks = _random_blocks(np.random.default_rng(8), 12)
        total = sum(b.rates[-1] for b in blocks)
        if layered:
            allocate_layers(blocks, [total * 0.1, total * 0.4, total * 0.8])
        else:
            allocate_truncation(blocks, total * 0.4)
        assert len(calls) == len(blocks)

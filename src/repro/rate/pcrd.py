"""PCRD-opt: convex-hull truncation search and Lagrangian budget fitting.

Given every code-block's pass table (cumulative rate in bytes, distortion
reduction per pass, already weighted by quantizer step and subband
synthesis gain), the allocator:

1. reduces each block's truncation candidates to the vertices of the
   lower convex hull of its rate-distortion curve (slopes strictly
   decreasing) -- truncating anywhere else is dominated;
2. for a Lagrange multiplier ``lambda``, each block independently keeps
   every hull vertex whose distortion-per-byte slope is ``>= lambda``;
3. bisects ``lambda`` so the total chosen rate meets the byte budget.

Each allocation call computes every block's hull once; the bisection
steps only compare ``lambda`` against the precomputed slopes.

Multi-layer allocation runs step 2/3 once per layer with decreasing
budgets, producing the per-layer pass splits tier-2 packs into packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "BlockRateInfo",
    "convex_hull_points",
    "lambda_for_budget",
    "allocate_truncation",
    "allocate_layers",
]


@dataclass
class BlockRateInfo:
    """Rate-distortion candidates of one code-block.

    ``rates[k]`` is the cumulative segment length (bytes) if the block is
    truncated after pass ``k``; ``dists[k]`` the cumulative weighted
    distortion reduction.  Pass 0 of the arrays corresponds to "include
    nothing" and is implicit: arrays start at the first pass.
    """

    block_id: int
    rates: Sequence[float]
    dists: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.rates) != len(self.dists):
            raise ValueError("rates and dists must have equal length")

    @property
    def n_passes(self) -> int:
        return len(self.rates)


def convex_hull_points(rates: Sequence[float], dists: Sequence[float]) -> List[int]:
    """Indices of passes on the lower convex hull of (rate, dist).

    The returned indices have strictly decreasing distortion/rate slopes
    relative to their predecessor on the hull (with the origin prepended),
    which is the feasible-truncation set of PCRD-opt.
    """
    hull: List[int] = []
    for k in range(len(rates)):
        while True:
            r_prev, d_prev = (0.0, 0.0) if not hull else (rates[hull[-1]], dists[hull[-1]])
            dr = rates[k] - r_prev
            dd = dists[k] - d_prev
            if dr <= 0:
                # Same or lower rate with more distortion reduction
                # dominates the previous vertex.
                if dd >= 0 and hull:
                    hull.pop()
                    continue
                break
            slope = dd / dr
            if hull:
                r_pp, d_pp = (
                    (0.0, 0.0)
                    if len(hull) == 1
                    else (rates[hull[-2]], dists[hull[-2]])
                )
                prev_slope = (dists[hull[-1]] - d_pp) / max(rates[hull[-1]] - r_pp, 1e-12)
                if slope >= prev_slope:
                    hull.pop()
                    continue
            if dd <= 0:
                break  # adding this pass reduces nothing: never truncate here
            hull.append(k)
            break
    return hull


_Hull = Tuple[List[int], List[float]]


def _hull_slopes(info: BlockRateInfo) -> _Hull:
    """Hull vertices of one block and the slope into each of them."""
    hull = convex_hull_points(info.rates, info.dists)
    slopes: List[float] = []
    r_prev = d_prev = 0.0
    for k in hull:
        dr = info.rates[k] - r_prev
        dd = info.dists[k] - d_prev
        slopes.append(dd / max(dr, 1e-12))
        r_prev, d_prev = info.rates[k], info.dists[k]
    return hull, slopes


def _passes_for_lambda(hull: _Hull, lam: float) -> int:
    """Number of passes kept at multiplier ``lam`` (0 = drop block)."""
    chosen = 0
    for k, slope in zip(*hull):
        if slope >= lam:
            chosen = k + 1
        else:
            break
    return chosen


def _total_rate(blocks: Sequence[BlockRateInfo], hulls: Sequence[_Hull], lam: float) -> float:
    total = 0.0
    for info, hull in zip(blocks, hulls):
        n = _passes_for_lambda(hull, lam)
        if n:
            total += info.rates[n - 1]
    return total


def _lambda_for_budget(
    blocks: Sequence[BlockRateInfo], hulls: Sequence[_Hull], budget_bytes: float
) -> float:
    if budget_bytes <= 0:
        return math.inf
    if _total_rate(blocks, hulls, 0.0) <= budget_bytes:
        return 0.0  # everything fits
    lo, hi = 0.0, 1.0
    while _total_rate(blocks, hulls, hi) > budget_bytes:
        hi *= 2.0
        if hi > 1e18:
            return math.inf
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _total_rate(blocks, hulls, mid) > budget_bytes:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return hi


def _allocate(
    blocks: Sequence[BlockRateInfo], hulls: Sequence[_Hull], budget_bytes: float
) -> List[int]:
    lam = _lambda_for_budget(blocks, hulls, budget_bytes)
    return [_passes_for_lambda(hull, lam) for hull in hulls]


def lambda_for_budget(
    blocks: Sequence[BlockRateInfo], budget_bytes: float, tol: float = 0.5
) -> float:
    """Largest ``lambda`` whose total chosen rate fits ``budget_bytes``.

    Bisection over the slope range; deterministic and monotone (rate is
    non-increasing in ``lambda``).
    """
    return _lambda_for_budget(blocks, [_hull_slopes(b) for b in blocks], budget_bytes)


def allocate_truncation(
    blocks: Sequence[BlockRateInfo], budget_bytes: float
) -> List[int]:
    """Single-layer allocation: passes kept per block under the budget."""
    return _allocate(blocks, [_hull_slopes(b) for b in blocks], budget_bytes)


def allocate_layers(
    blocks: Sequence[BlockRateInfo], layer_budgets: Sequence[float]
) -> List[List[int]]:
    """Multi-layer allocation.

    ``layer_budgets`` are *cumulative* byte budgets, strictly increasing
    (e.g. the byte targets of 0.0625/0.125/.../2.0 bpp layers).  Returns
    ``alloc[layer][block]`` = cumulative passes of ``block`` included up
    to ``layer``; monotone per block across layers.
    """
    if any(
        b2 <= b1 for b1, b2 in zip(layer_budgets, list(layer_budgets)[1:])
    ):
        raise ValueError("layer budgets must be strictly increasing")
    hulls = [_hull_slopes(b) for b in blocks]
    out: List[List[int]] = []
    floor = [0] * len(blocks)
    for budget in layer_budgets:
        passes = _allocate(blocks, hulls, budget)
        passes = [max(p, f) for p, f in zip(passes, floor)]
        out.append(passes)
        floor = passes
    return out

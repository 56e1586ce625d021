"""Context formation for the tier-1 bit-plane coder (T.800 Annex D).

Nineteen MQ contexts:

====  =======================================================
0-8   zero coding (significance), mapping depends on subband
9-13  sign coding (with an XOR predicate on the coded bit)
14-16 magnitude refinement
17    run-length (cleanup stripe columns)
18    UNIFORM (cleanup position bits)
====  =======================================================

All functions are vectorized over whole code-blocks: neighbor counts are
sums of shifted slices, then mapped through small lookup tables.  This
follows the repository's NumPy-vectorization guide and is what makes the
tier-1 bookkeeping fast enough for full images.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "N_CONTEXTS",
    "CTX_RUN",
    "CTX_UNIFORM",
    "zero_coding_context",
    "sign_context_and_xor",
    "refinement_context",
    "neighbor_counts",
]

N_CONTEXTS = 19
CTX_RUN = 17
CTX_UNIFORM = 18


def _hv_sums(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sums of ``x`` over the horizontal and the vertical neighbors.

    Shifted slices are added into zero arrays: samples outside the
    code-block count as zero (insignificant), per the standard (code-blocks
    are coded independently).
    """
    h = np.zeros(x.shape, dtype=np.int64)
    h[:, 1:] += x[:, :-1]
    h[:, :-1] += x[:, 1:]
    v = np.zeros(x.shape, dtype=np.int64)
    v[1:] += x[:-1]
    v[:-1] += x[1:]
    return h, v


def neighbor_counts(sig: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Horizontal / vertical / diagonal significant-neighbor counts.

    Returns ``(H, V, D)`` arrays of the block's shape; ``H`` in 0..2,
    ``V`` in 0..2, ``D`` in 0..4.
    """
    x = sig.astype(np.int64)
    h, v = _hv_sums(x)
    d = np.zeros(x.shape, dtype=np.int64)
    d[1:, 1:] += x[:-1, :-1]
    d[1:, :-1] += x[:-1, 1:]
    d[:-1, 1:] += x[1:, :-1]
    d[:-1, :-1] += x[1:, 1:]
    return h, v, d


# Lookup tables indexed by clipped (H, V, D) triples -------------------------

def _build_lh_table() -> np.ndarray:
    """ZC context for LL/LH subbands, indexed [H][V][min(D,2)]."""
    t = np.zeros((3, 3, 3), dtype=np.int64)
    for h in range(3):
        for v in range(3):
            for d in range(3):
                if h == 2:
                    ctx = 8
                elif h == 1:
                    ctx = 7 if v >= 1 else (6 if d >= 1 else 5)
                else:
                    if v == 2:
                        ctx = 4
                    elif v == 1:
                        ctx = 3
                    else:
                        ctx = 2 if d >= 2 else (1 if d == 1 else 0)
                t[h, v, d] = ctx
    return t


def _build_hh_table() -> np.ndarray:
    """ZC context for HH subbands, indexed [min(H+V,2)][min(D,3)]."""
    t = np.zeros((5, 5), dtype=np.int64)
    for hv in range(5):
        for d in range(5):
            if d >= 3:
                ctx = 8
            elif d == 2:
                ctx = 7 if hv >= 1 else 6
            elif d == 1:
                ctx = 5 if hv >= 2 else (4 if hv == 1 else 3)
            else:
                ctx = 2 if hv >= 2 else (1 if hv == 1 else 0)
            t[hv, d] = ctx
    return t


_LH_TABLE = _build_lh_table()
_HH_TABLE = _build_hh_table()


def zero_coding_context(sig: np.ndarray, orient: str) -> np.ndarray:
    """Zero-coding context (0..8) per sample from the significance state.

    ``orient`` is the subband type: ``"LL"``/``"LH"`` use the
    horizontal-dominant mapping, ``"HL"`` the transposed one, ``"HH"``
    the diagonal-dominant one (T.800 Table D.1).
    """
    h, v, d = neighbor_counts(sig)
    if orient == "HL":
        h, v = v, h  # HL is the transpose of LH
    elif orient not in ("LL", "LH", "HH"):
        raise ValueError(f"unknown subband orientation {orient!r}")
    if orient == "HH":
        hv = np.minimum(h + v, 4)
        return _HH_TABLE[hv, np.minimum(d, 4)]
    return _LH_TABLE[h, v, np.minimum(d, 2)]


# Table D.3, indexed by the clipped sign contributions [H + 1][V + 1].
_SC_CTX = np.array([[13, 12, 11], [10, 9, 10], [11, 12, 13]], dtype=np.int64)
_SC_XOR = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=np.int64)


def sign_context_and_xor(sig: np.ndarray, signs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sign-coding context (9..13) and XOR predicate per sample.

    ``signs`` holds -1/+1 (only meaningful where ``sig`` is set).  The
    horizontal / vertical sign contributions are clipped to -1..1 and
    mapped through T.800 Table D.3.
    """
    contrib = np.where(sig.astype(bool), np.where(signs < 0, -1, 1), 0)
    h, v = _hv_sums(contrib)
    # Each sum is in -2..2, so its sign is the clipped contribution.
    h = np.sign(h) + 1
    v = np.sign(v) + 1
    return _SC_CTX[h, v], _SC_XOR[h, v]


def refinement_context(sig: np.ndarray, refined_before: np.ndarray) -> np.ndarray:
    """Magnitude-refinement context (14..16) per sample (Table D.4).

    First refinement with no significant neighbors -> 14, first
    refinement with neighbors -> 15, subsequent refinements -> 16.
    """
    h, v, d = neighbor_counts(sig)
    any_neighbor = (h + v + d) > 0
    ctx = np.where(refined_before.astype(bool), 16, np.where(any_neighbor, 15, 14))
    return ctx.astype(np.int64)

"""Two-dimensional multilevel Mallat decomposition.

At every decomposition level the current LL band is filtered along its
columns (**vertical filtering** -- the cache-hostile direction on row-major
arrays) and along its rows (**horizontal filtering**), producing the four
subbands ``LL``, ``HL``, ``LH``, ``HH``; the ``LL`` band then recurses.
The paper's default configuration is a five-level 9/7 decomposition.

Subband naming follows JPEG2000: the first letter is the *horizontal*
filter, the second the *vertical* filter; ``HL`` therefore contains
vertical-edge energy.  Level 1 is the finest (first) decomposition level.

The numerical transform here is strategy-independent -- the naive,
aggregated-columns and padded-width variants of Sec. 3.2 compute identical
coefficients and differ only in their memory-access schedule, which is
modelled by :mod:`repro.wavelet.strategies` and :mod:`repro.cachesim`.
(:func:`repro.wavelet.strategies.filter_columns_chunked` demonstrates the
numerical equivalence of column aggregation and is exercised in tests.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .filters import get_filter
from .lifting import dwt1d, idwt1d

__all__ = ["Subbands", "dwt2d", "idwt2d", "subband_shapes", "synthesis_energy_gain"]

_ORIENTS = ("HL", "LH", "HH")


@dataclass
class Subbands:
    """A multilevel 2-D wavelet decomposition.

    Attributes
    ----------
    ll:
        The residual lowpass band after ``levels`` decompositions.
    details:
        ``details[k]`` holds the ``{"HL", "LH", "HH"}`` bands of level
        ``k + 1`` (level 1 = finest).
    shape:
        Original image shape ``(H, W)``.
    filter_name:
        ``"5/3"`` or ``"9/7"``.
    """

    ll: np.ndarray
    details: List[Dict[str, np.ndarray]]
    shape: Tuple[int, int]
    filter_name: str = "9/7"

    @property
    def levels(self) -> int:
        """Number of decomposition levels."""
        return len(self.details)

    def band(self, level: int, orient: str) -> np.ndarray:
        """Return one subband; ``orient="LL"`` requires ``level == levels``."""
        if orient == "LL":
            if level != self.levels:
                raise ValueError(f"LL exists only at level {self.levels}")
            return self.ll
        if not 1 <= level <= self.levels:
            raise ValueError(f"level {level} out of range 1..{self.levels}")
        return self.details[level - 1][orient]

    def iter_bands(self):
        """Yield ``(level, orient, array)`` coarse-to-fine, LL first.

        This is the resolution-progressive order tier-2 uses to emit
        packets.
        """
        yield self.levels, "LL", self.ll
        for level in range(self.levels, 0, -1):
            for orient in _ORIENTS:
                yield level, orient, self.details[level - 1][orient]

    def total_coefficients(self) -> int:
        """Number of coefficients across every subband (== H*W)."""
        return self.ll.size + sum(b.size for d in self.details for b in d.values())

    def to_matrix(self) -> np.ndarray:
        """Pack into the classic Mallat single-matrix layout.

        ``LL`` sits in the top-left corner, each level's ``HL`` to its
        right, ``LH`` below, ``HH`` diagonal.  Used by the SPIHT baseline
        and by visualization helpers.
        """
        h, w = self.shape
        out = np.zeros((h, w), dtype=self.ll.dtype)
        shapes = subband_shapes(h, w, self.levels)
        out[: self.ll.shape[0], : self.ll.shape[1]] = self.ll
        for level in range(1, self.levels + 1):
            lh_, hl_, hh_ = (self.details[level - 1][o] for o in ("LH", "HL", "HH"))
            (ll_h, ll_w) = shapes[(level, "LL")]
            out[:hl_.shape[0], ll_w : ll_w + hl_.shape[1]] = hl_
            out[ll_h : ll_h + lh_.shape[0], : lh_.shape[1]] = lh_
            out[ll_h : ll_h + hh_.shape[0], ll_w : ll_w + hh_.shape[1]] = hh_
        return out

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, levels: int, filter_name: str = "9/7"
    ) -> "Subbands":
        """Inverse of :meth:`to_matrix`."""
        h, w = matrix.shape
        shapes = subband_shapes(h, w, levels)
        details: List[Dict[str, np.ndarray]] = []
        for level in range(1, levels + 1):
            ll_h, ll_w = shapes[(level, "LL")]
            hl_h, hl_w = shapes[(level, "HL")]
            lh_h, lh_w = shapes[(level, "LH")]
            hh_h, hh_w = shapes[(level, "HH")]
            details.append(
                {
                    "HL": matrix[:hl_h, ll_w : ll_w + hl_w].copy(),
                    "LH": matrix[ll_h : ll_h + lh_h, :lh_w].copy(),
                    "HH": matrix[ll_h : ll_h + hh_h, ll_w : ll_w + hh_w].copy(),
                }
            )
        ll_h, ll_w = shapes[(levels, "LL")]
        return cls(
            ll=matrix[:ll_h, :ll_w].copy(),
            details=details,
            shape=(h, w),
            filter_name=filter_name,
        )


def subband_shapes(height: int, width: int, levels: int) -> Dict[Tuple[int, str], Tuple[int, int]]:
    """Shapes of every subband of a ``levels``-deep decomposition.

    Returns a dict keyed ``(level, orient)``; ``(level, "LL")`` is the
    intermediate LL shape after ``level`` decompositions (the final LL for
    ``level == levels``).  Lowpass channels get the ceiling split.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    shapes: Dict[Tuple[int, str], Tuple[int, int]] = {}
    h, w = height, width
    for level in range(1, levels + 1):
        lo_h, hi_h = (h + 1) // 2, h // 2
        lo_w, hi_w = (w + 1) // 2, w // 2
        shapes[(level, "LL")] = (lo_h, lo_w)
        shapes[(level, "HL")] = (lo_h, hi_w)
        shapes[(level, "LH")] = (hi_h, lo_w)
        shapes[(level, "HH")] = (hi_h, hi_w)
        h, w = lo_h, lo_w
    return shapes


def dwt2d(image: np.ndarray, levels: int, filter_name: str = "9/7") -> Subbands:
    """Forward multilevel 2-D DWT.

    Parameters
    ----------
    image:
        ``(H, W)`` array.  Integer for 5/3; any numeric dtype for 9/7.
    levels:
        Number of decomposition levels (paper default: 5).
    filter_name:
        ``"5/3"`` or ``"9/7"``.

    The codec calls this on every execution backend: the paper's
    parallel DWT is reproduced by the simulator (:mod:`repro.smp`).
    """
    bank = get_filter(filter_name)
    a = np.asarray(image)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {a.shape}")
    if levels < 0:
        raise ValueError("levels must be non-negative")
    max_levels = _max_levels(a.shape)
    if levels > max_levels:
        raise ValueError(f"{levels} levels exceeds maximum {max_levels} for shape {a.shape}")
    if bank.reversible and not np.issubdtype(a.dtype, np.integer):
        raise TypeError("5/3 transform requires integer input")
    details: List[Dict[str, np.ndarray]] = []
    current = a if bank.reversible else np.asarray(a, dtype=np.float64)
    for _ in range(levels):
        # Vertical filtering: along columns (axis 0).
        low_v, high_v = dwt1d(current, bank)
        # Horizontal filtering: along rows (axis 1), via transpose.
        ll, hl = (b.T for b in dwt1d(low_v.T, bank))
        lh, hh = (b.T for b in dwt1d(high_v.T, bank))
        details.append({"HL": np.ascontiguousarray(hl), "LH": np.ascontiguousarray(lh), "HH": np.ascontiguousarray(hh)})
        current = np.ascontiguousarray(ll)
    return Subbands(ll=current, details=details, shape=a.shape, filter_name=filter_name)


def idwt2d(subbands: Subbands) -> np.ndarray:
    """Inverse multilevel 2-D DWT (bit-exact for 5/3 integer input)."""
    bank = get_filter(subbands.filter_name)
    current = subbands.ll
    for level in range(subbands.levels, 0, -1):
        bands = subbands.details[level - 1]
        hl, lh, hh = bands["HL"], bands["LH"], bands["HH"]
        low_v = idwt1d(current.T, hl.T, bank).T
        high_v = idwt1d(lh.T, hh.T, bank).T
        current = idwt1d(low_v, high_v, bank)
    return current


def _max_levels(shape: Tuple[int, int]) -> int:
    """Deepest decomposition such that every level has >= 1 row and column."""
    n = min(shape)
    levels = 0
    while n > 1:
        n = (n + 1) // 2
        levels += 1
    return levels


@lru_cache(maxsize=None)
def synthesis_energy_gain(filter_name: str, level: int, orient: str) -> float:
    """Squared L2 norm of the synthesis basis functions of one subband.

    This is the factor by which unit quantization noise in a subband
    inflates image-domain MSE; the PCRD rate allocator weights per-pass
    distortion estimates with it.  Computed empirically: synthesize a
    unit impulse placed in the subband and measure the image-domain energy
    (averaged over a few impulse positions to smooth phase effects), which
    keeps the value exactly consistent with this implementation's lifting
    normalization.
    """
    from .filters import FILTER_5_3_FLOAT, FILTER_9_7

    if level == 0:
        # Zero-level decomposition: the "LL band" is the image itself.
        if orient != "LL":
            raise ValueError("level 0 has only the LL band")
        return 1.0
    bank = FILTER_9_7 if filter_name in ("9/7", "97") else FILTER_5_3_FLOAT
    size = 1 << (level + 4)  # comfortably larger than the filter support
    shapes = subband_shapes(size, size, level)
    energies = []
    for offset in (0, 1):
        details = []
        for lev in range(1, level + 1):
            details.append(
                {o: np.zeros(shapes[(lev, o)], dtype=np.float64) for o in _ORIENTS}
            )
        ll = np.zeros(shapes[(level, "LL")], dtype=np.float64)
        target = ll if orient == "LL" else details[level - 1][orient]
        pos = (target.shape[0] // 2 + offset, target.shape[1] // 2 + offset)
        target[pos] = 1.0
        sb = Subbands(ll=ll, details=details, shape=(size, size), filter_name=bank.name)
        rec = idwt2d(sb)
        energies.append(float(np.sum(rec * rec)))
    return float(np.mean(energies))

"""Codec configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from ..core.supervise import SupervisionPolicy

__all__ = ["CodecParams"]


@dataclass(frozen=True)
class CodecParams:
    """Parameters of one encoding run.

    Defaults mirror the paper's description of the JPEG2000 defaults:
    five-level 9/7 decomposition, 64x64 code-blocks, untiled.

    Attributes
    ----------
    levels:
        Wavelet decomposition depth.
    filter_name:
        ``"9/7"`` (lossy) or ``"5/3"`` (reversible).
    cb_size:
        Code-block side length (power of two, <= 64: blocks of "no more
        than 64x64 coefficients").
    base_step:
        Image-domain quantizer step for the 9/7 path (ignored for 5/3).
    target_bpp:
        Cumulative layer rates in bits/pixel (e.g. ``(0.25, 1.0)`` builds
        two quality layers).  ``None`` = single lossless-budget layer
        (everything coded is kept).
    tile_size:
        Side of square tiles; 0 disables tiling (global transform).
    bit_depth:
        Sample precision of the input (8 for the experiments).
    resilience:
        Write the error-resilient (v2) codestream: CRC-protected
        duplicated main header, CRC'd SOT markers, and an SOP-style
        resync frame around every packet, so a damaged stream can be
        decoded with ``decode_image(..., resilient=True)`` dropping only
        the damaged packets.  Costs a few bytes per packet (< 3% on the
        standard 512x512 image); off by default.
    supervision:
        Run the parallel stages under a
        :class:`~repro.core.supervise.SupervisionPolicy`: worker death
        and phase-deadline expiry trigger pool rebuilds and bounded
        retries of only the unfinished work, and exhausted retries walk
        the ``processes -> serial`` degradation ladder instead of
        failing the image.  ``None`` (the default) keeps the
        historical fail-fast behaviour; explicit ``supervise=``
        arguments to ``encode_image``/``decode_image`` override this.
    """

    levels: int = 5
    filter_name: str = "9/7"
    cb_size: int = 64
    base_step: float = 1.0 / 128.0
    target_bpp: Optional[Tuple[float, ...]] = None
    tile_size: int = 0
    bit_depth: int = 8
    resilience: bool = False
    supervision: Optional[SupervisionPolicy] = None

    def __post_init__(self) -> None:
        if self.levels < 0:
            raise ValueError("levels must be non-negative")
        if self.cb_size < 4 or self.cb_size > 64 or self.cb_size & (self.cb_size - 1):
            raise ValueError("cb_size must be a power of two in 4..64")
        if self.filter_name not in ("9/7", "5/3"):
            raise ValueError("filter_name must be '9/7' or '5/3'")
        if self.tile_size < 0:
            raise ValueError("tile_size must be non-negative")
        if self.bit_depth < 1 or self.bit_depth > 16:
            raise ValueError("bit_depth must be in 1..16")
        if self.supervision is not None and not isinstance(
            self.supervision, SupervisionPolicy
        ):
            raise TypeError("supervision must be a SupervisionPolicy or None")
        if self.target_bpp is not None:
            rates = tuple(self.target_bpp)
            if not rates or any(r <= 0 for r in rates):
                raise ValueError("target_bpp entries must be positive")
            if any(b >= a for b, a in zip(rates, rates[1:])):
                raise ValueError("target_bpp must be strictly increasing")
            object.__setattr__(self, "target_bpp", rates)

    @property
    def n_layers(self) -> int:
        return 1 if self.target_bpp is None else len(self.target_bpp)

    def with_(self, **kwargs) -> "CodecParams":
        """Functional update."""
        return replace(self, **kwargs)

    def effective_levels(self, height: int, width: int) -> int:
        """Decomposition depth clamped to what the (tile) size allows."""
        n = min(height, width)
        levels = 0
        while n > 1 and levels < self.levels:
            n = (n + 1) // 2
            levels += 1
        return levels

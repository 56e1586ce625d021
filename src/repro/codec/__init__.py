"""The JPEG2000-style codec: full encoder and decoder pipelines.

This package wires the substrates together into the coding pipeline of
the paper's Fig. 1:

    image I/O -> pipeline setup -> inter-component transform ->
    intra-component (wavelet) transform -> quantization ->
    tier-1 coding -> rate allocation -> tier-2 coding -> bitstream I/O

Every stage runs inside a :func:`repro.obs.stage_span`: pass a
:class:`repro.obs.Tracer` to ``encode_image``/``decode_image`` to get
the Fig. 3 stage profile (wall-clock seconds, a Python-implementation
artifact never compared against the paper).  The *work* the stages did
is read off the :class:`EncodeResult` -- per-block tier-1 decision
counts in ``blocks``, bytes in ``n_bytes`` -- and is what
:mod:`repro.perf` converts into simulated milliseconds on the paper's
machines.

Tiling (``CodecParams.tile_size``) runs the whole transform-and-code
pipeline independently per tile, exactly the "traditional" JPEG-style
parallelization whose quality collapse Fig. 5 documents.
"""

from .params import CodecParams
from .blocks import BandLayout, BlockInfo, band_layouts, resolution_bands
from .encoder import encode_image, EncodeResult
from .decoder import decode_image
from .resilience import DecodeReport, TileStats

__all__ = [
    "CodecParams",
    "BandLayout",
    "BlockInfo",
    "band_layouts",
    "resolution_bands",
    "encode_image",
    "EncodeResult",
    "decode_image",
    "DecodeReport",
    "TileStats",
]

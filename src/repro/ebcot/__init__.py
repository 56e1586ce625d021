"""EBCOT tier-1: context-adaptive arithmetic bit-plane coding.

JPEG2000's tier-1 ("Embedded Block Coding with Optimized Truncation",
Taubman) codes each code-block of quantized wavelet coefficients
independently -- the property the paper exploits for parallelism: "no
synchronization is necessary due to the processing of independent
code-blocks".

Implemented from scratch:

- :mod:`repro.ebcot.mq` -- the MQ binary arithmetic coder (46+1-state
  probability estimation table, byte-stuffing, carry handling) with a
  matching decoder.  Its per-decision loops are C (``mq.c``, compiled
  by :mod:`repro.native` on first import): the encoder codes a whole
  pass's symbol array per call, the decoder a whole significance or
  cleanup pass, or a refinement pass's context list, per call.  The
  pure-Python coder it is tested against lives in ``tests/mq_spec.py``.
- :mod:`repro.ebcot.tables` -- context formation tables: zero-coding
  contexts per subband orientation, sign contexts with XOR predicate,
  magnitude-refinement contexts.
- :mod:`repro.ebcot.t1` -- the bit-plane coder: significance propagation,
  magnitude refinement and cleanup passes over 4-row stripes, with
  per-pass rate and distortion bookkeeping for the PCRD rate allocator,
  plus the matching decoder.  Context formation and pass bookkeeping
  are whole-array NumPy; each pass reaches the C coder in one call.

Implementation note (documented deviation): context formation freezes the
significance state at pass boundaries (a Jacobi update) instead of
updating it sample-by-sample within a pass (Gauss-Seidel) as T.800
specifies.  Encoder and decoder agree exactly, streams round-trip
bit-exactly, and rate/distortion behaviour is within a few percent of the
standard schedule; the freeze is what allows the context computation --
and with it each pass's whole ``(decision, context)`` sequence -- to be
vectorized with NumPy, following this repository's performance guides.
Samples whose neighbourhood becomes significant mid-pass are simply
picked up by the cleanup pass of the same plane.
"""

from .mq import MQEncoder, MQDecoder
from .t1 import CodeBlockEncoder, CodeBlockDecoder, CodingPass, encode_codeblock, decode_codeblock

__all__ = [
    "MQEncoder",
    "MQDecoder",
    "CodeBlockEncoder",
    "CodeBlockDecoder",
    "CodingPass",
    "encode_codeblock",
    "decode_codeblock",
]

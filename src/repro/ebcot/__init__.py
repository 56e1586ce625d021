"""EBCOT tier-1: context-adaptive arithmetic bit-plane coding.

JPEG2000's tier-1 ("Embedded Block Coding with Optimized Truncation",
Taubman) codes each code-block of quantized wavelet coefficients
independently -- the property the paper exploits for parallelism: "no
synchronization is necessary due to the processing of independent
code-blocks".

Implemented from scratch:

- :mod:`repro.ebcot.mq` -- the MQ binary arithmetic coder (46+1-state
  probability estimation table, byte-stuffing, carry handling) with a
  matching decoder.  The encoder has one coding loop,
  ``MQEncoder.encode_many``, which codes a whole decision stream with
  its registers in local variables.
- :mod:`repro.ebcot.tables` -- context formation tables: zero-coding
  contexts per subband orientation, sign contexts with XOR predicate,
  magnitude-refinement contexts.
- :mod:`repro.ebcot.t1` -- the bit-plane coder: significance propagation,
  magnitude refinement and cleanup passes over 4-row stripes, with
  per-pass rate and distortion bookkeeping for the PCRD rate allocator,
  plus the matching decoder.  The encoder builds each pass's decision
  stream with whole-array NumPy and codes it in one ``encode_many``
  call; the decoder decodes sequentially from per-pass Python lists.

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

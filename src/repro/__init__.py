"""repro -- reproduction of "Parallel JPEG2000 Image Coding on
Multiprocessors" (Meerwald, Norcen, Uhl; IPPS 2002).

A from-scratch JPEG2000-style codec (wavelet transform, dead-zone
quantization, EBCOT tier-1 with MQ coder, tier-2 packets, PCRD rate
allocation), the comparator codecs (DCT JPEG, SPIHT), and the paper's
SMP parallelization -- parallel DWT, code-block worker pool, cache-aware
vertical filtering -- evaluated on a deterministic simulated
multiprocessor with a validated set-associative cache and shared-bus
model.

Quick start::

    import repro
    img = repro.synthetic_image(repro.SyntheticSpec(512, 512))
    result = repro.encode_image(img, repro.CodecParams(target_bpp=(0.25,)))
    rec = repro.decode_image(result.data)
    print(repro.psnr(img, rec), result.rate_bpp())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from .image import (
    SyntheticSpec,
    synthetic_image,
    image_for_kpixels,
    psnr,
    mse,
    rate_bpp,
    read_pnm,
    write_pnm,
)
from .codec import CodecParams, DecodeReport, encode_image, decode_image
from .wavelet import dwt2d, idwt2d, Subbands, VerticalStrategy
from .core import parallel_encode_blocks, parallel_decode_blocks, amdahl_speedup
from .smp import INTEL_SMP, SGI_POWER_CHALLENGE, SimulatedSMP, MachineSpec
from .perf import simulate_encode, Workload, scaled_workload, measure_pixel_stats
from .baselines import jpeg_encode, jpeg_decode, spiht_encode, spiht_decode
from .obs import (
    Tracer,
    MetricsRegistry,
    amdahl_report,
    chrome_trace,
    stage_table,
)

__version__ = "1.0.0"


def __getattr__(name):
    # Lazy submodule: the service layer pulls in asyncio + executor
    # machinery and must never ride along on a plain encode/decode
    # (benchmarks/bench_serve.py probes this in a fresh interpreter).
    if name == "serve":
        import importlib

        module = importlib.import_module(".serve", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SyntheticSpec",
    "synthetic_image",
    "image_for_kpixels",
    "psnr",
    "mse",
    "rate_bpp",
    "read_pnm",
    "write_pnm",
    "CodecParams",
    "DecodeReport",
    "encode_image",
    "decode_image",
    "dwt2d",
    "idwt2d",
    "Subbands",
    "VerticalStrategy",
    "parallel_encode_blocks",
    "parallel_decode_blocks",
    "amdahl_speedup",
    "INTEL_SMP",
    "SGI_POWER_CHALLENGE",
    "SimulatedSMP",
    "MachineSpec",
    "simulate_encode",
    "Workload",
    "scaled_workload",
    "measure_pixel_stats",
    "jpeg_encode",
    "jpeg_decode",
    "spiht_encode",
    "spiht_decode",
    "Tracer",
    "MetricsRegistry",
    "amdahl_report",
    "chrome_trace",
    "stage_table",
    "__version__",
]

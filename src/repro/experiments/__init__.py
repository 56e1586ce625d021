"""One experiment module per figure of the paper's evaluation.

Every module exposes ``run(quick=False) -> ExperimentResult``:

=====================  =====================================================
``fig02_timings``      Compression timings of JPEG / SPIHT / JPEG2000
``fig03_serial``       Serial per-stage runtime analysis (Intel)
``fig04_artifacts``    JPEG vs JPEG2000 vs tiled JPEG2000 at 0.125 bpp
``fig05_tiling``       PSNR vs bitrate under tile-based parallelization
``fig06_parallel``     4-CPU parallel breakdown, naive filtering (Intel)
``fig07_filtering``    Original vs improved filtering times (Intel)
``fig08_filter_speedup``  Speedup of the filtering routines (Intel)
``fig09_improved``     4-CPU breakdown with improved filtering (Intel)
``fig10_sgi_filtering``   Filtering times on the SGI, 1..16 CPUs
``fig11_sgi_filter_speedup``  Vertical-filter speedup vs original (SGI)
``fig12_sgi_total``    Whole-coder speedup vs original Jasper (SGI)
``fig13_sgi_classical``   Classical speedup vs optimized serial (SGI)
``sec33_quant``        Quantization-stage parallel speedup
``sec34_amdahl``       Theoretical (Amdahl) vs measured speedups
``ext_backends``       Extension: serial/processes execution backends
``ext_decoder``        Extension: the techniques applied to decoding
``ext_faulttolerance``  Extension: supervised recovery from compute faults
``ext_message_passing``  Extension: SMP vs message-passing clusters
``ext_observability``  Extension: tracing, worker timelines, Amdahl accounting
``ext_resilience``     Extension: resilient decoding under injected faults
=====================  =====================================================

``quick=True`` shrinks image sizes/CPU grids for fast benchmark runs; the
qualitative checks are identical.  ``repro.experiments.report`` renders
the EXPERIMENTS.md paper-vs-measured tables.
"""

from .common import ExperimentResult, standard_stats, standard_workload, PAPER_SIZES

__all__ = [
    "ExperimentResult",
    "standard_stats",
    "standard_workload",
    "PAPER_SIZES",
    "all_experiments",
]


def all_experiments():
    """Import and return every experiment module, keyed by name."""
    from . import (
        ext_backends,
        ext_decoder,
        ext_faulttolerance,
        ext_message_passing,
        ext_observability,
        ext_resilience,
        fig02_timings,
        fig03_serial,
        fig04_artifacts,
        fig05_tiling,
        fig06_parallel,
        fig07_filtering,
        fig08_filter_speedup,
        fig09_improved,
        fig10_sgi_filtering,
        fig11_sgi_filter_speedup,
        fig12_sgi_total,
        fig13_sgi_classical,
        sec33_quant,
        sec34_amdahl,
    )

    mods = [
        fig02_timings,
        fig03_serial,
        fig04_artifacts,
        fig05_tiling,
        fig06_parallel,
        fig07_filtering,
        fig08_filter_speedup,
        fig09_improved,
        fig10_sgi_filtering,
        fig11_sgi_filter_speedup,
        fig12_sgi_total,
        fig13_sgi_classical,
        sec33_quant,
        sec34_amdahl,
        ext_backends,
        ext_decoder,
        ext_faulttolerance,
        ext_message_passing,
        ext_observability,
        ext_resilience,
    ]
    return {m.__name__.rsplit(".", 1)[-1]: m for m in mods}

"""The paper's contribution: SMP parallelization of JPEG2000 coding.

Three parallelization techniques (Sec. 3) over the codec substrates:

1. **Parallel wavelet transform** -- static partition of the image data
   across CPUs with a barrier between the vertical and horizontal
   filtering of every decomposition level
   (:func:`repro.core.parallel.parallel_dwt2d`).
2. **Parallel code-block coding** -- tier-1 over a worker pool with
   staggered round-robin block assignment
   (:func:`repro.core.parallel.parallel_encode_blocks`).
3. **Cache-aware vertical filtering** -- the aggregated-columns access
   order (modelled by :mod:`repro.cachesim`; numerically witnessed by
   :func:`repro.wavelet.strategies.filter_columns_chunked`).

The *real* parallel implementations here (on the ``serial`` or
``processes`` execution backend) are numerically exact (tested against
the serial paths); their wall clock on the host is context, not the
paper's result, so all performance results are produced on the
simulated SMP via :func:`repro.core.study.run_parallel_study` and
related drivers -- see DESIGN.md's substitution table.

:mod:`repro.core.amdahl` implements the Sec. 3.4 theoretical-speedup
analysis; :mod:`repro.core.speedup` the speedup bookkeeping used by every
figure.
"""

from .backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    WorkerDeath,
    get_backend,
    resolve_backend,
)
from .supervise import (
    DEGRADATION_LADDER,
    DeadlineExpired,
    SupervisedBackend,
    SupervisionError,
    SupervisionEvent,
    SupervisionPolicy,
    SupervisionReport,
    supervised,
)
from .amdahl import amdahl_speedup, serial_fraction, theoretical_speedup_from_breakdown
from .speedup import SpeedupSeries, speedup_curve, efficiency
from .parallel import (
    parallel_dwt2d,
    parallel_idwt2d,
    parallel_encode_blocks,
    parallel_decode_blocks,
    parallel_quantize,
)
from .study import (
    StudyConfig,
    run_parallel_study,
    serial_profile,
    filtering_profile,
    FilteringProfile,
)

__all__ = [
    "BACKEND_NAMES",
    "DEGRADATION_LADDER",
    "DeadlineExpired",
    "ExecutionBackend",
    "SupervisedBackend",
    "SupervisionError",
    "SupervisionEvent",
    "SupervisionPolicy",
    "SupervisionReport",
    "WorkerDeath",
    "get_backend",
    "resolve_backend",
    "supervised",
    "amdahl_speedup",
    "serial_fraction",
    "theoretical_speedup_from_breakdown",
    "SpeedupSeries",
    "speedup_curve",
    "efficiency",
    "parallel_dwt2d",
    "parallel_idwt2d",
    "parallel_encode_blocks",
    "parallel_decode_blocks",
    "parallel_quantize",
    "StudyConfig",
    "run_parallel_study",
    "serial_profile",
    "filtering_profile",
    "FilteringProfile",
]

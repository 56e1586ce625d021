"""Extension -- real execution backends under the differential contract.

The paper's results come from genuinely parallel hardware; under
CPython's GIL a thread pool serializes the pure-Python kernels (it ran
slower than ``serial`` on every measured input, so the repo has no
thread backend).  The ``processes`` backend plays the paper's SMP
workers: the same static decompositions (Secs. 3.2/3.3) run on a
process pool sharing arrays through ``multiprocessing.shared_memory``.
This experiment encodes one Fig. 6/9-style workload on both backends
(``serial`` is the reference) and holds them to
the differential contract -- byte-identical codestreams, bit-exact
round-trips, and equivalent observability (same per-worker task counts
feeding the Fig.-3 stage tables) -- while recording the measured wall
times for context.  Wall-clock *ratios* are environment-dependent and
deliberately unchecked; correctness equivalences are the checks.
"""

from __future__ import annotations

import time

import numpy as np

from ..codec import CodecParams, decode_image, encode_image
from ..core.backend import BACKEND_NAMES, get_backend
from ..image import SyntheticSpec, synthetic_image
from ..obs import Tracer
from .common import ExperimentResult

__all__ = ["run"]

_POOL_PHASES = ("tier-1 encode pool",)


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        name="ext_backends",
        description="Extension: serial/processes execution backends",
        paper=(
            "Not in the paper (its parallelism is real SMP hardware); "
            "contract derived from its structure: static partitions only "
            "re-order independent work, so every backend must emit "
            "byte-identical codestreams"
        ),
    )
    side = 128 if quick else 256
    image = synthetic_image(SyntheticSpec(side, side, "mix", seed=9))
    params = CodecParams(
        levels=3 if quick else 5, filter_name="9/7", cb_size=32,
        base_step=1 / 64, target_bpp=(0.5, 2.0),
    )
    n_workers = 2

    streams = {}
    tier1_tasks = {}
    wall = {}
    for name in BACKEND_NAMES:
        # One tracer per measured backend run, by design: each backend's
        # timeline must be separable.  Not a hot loop (two iterations).
        tracer = Tracer()  # repro: noqa[obs-zero-cost]
        with get_backend(name, n_workers) as bk:
            t0 = time.perf_counter()
            res = encode_image(image, params, tracer=tracer, backend=bk)
            wall[name] = time.perf_counter() - t0
        streams[name] = res.data
        tier1_tasks[name] = sum(
            1 for t in tracer.tasks if t.phase in _POOL_PHASES
        )
        result.rows.append(
            {
                "backend": name,
                "encode (s)": wall[name],
                "bytes": len(res.data),
                "tier-1 tasks": tier1_tasks[name],
            }
        )

    result.check(
        "all backends byte-identical",
        len(set(streams.values())) == 1,
    )
    result.check(
        "observability parity (same tier-1 task count per backend)",
        len(set(tier1_tasks.values())) == 1 and tier1_tasks["serial"] > 0,
    )

    reference = decode_image(streams["serial"])
    decode_equal = all(
        np.array_equal(
            decode_image(streams["serial"], n_workers=n_workers, backend=name),
            reference,
        )
        for name in BACKEND_NAMES
    )
    result.check("decodes bit-exact across backends", decode_equal)

    lossless = CodecParams(levels=3, filter_name="5/3", cb_size=32)
    with get_backend("processes", n_workers) as bk:
        data = encode_image(image, lossless, backend=bk).data
        out = decode_image(data, backend=bk)
    result.check(
        "lossless round-trip exact on the process pool",
        np.array_equal(out, image),
    )
    result.check(
        "process pool byte-identical on the lossless path",
        data == encode_image(image, lossless).data,
    )
    return result

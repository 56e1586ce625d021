"""Canonical benchmark scenario suite (the repo's Fig. 6/8 analogue).

The suite measures the *real* codec (not the SMP simulation) across the
axes the paper varies: operation (encode/decode), execution backend
(serial/processes), worker count, and image size.  Every
scenario runs with a tracer so the trajectory records stage-level
medians, per-(op, size) speedup curves against the serial scenario, and
the observed Amdahl sequential fraction; one extra (untimed) repeat per
scenario runs under the sampling profiler so the trajectory also names
the hot functions the time went to.

``wrap_backend`` exists so the regression gate can be tested against
itself: wrapping every scenario's backend in a
:class:`repro.faults.FaultyBackend` with a persistent ``hang`` fault
slows a stage deterministically, and ``repro bench compare`` must exit
nonzero (the ``--handicap`` CLI flag and ``tests/test_bench.py`` both
drive this path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..codec import CodecParams, decode_image, encode_image
from ..core.backend import get_backend
from ..image import SyntheticSpec, synthetic_image
from ..obs import Tracer, amdahl_report
from .trajectory import ScenarioResult, TrajectoryRun, environment_fingerprint

__all__ = [
    "PoolCache",
    "Scenario",
    "default_suite",
    "run_scenario",
    "run_suite",
    "scenario_image",
    "scenario_params",
]

#: Codec parameters every scenario shares (mid-size blocks, 3 levels:
#: enough tier-1 work to dominate, small enough for a quick gate).
_LEVELS = 3
_CB_SIZE = 32
_BASE_STEP = 1 / 64

#: Sampling rate for the profiled repeat.
_PROFILE_HZ = 250.0


@dataclass(frozen=True)
class Scenario:
    """One measured configuration of the real codec."""

    op: str  # "encode" | "decode"
    backend: str  # "serial" | "processes"
    workers: int
    side: int  # square synthetic image side, pixels

    @property
    def name(self) -> str:
        return f"{self.op}-{self.side}px-{self.backend}-w{self.workers}"

    def spec(self, repeats: int) -> Dict[str, Any]:
        return {
            "op": self.op,
            "backend": self.backend,
            "workers": self.workers,
            "side": self.side,
            "repeats": repeats,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "Scenario":
        return cls(
            op=spec["op"],
            backend=spec["backend"],
            workers=int(spec["workers"]),
            side=int(spec["side"]),
        )


def default_suite(quick: bool = False) -> List[Scenario]:
    """The canonical scenario matrix.

    Full: {encode, decode} x {serial-1, processes-2} at two image
    sizes -- the speedup curve of Fig. 6/8 measured on the real coder.
    Quick: one small size, serial + processes encode and serial decode;
    fast enough for a per-PR CI gate.
    """
    if quick:
        side = 48
        return [
            Scenario("encode", "serial", 1, side),
            Scenario("encode", "processes", 2, side),
            Scenario("decode", "serial", 1, side),
        ]
    return [
        Scenario(op, backend, workers, side)
        for side in (64, 128)
        for op in ("encode", "decode")
        for backend, workers in (("serial", 1), ("processes", 2))
    ]


class PoolCache:
    """One warm execution backend per ``(backend, workers)`` cell.

    Scenario runs used to build (and tear down) a fresh pool each --
    which put process-pool spin-up inside the measured window and made
    BENCH medians partly a fork benchmark.  A suite-scoped cache hands
    every scenario of the same cell the same warm pool; ``creations``
    counts actual constructions so the regression test can pin
    "one pool per cell" down.  ``wrap_backend`` (chaos wrappers) is
    applied once at construction, so persistent fault
    schedules survive across scenarios exactly as they did per-run.
    """

    def __init__(self, wrap_backend: Optional[Callable[[Any], Any]] = None) -> None:
        self.wrap_backend = wrap_backend
        self._pools: Dict[Any, Any] = {}
        self.creations = 0

    def get(self, backend_name: str, workers: int):
        key = (backend_name, int(workers))
        if key not in self._pools:
            if self.wrap_backend is None:
                self._pools[key] = get_backend(backend_name, workers)
            else:
                self._pools[key] = self.wrap_backend(
                    get_backend(backend_name, workers)
                )
            self.creations += 1
        return self._pools[key]

    def close(self) -> None:
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    def __enter__(self) -> "PoolCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def scenario_image(side: int):
    """The deterministic input image every scenario of ``side`` shares."""
    return synthetic_image(SyntheticSpec(side, side, "mix", seed=0))


def scenario_params() -> CodecParams:
    return CodecParams(levels=_LEVELS, cb_size=_CB_SIZE, base_step=_BASE_STEP)


def _profiled_repeat(scenario, image, params, encoded, backend) -> List[List[Any]]:
    """One extra untimed repeat under the sampling profiler."""
    from ..obs.profile import SamplingProfiler

    tracer = Tracer()
    prof = SamplingProfiler(tracer, hz=_PROFILE_HZ)
    prof.attach(backend)
    try:
        with prof:
            _run_op(scenario, image, params, encoded, backend, tracer)
    finally:
        prof.detach()
    return [[func, count, round(frac, 4)]
            for func, count, frac in prof.top_functions(8)]


def _run_op(scenario, image, params, encoded, backend, tracer) -> None:
    if scenario.op == "encode":
        encode_image(
            image, params, tracer=tracer,
            n_workers=scenario.workers, backend=backend,
        )
    else:
        decode_image(
            encoded, tracer=tracer,
            n_workers=scenario.workers, backend=backend,
        )


def run_scenario(
    scenario: Scenario,
    repeats: int = 3,
    profile: bool = True,
    wrap_backend: Optional[Callable[[Any], Any]] = None,
    pools: Optional[PoolCache] = None,
) -> ScenarioResult:
    """Measure one scenario: ``repeats`` timed runs + stage breakdowns.

    With ``pools`` the scenario borrows the suite's warm backend for
    its ``(backend, workers)`` cell (the cache applies its own wrap
    hook and owns the close); without it a private pool is built and
    torn down here, wrapped by ``wrap_backend``.  Either way one
    untimed warmup runs first so the timed repeats never measure pool
    spin-up or cold caches.
    """
    if scenario.op not in ("encode", "decode"):
        raise ValueError(f"unknown scenario op {scenario.op!r}")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    image = scenario_image(scenario.side)
    params = scenario_params()
    encoded = encode_image(image, params).data if scenario.op == "decode" else b""
    result = ScenarioResult(
        name=scenario.name, spec=scenario.spec(repeats)
    )
    if pools is not None:
        backend = pools.get(scenario.backend, scenario.workers)
        owned = False
    else:
        backend = get_backend(scenario.backend, scenario.workers)
        if wrap_backend is not None:
            backend = wrap_backend(backend)
        owned = True
    try:
        _run_op(scenario, image, params, encoded, backend, None)  # warmup
        last_tracer = None
        for _ in range(repeats):
            tracer = Tracer()  # repro: noqa[obs-zero-cost] -- measurement harness
            t0 = time.perf_counter()
            _run_op(scenario, image, params, encoded, backend, tracer)
            result.wall_seconds.append(time.perf_counter() - t0)
            for stage, seconds in tracer.stage_seconds().items():
                result.stage_seconds.setdefault(stage, []).append(seconds)
            last_tracer = tracer
        rep = amdahl_report(last_tracer, n_cpus=max(scenario.workers, 2))
        result.amdahl = {
            "sequential_fraction": rep.sequential_fraction,
            "max_speedup": rep.max_speedup,
            "n_cpus": rep.n_cpus,
            "serial_seconds": rep.serial_seconds,
            "parallel_seconds": rep.parallel_seconds,
        }
        if profile:
            result.top_functions = _profiled_repeat(
                scenario, image, params, encoded, backend
            )
    finally:
        if owned:
            backend.close()
    return result


def run_suite(
    scenarios: Optional[Sequence[Scenario]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    profile: bool = True,
    label: str = "",
    wrap_backend: Optional[Callable[[Any], Any]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> TrajectoryRun:
    """Run the scenario suite and assemble a :class:`TrajectoryRun`.

    ``wrap_backend(backend) -> backend`` decorates every warm pool once
    at construction (chaos wrappers); pools are shared
    per ``(backend, workers)`` cell across the whole suite and closed
    when the suite finishes.
    """
    if scenarios is None:
        scenarios = default_suite(quick)
    if repeats is None:
        repeats = 2 if quick else 3
    run = TrajectoryRun(
        suite="quick" if quick else "full",
        label=label,
        created=time.time(),
        environment=environment_fingerprint(),
    )
    with PoolCache(wrap_backend) as pools:
        for scenario in scenarios:
            if progress is not None:
                progress(f"bench: {scenario.name} (x{repeats})")
            run.scenarios.append(
                run_scenario(
                    scenario, repeats=repeats, profile=profile, pools=pools,
                )
            )
    _fill_speedups(run)
    return run


def _fill_speedups(run: TrajectoryRun) -> None:
    """Speedup of every scenario against its (op, side) serial median."""
    bases: Dict[Any, float] = {}
    for sc in run.scenarios:
        spec = sc.spec
        if spec.get("backend") == "serial" and int(spec.get("workers", 0)) == 1:
            bases[(spec.get("op"), spec.get("side"))] = sc.wall_median
    for sc in run.scenarios:
        spec = sc.spec
        base = bases.get((spec.get("op"), spec.get("side")))
        if base and sc.wall_median > 0:
            sc.speedup_vs_serial = base / sc.wall_median

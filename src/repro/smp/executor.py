"""Barrier-phase execution on the simulated SMP.

The paper's parallel structure is a sequence of *phases* separated by
barriers ("synchronization is required at each decomposition level
between vertical and horizontal filtering"):

    vertical(level 1) | barrier | horizontal(level 1) | barrier |
    vertical(level 2) | ...                           | tier-1 pool

Each phase holds a set of :class:`~repro.smp.task.Task` objects already
assigned to CPUs by a :mod:`repro.smp.pool` policy.  The simulated time
of a phase is

    ``max( max_cpu( ops*cpi + l1_miss*pen1 + l2_miss*pen2 ),
           bus.transfer_cycles(total_l2_misses) )``

-- the slowest processor, but never faster than the shared bus can move
the phase's memory traffic.  Sequential stages run as single-CPU phases.
All arithmetic is deterministic; repeated runs give identical timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs.tracer import TaskRecord, Tracer
from .machine import MachineSpec
from .task import Task

__all__ = ["PhaseResult", "RunResult", "SimulatedSMP"]


@dataclass(frozen=True)
class PhaseResult:
    """Timing of one barrier-synchronized phase."""

    name: str
    n_cpus: int
    cycles: float
    per_cpu_cycles: Sequence[float]
    bus_cycles: float
    total_ops: float
    total_l1_misses: float
    total_l2_misses: float

    @property
    def bus_bound(self) -> bool:
        """True when the shared bus, not a CPU, set the phase time."""
        return self.bus_cycles >= max(self.per_cpu_cycles, default=0.0)

    @property
    def imbalance(self) -> float:
        """Slowest CPU over mean CPU time (1.0 = perfectly balanced)."""
        busy = [c for c in self.per_cpu_cycles]
        if not busy or sum(busy) == 0:
            return 1.0
        return max(busy) / (sum(busy) / len(busy))


@dataclass
class RunResult:
    """Accumulated timing of a multi-phase run."""

    machine: MachineSpec
    phases: List[PhaseResult] = field(default_factory=list)
    #: Fault handling during the run (a
    #: repro.core.supervise.SupervisionReport) when ``run(...,
    #: supervise=)`` was active; None otherwise.
    supervision: Optional["SupervisionReport"] = None  # noqa: F821

    @property
    def total_cycles(self) -> float:
        return sum(p.cycles for p in self.phases)

    @property
    def total_ms(self) -> float:
        return self.machine.cycles_to_ms(self.total_cycles)

    def gantt(self, width: int = 64) -> str:
        """ASCII timeline of the run's barrier phases.

        One row per phase; bar length proportional to phase time, with
        per-phase CPU count, bus-bound marker (``*``) and imbalance.
        Debugging aid for schedule/calibration work.
        """
        total = self.total_cycles or 1.0
        lines = [f"total: {self.total_ms:.1f} ms on {self.machine.name}"]
        for p in self.phases:
            frac = p.cycles / total
            bar = "#" * max(1, round(frac * width))
            flag = "*" if p.bus_bound else " "
            lines.append(
                f"{p.name[:28]:28s} |{bar:<{width}s}| "
                f"{self.machine.cycles_to_ms(p.cycles):9.1f} ms "
                f"x{p.n_cpus}{flag} imb={p.imbalance:.2f}"
            )
        return "\n".join(lines)

    def stage_ms(self) -> Dict[str, float]:
        """Milliseconds per phase name, aggregating repeated names.

        Phase names double as pipeline stage labels, so this produces the
        stacked-bar data of the paper's Figs. 3, 6 and 9.
        """
        out: Dict[str, float] = {}
        for p in self.phases:
            out[p.name] = out.get(p.name, 0.0) + self.machine.cycles_to_ms(p.cycles)
        return out


class SimulatedSMP:
    """A ``P``-processor instance of a :class:`MachineSpec`."""

    def __init__(self, machine: MachineSpec, n_cpus: int) -> None:
        if n_cpus < 1:
            raise ValueError("need at least one CPU")
        self.machine = machine
        self.n_cpus = n_cpus

    def run_phase(
        self, name: str, assignment: Sequence[Sequence[Task]], backend=None
    ) -> PhaseResult:
        """Execute one barrier phase from a per-CPU task assignment.

        ``assignment`` may use fewer lists than ``n_cpus`` (idle CPUs) but
        never more.  ``backend`` (a resolved
        :class:`~repro.core.backend.ExecutionBackend`, optional) rolls up
        each simulated CPU's task costs on that backend -- the totals are
        summed in the same per-CPU order, so the simulated timeline is
        identical on every backend.
        """
        if len(assignment) > self.n_cpus:
            raise ValueError(
                f"assignment uses {len(assignment)} CPUs but machine has {self.n_cpus}"
            )
        m = self.machine
        per_cpu: List[float] = []
        total_ops = total_l1 = total_l2 = 0.0
        if backend is not None and assignment:
            shares = [
                [(cpu, (tuple(cpu_tasks), m))]
                for cpu, cpu_tasks in enumerate(assignment)
            ]
            rollups, errors = backend.map_shares(
                "smp-cycles", shares, len(assignment), label="cpu"
            )
            for err in errors:
                if err is not None:
                    raise err
            for cycles, ops, l1, l2 in rollups:
                per_cpu.append(cycles)
                total_ops += ops
                total_l1 += l1
                total_l2 += l2
        else:
            for cpu_tasks in assignment:
                cycles = 0.0
                for t in cpu_tasks:
                    cycles += t.cycles(m)
                    total_ops += t.ops
                    total_l1 += t.l1_misses
                    total_l2 += t.l2_misses
                per_cpu.append(cycles)
        bus_cycles = m.bus.transfer_cycles(total_l2)
        cycles = max(max(per_cpu, default=0.0), bus_cycles)
        return PhaseResult(
            name=name,
            n_cpus=len(assignment),
            cycles=cycles,
            per_cpu_cycles=tuple(per_cpu),
            bus_cycles=bus_cycles,
            total_ops=total_ops,
            total_l1_misses=total_l1,
            total_l2_misses=total_l2,
        )

    def run_serial_phase(self, name: str, tasks: Sequence[Task]) -> PhaseResult:
        """Execute an intrinsically sequential stage on one CPU."""
        return self.run_phase(name, [list(tasks)])

    def run(
        self, phases: Sequence[tuple], tracer: Optional[Tracer] = None,
        backend=None, supervise=None, metrics=None,
    ) -> RunResult:
        """Execute a sequence of ``(name, assignment)`` barrier phases.

        ``tracer`` (optional) receives the *simulated* timeline: one
        span per barrier phase and one task record per busy CPU, with
        the barrier wait (slowest CPU minus this CPU) made explicit.
        Timestamps are simulated seconds from the run's start, so the
        Chrome-trace export shows the deterministic SMP schedule exactly
        as the model computed it.

        ``backend`` (an execution-backend name or instance, optional)
        evaluates the per-CPU cost roll-ups of every phase on that
        backend.  The simulation stays deterministic -- per-CPU sums run
        in the same order everywhere -- so results are identical across
        backends (part of the differential harness).

        ``supervise`` (``True`` or a
        :class:`~repro.core.supervise.SupervisionPolicy`) runs the
        backend fault-tolerantly -- retries, pool rebuilds, the
        ``processes -> serial`` degradation ladder; without a
        ``backend`` it supervises ``serial`` -- and attaches the
        :class:`~repro.core.supervise.SupervisionReport` to
        ``RunResult.supervision``.  ``metrics`` (a
        :class:`~repro.obs.MetricsRegistry`) receives live
        ``repro_supervisor_*`` counters.
        """
        result = RunResult(machine=self.machine)
        from ..core.supervise import resolve_policy

        policy = resolve_policy(supervise)
        bk = owned = None
        if backend is not None or policy is not None:
            from ..core.backend import resolve_backend

            bk, was_created = resolve_backend(backend, self.n_cpus)
            owned = bk if was_created else None
            if policy is not None:
                from ..core.supervise import supervised

                bk = supervised(
                    bk, policy, metrics=metrics, owns_inner=was_created
                )
                result.supervision = bk.report
                owned = bk
        try:
            for name, assignment in phases:
                result.phases.append(self.run_phase(name, assignment, backend=bk))
        finally:
            if owned is not None:
                owned.close()
        if tracer is not None:
            self._emit_timeline(result, tracer)
        return result

    def _emit_timeline(self, result: RunResult, tracer: Tracer) -> None:
        """Append the run's simulated schedule to ``tracer``."""
        m = self.machine
        t = 0.0
        for p in result.phases:
            dur = m.cycles_to_ms(p.cycles) / 1e3
            tracer.add_span(
                p.name, t, t + dur, category="phase",
                n_cpus=p.n_cpus, bus_bound=p.bus_bound,
                imbalance=round(p.imbalance, 4), simulated=True,
            )
            for cpu, cycles in enumerate(p.per_cpu_cycles):
                busy = m.cycles_to_ms(cycles) / 1e3
                tracer.add_task(
                    TaskRecord(
                        worker=cpu,
                        name=f"{p.name} [cpu {cpu}]",
                        phase=p.name,
                        t0=t,
                        t1=t + busy,
                        barrier_wait=max(0.0, dur - busy),
                        attrs={"simulated": True},
                    )
                )
            t += dur
        return None

"""Runtime shared-array race detection for the execution backends.

The whole cross-backend byte-identity contract rests on one property of
the paper's static decomposition: **concurrent units write disjoint
data**.  Every barrier-sweep slab owns its ``[a:b)`` column/sample
range of the shared output arrays, and every tier-1 code-block owns its
own result slot.  Nothing enforces that at run time -- a kernel that
strays one column out of its slab produces answers that depend on
worker interleaving, which the differential tests only catch if the
sampled shapes happen to expose it.

:class:`RaceDetectorBackend` is a sanitizer wrapper (a sibling of
:class:`~repro.core.supervise.SupervisedBackend` and
:class:`~repro.faults.FaultyBackend`): before delegating a ``sweep`` to
the wrapped backend, it *shadow-executes* every unit against private
scratch copies of the operands, handing the kernel write-tracking
:class:`numpy.ndarray` views that record exactly which indices the unit
assigns (a value diff against the pre-state catches writes through
derived views as well).  Two units whose write sets intersect -- or any
unit that writes a *source* array -- fail with a precise overlap
report.  ``map_shares`` races are slot collisions: the same global item
index dealt to two workers.

The detector is **opt-in only**: the normal execution path never
imports this module, and the wrapped backend still performs the real
(parallel) work, so the produced bytes are exactly what the inner
backend produces.  Shadow execution costs one serial re-run of each
sweep plus per-unit array copies -- use it in tests and ``repro
races``, not in production encode paths.

Known blind spot: a shadow write that stores the exact pre-state value
through a *derived* view (not the handed-out tracking view) is
invisible to the value diff.  Direct assignments -- the only idiom the
kernels use -- are always tracked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.backend import ExecutionBackend, resolve_sweep_kernel

__all__ = [
    "RaceDetectorBackend",
    "RaceError",
    "RaceFinding",
    "RaceReport",
    "WriteTrackingView",
]


@dataclass(frozen=True)
class RaceFinding:
    """One detected overlap between concurrent units."""

    op: str  # "sweep" | "map"
    kernel: str
    array: str  # e.g. "outs[1]" / "srcs[0]" / "result slots"
    units: Tuple[Any, Any]  # the two colliding unit keys
    n_cells: int  # overlapping element count
    sample: Tuple[Tuple[int, ...], ...]  # first few overlapping coordinates

    def __str__(self) -> str:
        coords = ", ".join(str(c) for c in self.sample)
        more = "" if self.n_cells <= len(self.sample) else ", ..."
        return (
            f"[{self.op}/{self.kernel}] units {self.units[0]} and "
            f"{self.units[1]} both write {self.array}: {self.n_cells} "
            f"cell(s) at {coords}{more}"
        )


@dataclass
class RaceReport:
    """What the detector checked and what it found."""

    sweeps: int = 0
    maps: int = 0
    units: int = 0
    cells_checked: int = 0
    races: List[RaceFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.races

    def summary(self) -> str:
        head = (
            f"races: {len(self.races)} race(s) across {self.sweeps} sweep(s) "
            f"and {self.maps} map phase(s) ({self.units} units, "
            f"{self.cells_checked} cells write-checked)"
        )
        return "\n".join([head] + [f"  - {r}" for r in self.races])


class RaceError(RuntimeError):
    """Concurrent units wrote intersecting regions of a shared array."""

    def __init__(self, finding: RaceFinding, report: "RaceReport") -> None:
        super().__init__(f"shared-array race detected: {finding}")
        self.finding = finding
        self.report = report


class WriteTrackingView(np.ndarray):
    """An ndarray view that records every ``__setitem__`` in a bool mask.

    Derived views (slices, transposes) deliberately do *not* inherit the
    mask -- their coordinates would need remapping -- so writes through
    them are caught by the value diff instead.
    """

    _write_mask: Optional[np.ndarray] = None

    def __array_finalize__(self, obj) -> None:
        self._write_mask = None

    def __setitem__(self, key, value) -> None:
        mask = self._write_mask
        if mask is not None:
            sel = np.zeros(self.shape, dtype=bool)
            sel[key] = True
            np.logical_or(mask, sel, out=mask)
        super().__setitem__(key, value)


def _tracking_copy(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tracking view, its scratch buffer, its write mask) for ``arr``."""
    scratch = np.array(arr, copy=True)
    view = scratch.view(WriteTrackingView)
    mask = np.zeros(scratch.shape, dtype=bool)
    view._write_mask = mask
    return view, scratch, mask


def _changed(now: np.ndarray, was: np.ndarray) -> np.ndarray:
    """Element-wise "value differs" mask, treating NaN == NaN."""
    if now.size == 0:
        return np.zeros(now.shape, dtype=bool)
    diff = now != was
    if np.issubdtype(now.dtype, np.floating):
        diff &= ~(np.isnan(now) & np.isnan(was))
    return diff


class RaceDetectorBackend(ExecutionBackend):
    """Sanitizer wrapper: verify disjoint writes, then run for real.

    Drop-in for the wrapped backend (same ``sweep``/``map_shares``
    contracts, same results -- the real work happens on ``inner``).
    ``raise_on_race=False`` records findings on :attr:`report` instead
    of raising, for survey runs.  ``ladder_name`` delegates so the
    supervision degradation ladder steps relative to the wrapped rung.
    """

    name = "race-detector"

    def __init__(self, inner: ExecutionBackend, raise_on_race: bool = True) -> None:
        super().__init__(inner.n_workers)
        self.inner = inner
        self.raise_on_race = raise_on_race
        self.report = RaceReport()
        self.name = f"race-detector({inner.name})"

    @property
    def ladder_name(self) -> str:
        return getattr(self.inner, "ladder_name", self.inner.name)

    def close(self) -> None:
        self.inner.close()

    def rebuild(self) -> None:
        self.inner.rebuild()

    # -- bookkeeping ---------------------------------------------------------

    def _found(self, finding: RaceFinding) -> None:
        self.report.races.append(finding)
        if self.raise_on_race:
            raise RaceError(finding, self.report)

    @staticmethod
    def _sample(overlap: np.ndarray, limit: int = 4) -> Tuple[Tuple[int, ...], ...]:
        coords = np.argwhere(overlap)[:limit]
        return tuple(tuple(int(x) for x in c) for c in coords)

    # -- sweep write-set analysis -------------------------------------------

    def _shadow_sweep(self, kernel, srcs, outs, ranges, extra) -> None:
        fn = resolve_sweep_kernel(kernel)
        live = [(a, b) for a, b in ranges if a != b]
        self.report.sweeps += 1
        self.report.units += len(live)
        per_unit: List[Tuple[Any, List[np.ndarray], List[np.ndarray]]] = []
        for a, b in live:
            src_tracks = [_tracking_copy(s) for s in srcs]
            out_tracks = [_tracking_copy(o) for o in outs]
            fn(
                tuple(v for v, _, _ in src_tracks),
                tuple(v for v, _, _ in out_tracks),
                a, b, dict(extra),
            )
            src_masks = []
            for (view, scratch, mask), orig in zip(src_tracks, srcs):
                np.logical_or(mask, _changed(scratch, np.asarray(orig)), out=mask)
                src_masks.append(mask)
            out_masks = []
            for (view, scratch, mask), orig in zip(out_tracks, outs):
                np.logical_or(mask, _changed(scratch, np.asarray(orig)), out=mask)
                out_masks.append(mask)
                self.report.cells_checked += int(mask.size)
            for k, mask in enumerate(src_masks):
                if mask.any():
                    self._found(RaceFinding(
                        op="sweep", kernel=kernel, array=f"srcs[{k}]",
                        units=((a, b), "(all readers)"),
                        n_cells=int(mask.sum()), sample=self._sample(mask),
                    ))
            per_unit.append(((a, b), src_masks, out_masks))
        for i in range(len(per_unit)):
            for j in range(i + 1, len(per_unit)):
                unit_i, _, outs_i = per_unit[i]
                unit_j, _, outs_j = per_unit[j]
                for k, (mi, mj) in enumerate(zip(outs_i, outs_j)):
                    overlap = mi & mj
                    if overlap.any():
                        self._found(RaceFinding(
                            op="sweep", kernel=kernel, array=f"outs[{k}]",
                            units=(unit_i, unit_j),
                            n_cells=int(overlap.sum()),
                            sample=self._sample(overlap),
                        ))

    # -- map share analysis ---------------------------------------------------

    def _check_shares(self, kernel, shares) -> None:
        self.report.maps += 1
        owner: Dict[int, int] = {}
        for w, share in enumerate(shares):
            for i, _payload in share:
                i = int(i)
                self.report.units += 1
                if i in owner:
                    self._found(RaceFinding(
                        op="map", kernel=kernel, array="result slots",
                        units=(f"worker {owner[i]}", f"worker {w}"),
                        n_cells=1, sample=((i,),),
                    ))
                else:
                    owner[i] = w

    # -- ExecutionBackend API ------------------------------------------------

    def sweep_attempt(self, kernel, srcs, outs, ranges, extra, deadline=None,
                      ph=None, label="cols", size_attr="columns"):
        self._shadow_sweep(kernel, srcs, outs, ranges, extra)
        return self.inner.sweep_attempt(
            kernel, srcs, outs, ranges, extra, deadline=deadline,
            ph=ph, label=label, size_attr=size_attr,
        )

    def map_shares_attempt(self, kernel, shares, deadline=None,
                           ph=None, label="cb"):
        self._check_shares(kernel, shares)
        return self.inner.map_shares_attempt(
            kernel, shares, deadline=deadline, ph=ph, label=label,
        )

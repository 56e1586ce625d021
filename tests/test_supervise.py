"""Fault-tolerant execution (PR tentpole): supervised backends.

Under any deterministic compute-fault schedule -- kernel exceptions,
worker hangs, worker kills -- the supervised run must emit the
byte-identical codestream the serial backend produces, and the
:class:`SupervisionReport` must account for every retry, rebuild,
timeout and degradation it took to get there.

The fast subset runs by default; the wide fault x backend x workers
matrix is marked ``slow`` (``pytest -m slow``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from tests.conftest import encode_bytes, seeded_image
from repro.codec import CodecParams, decode_image, encode_image
from repro.core.backend import BACKEND_NAMES, get_backend
from repro.core.supervise import (
    DEGRADATION_LADDER,
    DeadlineExpired,
    SupervisedBackend,
    SupervisionError,
    SupervisionPolicy,
    SupervisionReport,
    resolve_policy,
    supervised,
)
from repro.faults import ComputeFault, FaultyBackend, InjectedFault
from repro.obs import MetricsRegistry, parse_prometheus, record_supervision_metrics

# A policy with no backoff sleeps keeps the suite fast; retry counts
# are unaffected.
FAST = SupervisionPolicy(max_retries=2, backoff_base=0.0)


def _image():
    return seeded_image(31, 64, 64, kind="noise")


def _params():
    return CodecParams(levels=2, filter_name="5/3", cb_size=16)


def _reference():
    return encode_bytes(_image(), _params(), backend="serial", n_workers=2)


def _faulty_encode(inner, faults, policy=FAST, metrics=None):
    """Encode on a chaos-wrapped supervised backend; return (bytes, report)."""
    sup = supervised(FaultyBackend(inner, faults), policy,
                     metrics=metrics, owns_inner=True)
    try:
        result = encode_image(_image(), _params(), backend=sup, n_workers=2)
    finally:
        sup.close()
    return result.data, sup.report


class TestRecovery:
    """One-shot faults: retry on the same rung converges byte-identically."""

    def test_kernel_exception_retried(self):
        data, rep = _faulty_encode(
            get_backend("serial", 2), [ComputeFault("exc", op="sweep")]
        )
        assert data == _reference()
        assert rep.kernel_errors == 1
        assert rep.retries == 1
        assert rep.degradations == 0
        assert rep.final_backend == "serial"

    def test_worker_kill_serial(self):
        # On the serial rung a kill is a WorkerDeath that aborts the
        # attempt; the retry re-runs only the unfinished items.
        data, rep = _faulty_encode(
            get_backend("serial", 2), [ComputeFault("kill", op="map")]
        )
        assert data == _reference()
        assert rep.worker_deaths == 1
        assert rep.pool_rebuilds == 1
        assert rep.retries == 1

    def test_worker_kill_processes(self):
        # A killed worker breaks the whole pool; a fresh backend per test
        # keeps the session-shared process_backend fixture intact.
        data, rep = _faulty_encode(
            get_backend("processes", 2), [ComputeFault("kill", op="map")]
        )
        assert data == _reference()
        assert rep.worker_deaths == 1
        assert rep.pool_rebuilds == 1
        assert rep.final_backend == "processes"

    def test_hang_beyond_deadline(self):
        # The hang (5 s) far exceeds the phase deadline (0.3 s), so the
        # attempt times out, the pool is rebuilt (killing the wedged
        # worker), and the retry finishes the remaining units.
        policy = SupervisionPolicy(
            max_retries=2, phase_timeout=0.3, backoff_base=0.0
        )
        data, rep = _faulty_encode(
            get_backend("processes", 2),
            [ComputeFault("hang", op="map", arg=5.0)],
            policy=policy,
        )
        assert data == _reference()
        assert rep.timeouts >= 1
        assert rep.pool_rebuilds >= 1

    def test_multiple_faults_one_run(self):
        data, rep = _faulty_encode(
            get_backend("serial", 2),
            [
                ComputeFault("exc", op="sweep", call=1),
                ComputeFault("exc", op="map", unit=3),
            ],
        )
        assert data == _reference()
        assert rep.kernel_errors == 2
        assert rep.retries == 2


class TestDegradation:
    """Persistent faults exhaust retries and walk the ladder."""

    def test_ladder_reaches_serial(self):
        # A persistent fault on the process pool degrades in one step,
        # straight to serial: the ladder has no rung in between.
        data, rep = _faulty_encode(
            get_backend("processes", 2),
            [ComputeFault("exc", op="map", persistent=True)],
            policy=SupervisionPolicy(max_retries=1, backoff_base=0.0),
        )
        assert data == _reference()
        assert rep.degradations == 1
        assert [e.detail for e in rep.events if e.kind == "degrade"] == [
            "processes -> serial"
        ]
        assert rep.final_backend == "serial"

    def test_ladder_order(self):
        assert DEGRADATION_LADDER == ("processes", "serial")

    def test_degradation_is_sticky(self):
        bk = supervised(
            FaultyBackend(
                get_backend("processes", 2),
                [ComputeFault("exc", op="map", persistent=True)],
            ),
            SupervisionPolicy(max_retries=0, backoff_base=0.0),
        )
        try:
            first = encode_image(_image(), _params(), backend=bk, n_workers=2)
            deg_after_first = bk.report.degradations
            second = encode_image(_image(), _params(), backend=bk, n_workers=2)
        finally:
            bk.close()
        assert first.data == second.data == _reference()
        assert bk.report.final_backend == "serial"
        # The second encode starts on the serial rung: no new degradations.
        assert bk.report.degradations == deg_after_first

    def test_no_degrade_raises(self):
        with pytest.raises(SupervisionError):
            _faulty_encode(
                get_backend("serial", 2),
                [ComputeFault("kill", op="map", persistent=True)],
                policy=SupervisionPolicy(
                    max_retries=1, degrade=False, backoff_base=0.0
                ),
            )

    def test_persistent_kernel_error_surfaces_like_unsupervised(self):
        # With degradation off, a persistent *kernel* failure must land
        # in the map errors list -- the concealment contract -- rather
        # than raise SupervisionError (the work ran; it just failed).
        bk = supervised(
            FaultyBackend(
                get_backend("serial", 2),
                [ComputeFault("exc", op="map", unit=0, persistent=True)],
            ),
            SupervisionPolicy(max_retries=1, degrade=False, backoff_base=0.0),
        )
        try:
            from repro.smp.machine import INTEL_SMP
            from repro.smp.task import Task

            m = INTEL_SMP
            payload = ((Task("t", ops=10.0),), m)
            results, errors = bk.map_shares(
                "smp-cycles", [[(0, payload)], [(1, payload)]], 2
            )
        finally:
            bk.close()
        assert isinstance(errors[0], InjectedFault)
        assert errors[1] is None and results[1] is not None
        assert results[0] is None


class TestBrokenPoolReuse:
    """Satellite regression: ProcessesBackend survives a broken pool."""

    def test_reusable_after_broken_executor(self):
        from repro.smp.machine import INTEL_SMP
        from repro.smp.task import Task

        m = INTEL_SMP
        payload = ((Task("t", ops=10.0),), m)
        bk = FaultyBackend(
            get_backend("processes", 2), [ComputeFault("kill", op="map")]
        )
        try:
            with pytest.raises(BrokenProcessPool):
                bk.map_shares("smp-cycles", [[(0, payload)], [(1, payload)]], 2)
            # The kill fault is consumed; the rebuilt pool must serve the
            # next call as if nothing happened.
            results, errors = bk.map_shares(
                "smp-cycles", [[(0, payload)], [(1, payload)]], 2
            )
        finally:
            bk.close()
        assert errors == [None, None]
        assert all(r is not None for r in results)


class TestReporting:
    def test_report_counters_match_events(self):
        _, rep = _faulty_encode(
            get_backend("serial", 2), [ComputeFault("kill", op="map")]
        )
        kinds = [e.kind for e in rep.events]
        assert kinds.count("worker-death") == rep.worker_deaths
        assert kinds.count("rebuild") == rep.pool_rebuilds
        assert kinds.count("retry") == rep.retries
        assert not rep.clean
        assert "worker deaths" in rep.summary()

    def test_live_metrics(self):
        registry = MetricsRegistry()
        _, rep = _faulty_encode(
            get_backend("serial", 2),
            [ComputeFault("exc", op="sweep")],
            metrics=registry,
        )
        samples = parse_prometheus(registry.to_prometheus())
        assert samples["repro_supervisor_kernel_errors_total"] == rep.kernel_errors
        assert samples["repro_supervisor_retries_total"] == rep.retries

    def test_record_supervision_metrics_after_the_fact(self):
        rep = SupervisionReport(
            retries=3, pool_rebuilds=2, worker_deaths=1, kernel_errors=4
        )
        registry = MetricsRegistry()
        record_supervision_metrics(registry, rep)
        samples = parse_prometheus(registry.to_prometheus())
        assert samples["repro_supervisor_retries_total"] == 3
        assert samples["repro_supervisor_worker_deaths_total"] == 1

    def test_span_attributes(self):
        from repro.obs import Tracer

        tracer = Tracer()
        sup = supervised(
            FaultyBackend(
                get_backend("serial", 2), [ComputeFault("exc", op="sweep")]
            ),
            FAST,
            owns_inner=True,
        )
        try:
            encode_image(
                _image(), _params(), backend=sup, n_workers=2, tracer=tracer
            )
        finally:
            sup.close()
        attrs = [s.attrs for s in tracer.spans if "supervision.retries" in s.attrs]
        assert attrs, "no phase span carried supervision attributes"
        assert all(a["supervision.backend"] == "serial" for a in attrs)


class TestIntegration:
    def test_supervised_no_fault_is_byte_identical(self):
        result = encode_image(
            _image(), _params(), n_workers=2, backend="processes", supervise=FAST
        )
        assert result.data == _reference()
        assert result.supervision is not None and result.supervision.clean

    def test_params_supervision_pickup(self):
        params = CodecParams(
            levels=2, filter_name="5/3", cb_size=16, supervision=FAST
        )
        result = encode_image(_image(), params, n_workers=2, backend="processes")
        assert result.supervision is not None
        assert result.data == _reference()

    def test_supervised_decode_round_trips(self):
        img = _image()
        data = _reference()
        out = decode_image(data, n_workers=2, backend="processes", supervise=FAST)
        assert np.array_equal(out, img)

    def test_supervised_resilient_decode_report(self):
        params = CodecParams(
            levels=2, filter_name="5/3", cb_size=16, resilience=True
        )
        data = encode_bytes(_image(), params)
        img, report = decode_image(
            data, resilient=True, n_workers=2, backend="processes", supervise=FAST
        )
        assert np.array_equal(img, _image())
        assert report.supervision is not None
        assert "supervision:" in report.summary()


class TestPolicyAndParse:
    def test_resolve_policy(self):
        assert resolve_policy(None) is None
        assert resolve_policy(False, FAST) is FAST
        assert resolve_policy(True) == SupervisionPolicy()
        assert resolve_policy(True, FAST) is FAST
        assert resolve_policy(FAST) is FAST
        with pytest.raises(TypeError):
            resolve_policy("yes")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisionPolicy(phase_timeout=0.0)
        assert SupervisionPolicy(backoff_base=0.1).backoff(2) == pytest.approx(0.4)

    def test_compute_fault_parse(self):
        f = ComputeFault.parse("exc")
        assert (f.kind, f.op, f.call, f.unit, f.persistent) == (
            "exc", "any", 0, 0, False
        )
        f = ComputeFault.parse("hang:sweep:1:2:0.5")
        assert f == ComputeFault("hang", "sweep", 1, 2, 0.5)
        f = ComputeFault.parse("kill:map:0:0::persistent")
        assert f.persistent
        for bad in ("nope", "exc:neither", "exc:map:x"):
            with pytest.raises(ValueError):
                ComputeFault.parse(bad)

    def test_supervised_is_idempotent(self):
        inner = get_backend("serial", 1)
        sup = supervised(inner, FAST)
        assert supervised(sup) is sup
        sup.close()


class _FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class _DeadlineSpy:
    """Delegating wrapper recording the ``deadline=`` of every attempt."""

    def __init__(self, inner):
        self.inner = inner
        self.deadlines = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sweep_attempt(self, *args, deadline=None, **kw):
        self.deadlines.append(deadline)
        return self.inner.sweep_attempt(*args, deadline=deadline, **kw)

    def map_shares_attempt(self, *args, deadline=None, **kw):
        self.deadlines.append(deadline)
        return self.inner.map_shares_attempt(*args, deadline=deadline, **kw)


class TestCallDeadline:
    """Per-call deadlines (the service layer's per-request budget)."""

    def test_deadline_expired_is_a_supervision_error(self):
        assert issubclass(DeadlineExpired, SupervisionError)

    def test_expired_deadline_fails_fast_before_dispatch(self):
        clock = _FakeClock()
        spy = _DeadlineSpy(get_backend("serial", 1))
        sup = supervised(spy, FAST, clock=clock)
        sup.call_deadline = clock() - 1.0
        try:
            with pytest.raises(DeadlineExpired):
                encode_image(_image(), _params(), backend=sup, n_workers=2)
        finally:
            sup.close()
        # Fail-fast contract: nothing was dispatched to the backend.
        assert spy.deadlines == []
        rep = sup.report
        assert rep.timeouts == 1
        kinds = [e.kind for e in rep.events]
        assert kinds == ["deadline"]
        assert "pre-dispatch" in rep.events[0].detail
        assert not rep.clean

    def test_remaining_budget_caps_attempt_timeout(self):
        # phase_timeout 10 s but only 5 s of budget left -> every
        # attempt is dispatched with a 5 s deadline.
        clock = _FakeClock()
        spy = _DeadlineSpy(get_backend("serial", 1))
        sup = supervised(
            spy, SupervisionPolicy(phase_timeout=10.0, backoff_base=0.0),
            clock=clock,
        )
        sup.call_deadline = clock() + 5.0
        try:
            encode_image(_image(), _params(), backend=sup, n_workers=2)
        finally:
            sup.close()
        assert spy.deadlines and all(
            d == pytest.approx(5.0) for d in spy.deadlines
        )
        assert sup.report.clean

    def test_phase_timeout_wins_when_tighter(self):
        clock = _FakeClock()
        spy = _DeadlineSpy(get_backend("serial", 1))
        sup = supervised(
            spy, SupervisionPolicy(phase_timeout=2.0, backoff_base=0.0),
            clock=clock,
        )
        sup.call_deadline = clock() + 5.0
        try:
            encode_image(_image(), _params(), backend=sup, n_workers=2)
        finally:
            sup.close()
        assert spy.deadlines and all(
            d == pytest.approx(2.0) for d in spy.deadlines
        )

    def test_no_deadline_means_no_timeout(self):
        spy = _DeadlineSpy(get_backend("serial", 1))
        sup = supervised(spy, FAST)
        try:
            encode_image(_image(), _params(), backend=sup, n_workers=2)
        finally:
            sup.close()
        assert spy.deadlines and all(d is None for d in spy.deadlines)

    def test_deadline_resets_between_calls(self):
        # A budget left over from one call must not leak into the next
        # (the serve layer clears call_deadline in a finally; belt and
        # braces: an expired call still leaves the backend usable).
        clock = _FakeClock()
        spy = _DeadlineSpy(get_backend("serial", 1))
        sup = supervised(spy, FAST, clock=clock)
        sup.call_deadline = clock() - 1.0
        try:
            with pytest.raises(DeadlineExpired):
                encode_image(_image(), _params(), backend=sup, n_workers=2)
            sup.call_deadline = None
            result = encode_image(_image(), _params(), backend=sup, n_workers=2)
        finally:
            sup.close()
        assert result.data == _reference()


# -- the error contract on every rung ------------------------------------------


def _fail_every_slab(srcs, outs, a, b, extra) -> None:
    """Sweep kernel failing on every slab; the first slab finishes last,
    so completion order differs from range order on pooled rungs."""
    if a == 0:
        time.sleep(0.05)
    raise ValueError(f"slab {a}:{b}")


def _fail_odd_items(payload):
    if payload % 2:
        raise ValueError(f"item {payload}")
    return payload * 10


RUNGS = [
    pytest.param(name, sup, id=f"{name}-{'supervised' if sup else 'unsupervised'}")
    for name in BACKEND_NAMES
    for sup in (False, True)
]


def _on_rung(inner, supervise):
    return supervised(inner, FAST) if supervise else inner


class TestErrorContract:
    """Supervised and unsupervised calls share one path per backend; what
    a caller sees on failure must still be the documented contract."""

    @pytest.mark.parametrize("name,supervise", RUNGS)
    @pytest.mark.parametrize("op", ["sweep", "map"])
    def test_worker_kill(self, name, supervise, op):
        from repro.core.backend import WorkerDeath
        from repro.quant.deadzone import quantize
        from repro.smp.machine import INTEL_SMP
        from repro.smp.task import Task

        flat = np.linspace(-4.0, 4.0, 16)
        ref = quantize(flat, 0.5)
        out = np.zeros_like(ref)
        payload = ((Task("t", ops=10.0),), INTEL_SMP)
        bk = _on_rung(
            FaultyBackend(get_backend(name, 2), [ComputeFault("kill", op=op)]),
            supervise,
        )

        def run():
            if op == "sweep":
                bk.sweep("quantize", (flat,), (out,), [(0, 8), (8, 16)],
                         {"step": 0.5})
                return None
            return bk.map_shares("smp-cycles", [[(0, payload)], [(1, payload)]], 2)

        try:
            if supervise:
                got = run()
            else:
                death = BrokenProcessPool if name == "processes" else WorkerDeath
                with pytest.raises(death):
                    run()
                got = run()  # the kill is spent; the rung still works
        finally:
            bk.close()
        if op == "sweep":
            assert np.array_equal(out, ref)
        else:
            results, errors = got
            assert errors == [None, None] and None not in results

    @pytest.mark.parametrize("name,supervise", RUNGS)
    def test_sweep_raises_first_range_failure(self, name, supervise):
        src = np.arange(32.0).reshape(4, 8)
        out = np.zeros_like(src)
        bk = _on_rung(get_backend(name, 2), supervise)
        try:
            with pytest.raises(ValueError, match=r"^slab 0:4$"):
                bk.sweep("tests.test_supervise:_fail_every_slab", (src,),
                         (out,), [(0, 4), (4, 8)], {})
        finally:
            bk.close()

    @pytest.mark.parametrize("name,supervise", RUNGS)
    def test_failed_map_items_are_concealed(self, name, supervise):
        from repro.obs import Tracer

        shares = [[(0, 0), (2, 2), (4, 4)], [(1, 1), (3, 3)]]
        tracer = Tracer()
        bk = _on_rung(get_backend(name, 2), supervise)
        try:
            with tracer.phase("t1") as ph:
                results, errors = bk.map_shares(
                    "tests.test_supervise:_fail_odd_items", shares, 6, ph=ph
                )
        finally:
            bk.close()
        assert results == [0, None, 20, None, 40, None]
        assert [type(e).__name__ if e else None for e in errors] == [
            None, "ValueError", None, "ValueError", None, None
        ]
        by_item = {}
        for rec in tracer.tasks:
            by_item.setdefault(rec.attrs["block"], []).append(rec)
        assert sorted(by_item) == [0, 1, 2, 3, 4]
        for i, recs in by_item.items():
            concealed = {bool(r.attrs.get("concealed")) for r in recs}
            assert concealed == {bool(i % 2)}, (i, concealed)


# -- wide matrix (slow) ------------------------------------------------------

SLOW_CASES = [
    (backend, workers, fault)
    for backend in BACKEND_NAMES
    for workers in (2, 3)
    for fault in (
        ComputeFault("exc", op="sweep"),
        ComputeFault("exc", op="map", unit=2),
        ComputeFault("kill", op="map"),
        ComputeFault("exc", op="map", persistent=True),
    )
    # A persistent fault on the bottom rung has nowhere to degrade to.
    if backend == "processes" or not fault.persistent
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "backend,workers,fault",
    SLOW_CASES,
    ids=lambda v: str(v).replace(" ", "") if isinstance(v, ComputeFault) else str(v),
)
def test_slow_fault_matrix(backend, workers, fault):
    sup = supervised(
        FaultyBackend(get_backend(backend, workers), [fault]),
        SupervisionPolicy(max_retries=1, backoff_base=0.0),
        owns_inner=True,
    )
    try:
        result = encode_image(
            _image(), _params(), backend=sup, n_workers=workers
        )
    finally:
        sup.close()
    assert result.data == _reference()
    assert not sup.report.clean

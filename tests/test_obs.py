"""Observability layer: tracer, metrics, exporters, Amdahl accounting."""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.codec import CodecParams, decode_image, encode_image
from repro.codec.instrument import EncoderReport, StageStats
from repro.core.amdahl import amdahl_speedup
from repro.core.parallel import parallel_encode_blocks
from repro.obs import (
    PARALLEL_STAGES,
    STAGE_NAMES,
    MetricsRegistry,
    Tracer,
    amdahl_report,
    chrome_trace,
    chrome_trace_json,
    parse_prometheus,
    record_encode_metrics,
    record_trace_metrics,
    stage_table,
)
from repro.obs.export import PID_PIPELINE, PID_WORKERS


# ---------------------------------------------------------------------------
# Tracer: span nesting and timing
# ---------------------------------------------------------------------------


def test_span_nesting_and_monotonic_times():
    tr = Tracer()
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            pass
    assert inner.parent is outer
    assert inner.depth == 1 and outer.depth == 0
    # Children close before parents; all bounds are ordered.
    assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1
    assert outer.seconds >= inner.seconds >= 0.0
    # Inner span was recorded first (closed first).
    assert [s.name for s in tr.spans] == ["inner", "outer"]


def test_span_closed_on_exception():
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.span("doomed"):
            raise RuntimeError("boom")
    (sp,) = tr.spans
    assert sp.t1 >= sp.t0
    # The stack unwound: a new span is top-level again.
    with tr.span("after") as sp2:
        pass
    assert sp2.depth == 0 and sp2.parent is None


def test_stage_seconds_aggregates_by_name():
    tr = Tracer()
    tr.add_span("tier-1 coding", 0.0, 1.0, category="stage", parallel=True)
    tr.add_span("tier-1 coding", 2.0, 2.5, category="stage", parallel=True)
    tr.add_span("not-a-stage", 0.0, 9.0)  # no category: excluded
    assert tr.stage_seconds() == {"tier-1 coding": 1.5}


# ---------------------------------------------------------------------------
# Worker timelines
# ---------------------------------------------------------------------------


def test_worker_timeline_complete(rng):
    """Every scheduled code-block appears exactly once in the timeline."""
    blocks = [
        (rng.integers(-50, 50, size=(8, 8)).astype(np.int32), "LL")
        for _ in range(8)
    ]
    tr = Tracer()
    recs = parallel_encode_blocks(blocks, n_workers=3, tracer=tr)
    assert len(recs) == 8
    pool = [t for t in tr.tasks if t.phase == "tier-1 encode pool"]
    assert sorted(t.attrs["block"] for t in pool) == list(range(8))
    assert {t.worker for t in pool} == {0, 1, 2}
    # Per-worker task streams don't overlap and waits are sane.
    by_worker = tr.workers()
    for tasks in by_worker.values():
        for a, b in zip(tasks, tasks[1:]):
            assert a.t1 <= b.t0 + 1e-9
        assert all(t.queue_wait >= 0 and t.barrier_wait >= 0 for t in tasks)


def test_phase_backfills_barrier_wait():
    tr = Tracer()
    with tr.phase("p") as ph:
        with ph.task("a", worker=0):
            pass
    (task,) = tr.tasks
    (span,) = tr.spans
    assert span.category == "phase" and span.name == "p"
    # The barrier released after the task ended.
    assert task.barrier_wait >= 0.0
    assert span.t1 >= task.t1


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def test_chrome_trace_schema(small_image):
    tr = Tracer()
    res = encode_image(small_image, CodecParams(levels=2, cb_size=16), tracer=tr)
    td = Tracer()
    decode_image(res.data, n_workers=2, tracer=td)
    for tracer in (tr, td):
        doc = json.loads(chrome_trace_json(tracer))
        evs = doc["traceEvents"]
        assert evs, "trace must not be empty"
        for ev in evs:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            assert ev["ph"] in ("X", "M")
            if ev["ph"] == "X":
                assert ev["ts"] >= 0 and ev["dur"] >= 0
                assert ev["pid"] in (PID_PIPELINE, PID_WORKERS)
    # The decode trace has both pipeline spans and worker task events.
    doc = chrome_trace(td)
    pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert pids == {PID_PIPELINE, PID_WORKERS}


def test_chrome_trace_process_worker_tasks(small_image, process_backend):
    """Process-worker TaskRecords export with correct tid/pid mapping."""
    res = encode_image(small_image, CodecParams(levels=2, cb_size=16))
    tr = Tracer()
    # The outer span makes every stage span a child: the export must
    # keep that parenting (same lane, contained interval).
    with tr.span("decode-call"):
        decode_image(res.data, n_workers=2, backend=process_backend, tracer=tr)
    assert tr.tasks, "process backend must contribute worker task records"
    doc = chrome_trace(tr)
    evs = doc["traceEvents"]
    # Every task record is an X event on the workers pid, tid == worker id.
    tasks = [e for e in evs if e["ph"] == "X" and e["pid"] == PID_WORKERS]
    assert len(tasks) == len(tr.tasks)
    workers = {t.worker for t in tr.tasks}
    assert {e["tid"] for e in tasks} == workers
    # Metadata rows name each worker lane.
    lane_names = {
        e["tid"]: e["args"]["name"]
        for e in evs
        if e["ph"] == "M" and e["pid"] == PID_WORKERS
        and e["name"] == "thread_name"
    }
    assert lane_names == {w: f"worker-{w}" for w in workers}
    # Nested pipeline spans keep their parenting: a child's exported
    # interval sits inside its parent's on the same thread lane.
    exported = {
        (e["name"], e["ts"]): e
        for e in evs
        if e["ph"] == "X" and e["pid"] == PID_PIPELINE
    }
    nested = 0
    for sp in tr.spans:
        if sp.parent is None:
            continue
        child = exported[(sp.name, round(sp.t0 * 1e6, 3))]
        parent = exported[(sp.parent.name, round(sp.parent.t0 * 1e6, 3))]
        assert child["tid"] == parent["tid"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-3
        nested += 1
    assert nested > 0, "decode must record nested spans"


# ---------------------------------------------------------------------------
# Metrics + Prometheus round-trip
# ---------------------------------------------------------------------------


def test_prometheus_round_trip():
    reg = MetricsRegistry()
    reg.counter("repro_widgets_total", "widgets").inc(3)
    reg.gauge("repro_level", "level").set(1.25)
    h = reg.histogram("repro_lat_seconds", "latency", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    parsed = parse_prometheus(reg.to_prometheus())
    assert parsed["repro_widgets_total"] == 3.0
    assert parsed["repro_level"] == 1.25
    assert parsed['repro_lat_seconds_bucket{le="0.1"}'] == 1.0
    assert parsed['repro_lat_seconds_bucket{le="1"}'] == 2.0
    assert parsed['repro_lat_seconds_bucket{le="+Inf"}'] == 3.0
    assert parsed["repro_lat_seconds_count"] == 3.0
    assert parsed["repro_lat_seconds_sum"] == pytest.approx(5.55)


def test_prometheus_help_escaping_round_trip():
    """HELP text with backslashes/newlines cannot corrupt the scrape."""
    reg = MetricsRegistry()
    reg.counter(
        "repro_esc_total", "line one\nline two with a \\ backslash"
    ).inc(2)
    reg.gauge("repro_tiny", "exponent-formatted value").set(1.5e-7)
    text = reg.to_prometheus()
    # The help stays on one comment line, escaped per the exposition spec.
    (help_line,) = [
        l for l in text.splitlines() if l.startswith("# HELP repro_esc_total")
    ]
    assert help_line == (
        "# HELP repro_esc_total line one\\nline two with a \\\\ backslash"
    )
    assert not any(
        "line two" in l for l in text.splitlines() if not l.startswith("#")
    )
    parsed = parse_prometheus(text)
    assert parsed["repro_esc_total"] == 2.0
    assert parsed["repro_tiny"] == pytest.approx(1.5e-7)


def test_metrics_registry_rejects_conflicts_and_bad_input():
    reg = MetricsRegistry()
    reg.counter("repro_x_total", "x")
    with pytest.raises(ValueError):
        reg.gauge("repro_x_total", "x")  # same name, different kind
    with pytest.raises(ValueError):
        reg.counter("bad name!", "x")
    with pytest.raises(ValueError):
        reg.counter("repro_y_total", "y").inc(-1)
    with pytest.raises(ValueError):
        parse_prometheus("repro_z this-is-not-a-number\n")


def test_record_encode_metrics(small_image):
    res = encode_image(small_image, CodecParams(levels=2, cb_size=16))
    reg = MetricsRegistry()
    record_encode_metrics(reg, res)
    parsed = parse_prometheus(reg.to_prometheus())
    assert parsed["repro_blocks_coded_total"] == float(len(res.blocks))
    assert parsed["repro_bytes_emitted_total"] == float(res.n_bytes)
    assert parsed["repro_samples_coded_total"] == 64.0 * 64.0


# ---------------------------------------------------------------------------
# Amdahl accounting
# ---------------------------------------------------------------------------


def test_amdahl_report_hand_built_trace():
    tr = Tracer()
    # 2s serial + 8s parallelizable => f = 0.2.
    tr.add_span("tier-2 coding", 0.0, 2.0, category="stage", parallel=False)
    tr.add_span("tier-1 coding", 2.0, 10.0, category="stage", parallel=True)
    rep = amdahl_report(tr, n_cpus=4)
    assert rep.serial_seconds == pytest.approx(2.0)
    assert rep.parallel_seconds == pytest.approx(8.0)
    assert rep.sequential_fraction == pytest.approx(0.2)
    assert rep.max_speedup == pytest.approx(amdahl_speedup(2.0, 8.0, 4))
    assert rep.max_speedup == pytest.approx(10.0 / (2.0 + 8.0 / 4.0))
    assert rep.asymptotic_speedup == pytest.approx(5.0)
    assert rep.speedup_at(1) == pytest.approx(1.0)
    assert "sequential fraction" in rep.summary()
    assert rep.parallel_stages == ("tier-1 coding",)
    assert rep.serial_stages == ("tier-2 coding",)


def test_amdahl_report_empty_tracer_degenerates():
    """No stage spans: a well-defined f=1 report, not an exception."""
    rep = amdahl_report(Tracer())
    assert rep.sequential_fraction == 1.0
    assert rep.max_speedup == 1.0
    assert rep.serial_seconds == 0.0 and rep.parallel_seconds == 0.0
    assert rep.serial_stages == () and rep.parallel_stages == ()
    assert rep.speedup_at(8) == 1.0
    assert "sequential fraction" in rep.summary()  # renders, no div-by-zero


def test_amdahl_report_zero_duration_spans_degenerate():
    tr = Tracer()
    tr.add_span("tier-1 coding", 1.0, 1.0, category="stage", parallel=True)
    tr.add_span("tier-2 coding", 2.0, 2.0, category="stage", parallel=False)
    rep = amdahl_report(tr, n_cpus=4)
    assert rep.sequential_fraction == 1.0
    assert rep.max_speedup == 1.0
    # The stage names are still reported even though they cost nothing.
    assert rep.parallel_stages == ("tier-1 coding",)
    assert rep.serial_stages == ("tier-2 coding",)


def test_amdahl_report_from_real_encode(small_image):
    tr = Tracer()
    encode_image(small_image, CodecParams(levels=2, cb_size=16), tracer=tr)
    rep = amdahl_report(tr, n_cpus=4)
    assert 0.0 < rep.sequential_fraction < 1.0
    assert 1.0 < rep.max_speedup <= 4.0


# ---------------------------------------------------------------------------
# Stage table + full stage coverage
# ---------------------------------------------------------------------------


def test_stage_table_covers_all_stages(small_image):
    tr = Tracer()
    encode_image(small_image, CodecParams(levels=2, cb_size=16), tracer=tr)
    stages = tr.stage_seconds()
    assert set(stages) == set(STAGE_NAMES)
    assert all(v > 0.0 for v in stages.values())
    table = stage_table(tr, title="encode")
    for name in STAGE_NAMES:
        assert name in table
    # Parallel stages are starred; the total row closes the table.
    for name in PARALLEL_STAGES:
        line = next(l for l in table.splitlines() if l.startswith(name))
        assert "*" in line
    assert "total" in table


def test_decode_stage_coverage(small_image):
    res = encode_image(small_image, CodecParams(levels=2, cb_size=16))
    tr = Tracer()
    out = decode_image(res.data, n_workers=2, tracer=tr)
    assert out.shape == small_image.shape
    stages = tr.stage_seconds()
    # The decoder has no R/D allocation stage; everything else appears.
    expected = set(STAGE_NAMES) - {"R/D allocation"}
    assert set(stages) == expected
    assert all(v > 0.0 for v in stages.values())


def test_tracing_does_not_change_output(small_image):
    params = CodecParams(levels=2, cb_size=16)
    plain = encode_image(small_image, params)
    traced = encode_image(small_image, params, tracer=Tracer())
    assert plain.data == traced.data


# ---------------------------------------------------------------------------
# Satellite: StageStats.add_work type checking
# ---------------------------------------------------------------------------


def test_add_work_rejects_non_numeric_scalars():
    st = StageStats("tier-1 coding")
    st.add_work(blocks=3, ratio=0.5)
    st.add_work(blocks=2)
    assert st.work["blocks"] == 5
    st.add_work(names=["a"])
    st.add_work(names=["b"])
    assert st.work["names"] == ["a", "b"]
    with pytest.raises(TypeError):
        st.add_work(label="oops")
    with pytest.raises(TypeError):
        st.add_work(flag=True)  # bools are not work counts
    with pytest.raises(TypeError):
        st.add_work(blob={"nested": 1})


def test_encoder_report_add_work_type_error_via_timed():
    rep = EncoderReport()
    with rep.timed("tier-1 coding") as st:
        with pytest.raises(TypeError):
            st.add_work(bad="not-a-number")


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


def _burn(deadline: float) -> int:
    """Pure-Python busy loop the sampler can catch red-handed."""
    acc = 0
    while time.perf_counter() < deadline:
        for i in range(500):
            acc += i * i
    return acc


class TestSamplingProfiler:
    def test_lazy_export_from_obs_package(self):
        import repro.obs as obs
        from repro.obs.profile import SamplingProfiler as direct

        assert obs.SamplingProfiler is direct
        with pytest.raises(AttributeError):
            obs.not_a_real_export

    def test_frame_key_and_idle_classification(self):
        from repro.obs.profile import frame_key, is_idle_frame

        frame = sys._getframe()
        key = frame_key(frame)
        assert key.endswith(":TestSamplingProfiler.test_frame_key_and_idle_classification") or key.endswith(
            ":test_frame_key_and_idle_classification"
        )
        assert "test_obs.py" in key
        assert is_idle_frame("lib/threading.py:Condition.wait")
        assert is_idle_frame("concurrent/futures/_base.py:Future.result")
        assert not is_idle_frame("repro/ebcot.py:_cleanup_pass")

    def test_span_attribution_and_top_functions(self):
        from repro.obs.profile import SamplingProfiler

        tr = Tracer()
        prof = SamplingProfiler(tr, hz=400.0)
        with prof:
            with tr.span("hot-span"):
                _burn(time.perf_counter() + 0.4)
        assert prof.n_samples > 0
        by_span = prof.by_span()
        assert by_span, "sampler saw no threads"
        # The busy loop dominates; it ran entirely inside "hot-span".
        assert "hot-span" in by_span
        top = prof.top_functions(5)
        assert any("_burn" in func for func, _, _ in top)
        hot = prof.span_functions("hot-span", 5)
        assert any("_burn" in func for func, _ in hot)
        fracs = [frac for _, _, frac in top]
        assert all(0.0 < f <= 1.0 for f in fracs)
        assert "sampling tick" in prof.summary()

    def test_active_name_tracks_span_stack(self):
        tr = Tracer()
        ident = threading.get_ident()
        assert tr.active_name(ident) is None
        with tr.span("outer"):
            assert tr.active_name(ident) == "outer"
            with tr.span("inner"):
                assert tr.active_name(ident) == "inner"
            assert tr.active_name(ident) == "outer"
        assert tr.active_name(ident) is None

    def test_function_sampler_table_is_picklable(self):
        import pickle

        from repro.obs.profile import FunctionSampler

        worker = threading.Thread(
            target=_burn, args=(time.perf_counter() + 0.3,)
        )
        sampler = FunctionSampler(hz=400.0, span="kernel-x")
        with sampler:
            worker.start()
            worker.join()
        table = pickle.loads(pickle.dumps(sampler.table()))
        assert table["span"] == "kernel-x"
        assert table["n_samples"] > 0
        assert isinstance(table["counts"], dict)

    def test_chrome_trace_merges_profile_samples(self):
        from repro.obs.export import PID_PROFILE
        from repro.obs.profile import SamplingProfiler

        tr = Tracer()
        prof = SamplingProfiler(tr, hz=400.0)
        with prof:
            with tr.span("hot-span"):
                _burn(time.perf_counter() + 0.3)
        doc = chrome_trace(tr, profile=prof)
        samples = [
            e for e in doc["traceEvents"]
            if e["pid"] == PID_PROFILE and e["ph"] == "I"
        ]
        assert samples
        assert all(e["cat"] == "sample" and "span" in e["args"] for e in samples)
        # Plain export is unchanged when no profiler is passed.
        assert all(
            e["pid"] != PID_PROFILE for e in chrome_trace(tr)["traceEvents"]
        )

    def test_lifecycle_guards(self):
        from repro.obs.profile import FunctionSampler, SamplingProfiler

        with pytest.raises(ValueError):
            SamplingProfiler(hz=0.0)
        with pytest.raises(ValueError):
            FunctionSampler(hz=-1.0)
        prof = SamplingProfiler(hz=50.0)
        prof.start()
        with pytest.raises(RuntimeError):
            prof.start()
        prof.stop()
        prof.stop()  # idempotent

    def test_processes_backend_ships_sample_tables(self, small_image, process_backend):
        from repro.obs.profile import SamplingProfiler

        res = encode_image(small_image, CodecParams(levels=2, cb_size=16))
        # Supervised and unsupervised calls run the same attempt path,
        # so both must ship worker samples.
        for supervise in (False, True):
            tr = Tracer()
            prof = SamplingProfiler(tr, hz=300.0)
            prof.attach(process_backend)
            try:
                with prof:
                    decode_image(
                        res.data, n_workers=2, backend=process_backend,
                        tracer=tr, supervise=supervise,
                    )
            finally:
                prof.detach()
            assert process_backend.profile_hz is None  # detached again
            assert not process_backend.drain_profile_samples()  # drained
            assert prof.worker_tables, f"no sample tables (supervise={supervise})"
            for table in prof.worker_tables:
                assert table["n_samples"] >= 0
                assert isinstance(table["counts"], dict)
            # Shipped samples land in the merged view under "(worker)" spans.
            assert any(s.endswith("(worker)") for s in prof.by_span())


# ---------------------------------------------------------------------------
# CLI: repro trace / --trace
# ---------------------------------------------------------------------------


class TestTraceCLI:
    @pytest.fixture()
    def pgm(self, tmp_path, small_image):
        from repro.image import write_pnm

        path = tmp_path / "t.pgm"
        write_pnm(str(path), small_image)
        return path

    def test_trace_encode_chrome(self, pgm, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        assert main([
            "trace", "encode", str(pgm), "--levels", "2", "--cb-size", "16",
            "--trace-out", str(out), "--format", "chrome",
        ]) == 0
        doc = json.loads(out.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} >= set(STAGE_NAMES)
        assert all({"pid", "tid", "ts", "dur"} <= set(e) for e in xs)
        # A stage-table summary still reaches the terminal.
        assert "tier-1 coding" in capsys.readouterr().out

    def test_trace_encode_table(self, pgm, capsys):
        from repro.cli import main

        assert main([
            "trace", "encode", str(pgm), "--levels", "2", "--cb-size", "16",
        ]) == 0
        out = capsys.readouterr().out
        for name in STAGE_NAMES:
            assert name in out
        assert "sequential fraction" in out  # the Amdahl summary

    def test_trace_decode_prom(self, pgm, tmp_path, capsys):
        from repro.cli import main

        rj2k = tmp_path / "t.rj2k"
        assert main([
            "encode", str(pgm), str(rj2k), "--levels", "2", "--cb-size", "16",
        ]) == 0
        capsys.readouterr()
        assert main([
            "trace", "decode", str(rj2k), "--workers", "2", "--format", "prom",
        ]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        assert any(k.startswith("repro_stage_seconds_total_") for k in parsed)
        assert parsed["repro_worker_task_seconds_count"] > 0

    def test_encode_decode_trace_flag(self, pgm, tmp_path, capsys):
        from repro.cli import main

        rj2k = tmp_path / "t.rj2k"
        assert main([
            "encode", str(pgm), str(rj2k), "--levels", "2", "--cb-size", "16",
            "--trace",
        ]) == 0
        assert "quantization" in capsys.readouterr().out
        back = tmp_path / "back.pgm"
        assert main(["decode", str(rj2k), str(back), "--trace"]) == 0
        assert "tier-1 coding" in capsys.readouterr().out

"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

The end-to-end cases start the benchmark as a subprocess, the way it is
run for measurements; together they take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.inputs import N_SERVE_INPUTS, serve_schedule  # noqa: E402
from perfbench.spans import MIN_COVERAGE, _covered  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300, check=False,
    )


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_corrupted_oracle_reports_failure_instead_of_speed():
    proc = _run("--workload", "codec-serial", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--corrupt-oracle")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] >= result["failed"]
    assert result["metrics"] == {}
    assert "differs from the oracle" in proc.stderr


def test_traced_run_reports_every_layer_metric_with_full_coverage():
    proc = _run("--workload", "codec-serial", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = {k: v["value"] for k, v in
               json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.coverage_min"] >= MIN_COVERAGE
    for name in ("ebcot.encode_s", "ebcot.decode_ns_per_decision", "rate.alloc_calls",
                 "wavelet.dwt_s", "tier2.bytes", "host.ref_loop_s"):
        assert metrics[name] > 0, name
    assert metrics["core.t1_wall_s"] == 0 and metrics["serve.service_p50_s"] == 0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "serve-open", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", [1, 7])
def test_serve_schedule_is_balanced_and_seeded(seed):
    sched = serve_schedule(seed, rate=4.0, seconds=45.0, min_requests=100)
    assert sched == serve_schedule(seed, rate=4.0, seconds=45.0, min_requests=100)
    assert len(sched) == 180
    assert len(serve_schedule(seed, rate=4.0, seconds=1.0, min_requests=100)) == 100
    for b in range(0, len(sched), N_SERVE_INPUTS):
        block = sched[b:b + N_SERVE_INPUTS]
        assert sorted(j for _, _, j in block) == list(range(N_SERVE_INPUTS))
        assert Counter(op for _, op, _ in block) == {"encode": N_SERVE_INPUTS // 2,
                                                     "decode": N_SERVE_INPUTS // 2}
    assert [t for t, _, _ in sched] == sorted(t for t, _, _ in sched)


def test_covered_is_the_union_length():
    assert _covered([]) == 0.0
    assert _covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.2, 3.5)]) == pytest.approx(3.0)


def test_reap_children_stops_pool_workers_and_the_resource_tracker():
    from multiprocessing import resource_tracker

    from perfbench import codec_bench
    from perfbench.common import _children, reap_children
    from perfbench.inputs import warmup_image

    backend = codec_bench.open_backend("codec-procs")
    try:
        codec_bench.warm_ops(backend, warmup_image(32))
        assert _children()
    finally:
        backend.close()
    reap_children()
    assert _children() == []
    assert resource_tracker._resource_tracker._fd is None

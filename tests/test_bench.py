"""Benchmark trajectory: schema, scenarios, regression gate, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCHEMA,
    SCHEMA_VERSION,
    ComparePolicy,
    PoolCache,
    Scenario,
    ScenarioResult,
    TrajectoryRun,
    append_experiment,
    compare_runs,
    default_suite,
    environment_fingerprint,
    latest_trajectory,
    load_trajectories,
    load_trajectory,
    next_trajectory_path,
    render_report,
    run_scenario,
    write_trajectory,
)


def _result(name, walls, stages=None, spec=None):
    return ScenarioResult(
        name=name,
        spec=spec or {"op": "encode", "backend": "serial", "workers": 1,
                      "side": 32, "repeats": len(walls)},
        wall_seconds=list(walls),
        stage_seconds={k: list(v) for k, v in (stages or {}).items()},
    )


def _run(*scenarios, seq=0, suite="quick"):
    return TrajectoryRun(
        scenarios=list(scenarios), suite=suite, seq=seq,
        environment={"python": "3.x", "commit": "abc"}, created=1e9,
    )


# ---------------------------------------------------------------------------
# Schema round-trip and file numbering
# ---------------------------------------------------------------------------


def test_scenario_result_round_trip():
    sc = _result(
        "encode-32px-serial-w1", [0.5, 0.4, 0.6],
        stages={"tier-1 coding": [0.3, 0.25, 0.35]},
    )
    sc.speedup_vs_serial = 1.0
    sc.amdahl = {"sequential_fraction": 0.1}
    sc.top_functions = [["repro/ebcot.py:_cleanup_pass", 40, 0.5]]
    sc.extra = {"note": "x"}
    back = ScenarioResult.from_dict(sc.to_dict())
    assert back.name == sc.name
    assert back.wall_seconds == sc.wall_seconds
    assert back.stage_seconds == sc.stage_seconds
    assert back.wall_median == pytest.approx(0.5)
    assert back.wall_spread == pytest.approx(0.2)
    assert back.stage_medians() == {"tier-1 coding": pytest.approx(0.3)}
    assert back.stage_spread("tier-1 coding") == pytest.approx(0.1)
    assert back.speedup_vs_serial == 1.0
    assert back.amdahl == sc.amdahl
    assert back.top_functions == sc.top_functions
    assert back.extra == sc.extra


def test_trajectory_round_trip_and_schema_guard():
    run = _run(_result("a", [0.1]), seq=3)
    d = run.to_dict()
    assert d["schema"] == SCHEMA and d["schema_version"] == SCHEMA_VERSION
    assert d["created_iso"].endswith("Z")
    back = TrajectoryRun.from_dict(d)
    assert back.seq == 3 and back.suite == "quick"
    assert back.scenario("a").wall_seconds == [0.1]
    assert back.scenario("missing") is None
    with pytest.raises(ValueError):
        TrajectoryRun.from_dict({"schema": "something-else"})
    newer = dict(d, schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(ValueError):
        TrajectoryRun.from_dict(newer)


def test_trajectory_file_numbering(tmp_path):
    assert latest_trajectory(tmp_path) is None
    assert next_trajectory_path(tmp_path).name == "BENCH_0001.json"
    p1 = write_trajectory(_run(_result("a", [0.1])), tmp_path)
    p2 = write_trajectory(_run(_result("a", [0.2])), tmp_path)
    assert [p.name for p in (p1, p2)] == ["BENCH_0001.json", "BENCH_0002.json"]
    assert latest_trajectory(tmp_path) == p2
    runs = load_trajectories(tmp_path)
    assert [r.seq for r in runs] == [1, 2]
    # Sequence numbers come from the filename slot, and the environment
    # fingerprint is stamped at write time.
    one = load_trajectory(p1)
    assert one.seq == 1
    assert one.environment.get("python")
    assert one.created > 0


def test_environment_fingerprint_fields():
    env = environment_fingerprint()
    assert set(env) >= {"python", "numpy", "cpu_count", "platform", "commit"}
    assert env["cpu_count"] >= 1
    # In this git checkout the commit resolves to a real short hash.
    assert env["commit"] != ""


# ---------------------------------------------------------------------------
# Regression gate (synthetic runs: no timing involved)
# ---------------------------------------------------------------------------


def test_compare_ok_on_identical_runs():
    base = _run(_result("a", [0.5, 0.52], stages={"tier-1 coding": [0.4, 0.42]}))
    cur = _run(_result("a", [0.5, 0.52], stages={"tier-1 coding": [0.4, 0.42]}))
    res = compare_runs(cur, base)
    assert res.ok and not res.regressions
    assert "OK" in res.summary()
    # Both the wall metric and the stage metric were checked.
    assert {d.metric for d in res.deltas} == {"wall", "stage:tier-1 coding"}


def test_compare_flags_regression_and_improvement():
    base = _run(_result("a", [0.10, 0.10]), _result("b", [0.10, 0.10]))
    cur = _run(_result("a", [0.50, 0.50]), _result("b", [0.05, 0.05]))
    res = compare_runs(cur, base)
    assert not res.ok
    (reg,) = res.regressions
    assert reg.scenario == "a" and reg.metric == "wall"
    assert reg.ratio == pytest.approx(5.0)
    (imp,) = res.improvements
    assert imp.scenario == "b"
    assert "REGRESSION" in res.summary()
    assert "REGRESSION" in res.table()


def test_compare_noise_spread_widens_allowance():
    policy = ComparePolicy(rel_tol=0.1, abs_floor=0.0, noise_factor=2.0)
    # Same +30% slowdown; only the tight-spread baseline flags it.
    tight = _run(_result("a", [0.100, 0.102]))
    wobbly = _run(_result("a", [0.080, 0.120]))  # spread 0.04 -> +0.08 allowed
    cur = _run(_result("a", [0.130, 0.130]))
    assert not compare_runs(cur, tight, policy).ok
    assert compare_runs(cur, wobbly, policy).ok


def test_compare_abs_floor_ignores_microsecond_stages():
    base = _run(_result("a", [0.5], stages={"setup": [0.0001], "work": [0.4]}))
    cur = _run(_result("a", [0.5], stages={"setup": [0.004], "work": [0.4]}))
    res = compare_runs(cur, base)  # 40x slower setup, but under abs_floor
    assert res.ok
    assert {d.metric for d in res.deltas} == {"wall", "stage:work"}


def test_compare_missing_scenario_fails_gate():
    base = _run(_result("a", [0.1]), _result("b", [0.1]))
    cur = _run(_result("a", [0.1]), _result("c", [0.1]))
    res = compare_runs(cur, base)
    assert res.missing == ["b"]
    assert res.unmatched == ["c"]
    assert not res.ok


def test_compare_skips_experiment_scenarios():
    base = _run(_result("a", [0.1]), _result("experiment:fig6", [9.0]))
    cur = _run(_result("a", [0.1]), _result("experiment:fig6", [1.0]))
    res = compare_runs(cur, base)
    assert res.ok
    assert {d.scenario for d in res.deltas} == {"a"}


def test_tolerant_policy_is_wider():
    policy = ComparePolicy()
    tol = policy.tolerant()
    assert tol.rel_tol > policy.rel_tol
    assert tol.abs_floor > policy.abs_floor
    assert tol.noise_factor > policy.noise_factor


# ---------------------------------------------------------------------------
# Scenario suite (one real tiny measurement)
# ---------------------------------------------------------------------------


def test_default_suite_shapes():
    quick = default_suite(quick=True)
    full = default_suite(quick=False)
    assert len(quick) < len(full)
    assert len({sc.name for sc in full}) == len(full)
    assert {sc.backend for sc in quick} == {sc.backend for sc in full} == {
        "serial", "processes"
    }
    # Both operations keep a parallel point on the speedup curve.
    assert {sc.op for sc in full if sc.backend == "processes"} == {
        "encode", "decode"
    }
    # Every (op, side) that appears has a serial-w1 speedup base.
    combos = {(sc.op, sc.side) for sc in full}
    bases = {(sc.op, sc.side) for sc in full
             if sc.backend == "serial" and sc.workers == 1}
    assert combos == bases


def test_scenario_spec_round_trip():
    sc = Scenario("decode", "processes", 2, 128)
    assert sc.name == "decode-128px-processes-w2"
    assert Scenario.from_spec(sc.spec(repeats=3)) == sc


def test_run_scenario_records_walls_stages_and_amdahl():
    sc = Scenario("encode", "serial", 1, 32)
    result = run_scenario(sc, repeats=2, profile=False)
    assert result.name == "encode-32px-serial-w1"
    assert len(result.wall_seconds) == 2
    assert all(w > 0 for w in result.wall_seconds)
    assert "tier-1 coding" in result.stage_seconds
    assert all(len(v) == 2 for v in result.stage_seconds.values())
    assert 0.0 <= result.amdahl["sequential_fraction"] <= 1.0
    assert not result.top_functions  # profile=False


def test_run_scenario_rejects_bad_input():
    with pytest.raises(ValueError):
        run_scenario(Scenario("transcode", "serial", 1, 32))
    with pytest.raises(ValueError):
        run_scenario(Scenario("encode", "serial", 1, 32), repeats=0)


# ---------------------------------------------------------------------------
# Warm-pool reuse (regression: one pool per (backend, workers) cell)
# ---------------------------------------------------------------------------


def test_pool_cache_one_pool_per_cell():
    with PoolCache() as pools:
        a = pools.get("serial", 1)
        b = pools.get("serial", 1)
        c = pools.get("processes", 2)
        assert a is b
        assert a is not c
        assert pools.creations == 2


def test_pool_cache_applies_wrap_once():
    wrapped = []

    def wrap(backend):
        wrapped.append(backend)
        return backend

    with PoolCache(wrap) as pools:
        pools.get("serial", 1)
        pools.get("serial", 1)
    assert len(wrapped) == 1


def test_run_suite_reuses_one_pool_per_cell(monkeypatch):
    """The fresh-pool-per-scenario regression: the quick suite has three
    scenarios over two (backend, workers) cells, so exactly two pools
    are ever constructed -- scenario runs borrow, never build."""
    from repro.bench import run_suite
    from repro.bench import scenarios as sc_mod

    created = []
    real_get_backend = sc_mod.get_backend

    def counting_get_backend(name, workers):
        created.append((name, workers))
        return real_get_backend(name, workers)

    monkeypatch.setattr(sc_mod, "get_backend", counting_get_backend)
    run = run_suite(quick=True, repeats=1, profile=False)
    assert len(run.scenarios) == 3
    assert sorted(created) == [("processes", 2), ("serial", 1)]


# ---------------------------------------------------------------------------
# Experiment bridge + report rendering
# ---------------------------------------------------------------------------


def test_append_experiment(tmp_path):
    path = tmp_path / "BENCH_0001.json"
    append_experiment(path, "fig6_speedup", 1.5,
                      rows=[{"n": 1, "s": 1.0}], checks_passed=True)
    append_experiment(path, "fig6_speedup", 1.6)
    append_experiment(path, "fig8_scaling", 0.7, checks_passed=True)
    run = load_trajectory(path)
    assert run.suite == "experiments"
    fig6 = run.scenario("experiment:fig6_speedup")
    assert fig6.wall_seconds == [1.5, 1.6]
    assert fig6.extra["rows"] == [{"n": 1, "s": 1.0}]
    assert fig6.extra["checks_passed"] is True
    assert run.scenario("experiment:fig8_scaling").wall_seconds == [0.7]


def test_render_report_trend_table():
    a = _result("encode-32px-serial-w1", [0.5],
                stages={"tier-1 coding": [0.4]})
    a.amdahl = {"sequential_fraction": 0.12}
    a.speedup_vs_serial = 1.0
    a.top_functions = [["repro/ebcot.py:_cleanup_pass", 40, 0.5]]
    r1 = _run(_result("encode-32px-serial-w1", [0.6]), seq=1)
    r2 = _run(a, seq=2)
    text = render_report([r1, r2])
    assert "# Benchmark trajectory" in text
    assert "`encode-32px-serial-w1`" in text
    assert "600.0" in text and "500.0" in text  # both columns, in ms
    assert "#0001" in text and "#0002" in text
    assert "_cleanup_pass" in text
    assert "0.120" in text  # sequential fraction
    assert render_report([]).startswith("# Benchmark trajectory")


# ---------------------------------------------------------------------------
# CLI: repro bench run / compare / report (tiny monkeypatched suite)
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_suite(monkeypatch):
    """Shrink the canonical suite to one 32px serial encode."""
    from repro.bench import scenarios as sc_mod

    tiny = [Scenario("encode", "serial", 1, 32)]
    monkeypatch.setattr(sc_mod, "default_suite", lambda quick=False: tiny)
    return tiny


class TestBenchCLI:
    def test_run_writes_schema_versioned_file(self, tiny_suite, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "bench", "run", "--quick", "--dir", str(tmp_path),
            "--no-profile", "--repeats", "1", "--label", "t",
        ]) == 0
        out = capsys.readouterr().out
        assert "BENCH_0001.json" in out
        doc = json.loads((tmp_path / "BENCH_0001.json").read_text())
        assert doc["schema"] == SCHEMA
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["label"] == "t"
        assert [s["name"] for s in doc["scenarios"]] == ["encode-32px-serial-w1"]

    def test_compare_without_baseline_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "compare", "--dir", str(tmp_path)]) == 2
        assert "run `repro bench run` first" in capsys.readouterr().out

    def test_compare_gate_passes_then_handicap_fails(
        self, tiny_suite, tmp_path, capsys
    ):
        """The acceptance loop: clean compare passes, a compare with an
        artificially slowed kernel (persistent hang fault) exits 1."""
        from repro.cli import main

        assert main([
            "bench", "run", "--quick", "--dir", str(tmp_path),
            "--no-profile", "--repeats", "2",
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench", "compare", "--dir", str(tmp_path), "--tolerant",
        ]) == 0
        assert "OK (within tolerance)" in capsys.readouterr().out
        # Now slow every tier-1 map call by a persistent 0.2s hang fault.
        rc = main([
            "bench", "compare", "--dir", str(tmp_path),
            "--handicap", "hang:map:0:0:0.2:p",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSION" in out

    def test_compare_reports_scenario_of_removed_backend_missing(
        self, tmp_path, capsys
    ):
        """A baseline scenario on a backend that no longer exists is not
        re-measured (no crash) and fails the gate as missing."""
        from repro.cli import main

        gone = _result("encode-32px-threads-w2", [0.1, 0.1], spec={
            "op": "encode", "backend": "threads", "workers": 2,
            "side": 32, "repeats": 1,
        })
        write_trajectory(_run(gone), tmp_path)
        rc = main(["bench", "compare", "--dir", str(tmp_path), "--tolerant"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "skipped (unknown backend 'threads')" in out
        assert "encode-32px-threads-w2: in the baseline but not re-measured" in out

    def test_report_renders_markdown(self, tiny_suite, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "bench", "run", "--quick", "--dir", str(tmp_path),
            "--no-profile", "--repeats", "1",
        ]) == 0
        md = tmp_path / "report.md"
        assert main([
            "bench", "report", "--dir", str(tmp_path), "-o", str(md),
        ]) == 0
        text = md.read_text()
        assert "# Benchmark trajectory" in text
        assert "encode-32px-serial-w1" in text

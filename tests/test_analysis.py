"""Self-tests for :mod:`repro.analysis` (the lint rules).

Every lint rule is exercised on embedded good/bad fixtures written to a
temp tree, so a rule regression fails here before it silently stops
protecting the real codebase.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Finding, load_baseline, run_lint
from repro.analysis.lint import write_baseline

# ---------------------------------------------------------------------------
# Lint fixtures: write source to a temp tree, lint it, inspect findings.
# ---------------------------------------------------------------------------


def lint_source(tmp_path: Path, source: str, name: str = "mod.py", **more):
    """Lint ``source`` (plus optional sibling files) and return the result."""
    files = {name: source, **more}
    for fname, text in files.items():
        path = tmp_path / fname
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return run_lint([tmp_path])


def rules_of(result) -> set:
    return {f.rule for f in result.findings}


def codec_tree(tmp_path: Path, body: str):
    """Lint ``body`` as module ``repro.codec.mod`` (determinism scope)."""
    pkg = tmp_path / "repro" / "codec"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(body)
    return run_lint([tmp_path])


class TestKernelPicklability:
    def test_lambda_in_kernel_table_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "TEST_KERNELS = {'k': lambda s, o, a, b, e: None}\n"
        ))
        assert "kernel-picklability" in rules_of(res)

    def test_local_def_registration_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "TEST_KERNELS = {}\n"
            "def make():\n"
            "    def local_kernel(s, o, a, b, e):\n"
            "        pass\n"
            "    TEST_KERNELS['x'] = local_kernel\n"
        ))
        assert "kernel-picklability" in rules_of(res)

    def test_module_level_def_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def k(s, o, a, b, e):\n"
            "    o[0][a:b] = s[0][a:b]\n"
            "TEST_KERNELS = {'k': k}\n"
        ))
        assert "kernel-picklability" not in rules_of(res)

    def test_dotted_kernel_must_resolve(self, tmp_path):
        res = lint_source(
            tmp_path,
            "KERNEL = 'helpers:missing_kernel'\n",
            helpers="def good_kernel(s, o, a, b, e):\n    pass\n",
            **{"helpers.py": "def good_kernel(s, o, a, b, e):\n    pass\n"},
        )
        assert "kernel-picklability" in rules_of(res)

    def test_dotted_kernel_resolving_ok(self, tmp_path):
        res = lint_source(
            tmp_path,
            "KERNEL = 'helpers:good_kernel'\n",
            **{"helpers.py": "def good_kernel(s, o, a, b, e):\n    pass\n"},
        )
        assert "kernel-picklability" not in rules_of(res)


class TestKernelPurity:
    def test_global_write_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "CACHE = {}\n"
            "def k(s, o, a, b, e):\n"
            "    CACHE[a] = 1\n"
            "TEST_KERNELS = {'k': k}\n"
        ))
        assert "kernel-purity" in rules_of(res)

    def test_global_declaration_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "COUNT = 0\n"
            "def k(s, o, a, b, e):\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
            "TEST_KERNELS = {'k': k}\n"
        ))
        assert "kernel-purity" in rules_of(res)

    def test_mutator_call_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "SEEN = []\n"
            "def k(s, o, a, b, e):\n"
            "    SEEN.append(a)\n"
            "TEST_KERNELS = {'k': k}\n"
        ))
        assert "kernel-purity" in rules_of(res)

    def test_pure_kernel_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def k(s, o, a, b, e):\n"
            "    local = []\n"
            "    local.append(a)\n"
            "    o[0][a:b] = s[0][a:b]\n"
            "TEST_KERNELS = {'k': k}\n"
        ))
        assert "kernel-purity" not in rules_of(res)

    def test_non_kernel_function_not_checked(self, tmp_path):
        res = lint_source(tmp_path, (
            "CACHE = {}\n"
            "def helper(a):\n"
            "    CACHE[a] = 1\n"
        ))
        assert "kernel-purity" not in rules_of(res)


class TestPoolLifecycle:
    def test_leaked_binding_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "def leak():\n"
            "    bk = get_backend('processes', 2)\n"
            "    bk.map_shares('encode', [], 0)\n"
        ))
        assert "pool-lifecycle" in rules_of(res)

    def test_unbound_acquisition_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "def leak():\n"
            "    get_backend('processes', 2).map_shares('encode', [], 0)\n"
        ))
        assert "pool-lifecycle" in rules_of(res)

    def test_with_statement_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def ok():\n"
            "    with get_backend('processes', 2) as bk:\n"
            "        bk.map_shares('encode', [], 0)\n"
        ))
        assert "pool-lifecycle" not in rules_of(res)

    def test_try_finally_close_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def ok():\n"
            "    bk = get_backend('processes', 2)\n"
            "    try:\n"
            "        bk.map_shares('encode', [], 0)\n"
            "    finally:\n"
            "        bk.close()\n"
        ))
        assert "pool-lifecycle" not in rules_of(res)

    def test_alias_close_ok(self, tmp_path):
        # The codec's real idiom: close via a conditional alias.
        res = lint_source(tmp_path, (
            "def ok(created):\n"
            "    bk = get_backend('processes', 2)\n"
            "    owned = bk if created else None\n"
            "    try:\n"
            "        bk.map_shares('encode', [], 0)\n"
            "    finally:\n"
            "        if owned is not None:\n"
            "            owned.close()\n"
        ))
        assert "pool-lifecycle" not in rules_of(res)

    def test_ownership_transfer_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def factory():\n"
            "    return get_backend('processes', 2), True\n"
            "def adopt():\n"
            "    return Wrapper(get_backend('processes', 2))\n"
        ))
        assert "pool-lifecycle" not in rules_of(res)


class TestDeterminism:
    def test_clock_read_flagged_in_scope(self, tmp_path):
        res = codec_tree(tmp_path, (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()\n"
        ))
        assert "determinism" in rules_of(res)

    def test_unseeded_rng_flagged(self, tmp_path):
        res = codec_tree(tmp_path, (
            "import random\n"
            "import numpy as np\n"
            "def f():\n"
            "    return random.random() + np.random.rand()\n"
        ))
        assert sum(1 for f in res.findings if f.rule == "determinism") == 2

    def test_environment_read_flagged(self, tmp_path):
        res = codec_tree(tmp_path, (
            "import os\n"
            "def f():\n"
            "    return os.environ.get('X'), os.getenv('Y')\n"
        ))
        assert "determinism" in rules_of(res)

    def test_set_iteration_flagged(self, tmp_path):
        res = codec_tree(tmp_path, (
            "def f(d):\n"
            "    for x in {1, 2, 3}:\n"
            "        pass\n"
            "    return [k for k in d.keys()]\n"
        ))
        assert sum(1 for f in res.findings if f.rule == "determinism") == 2

    def test_seeded_rng_ok(self, tmp_path):
        res = codec_tree(tmp_path, (
            "import numpy as np\n"
            "def f():\n"
            "    rng = np.random.default_rng(42)\n"
            "    return rng.integers(0, 10)\n"
        ))
        assert "determinism" not in rules_of(res)

    def test_out_of_scope_module_exempt(self, tmp_path):
        # Same source outside repro.codec/* -- not byte-producing.
        res = lint_source(tmp_path, (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()\n"
        ))
        assert "determinism" not in rules_of(res)


class TestObsZeroCost:
    def test_unguarded_span_in_loop_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f(items, tracer=None):\n"
            "    for it in items:\n"
            "        tracer.task('x')\n"
        ))
        assert "obs-zero-cost" in rules_of(res)

    def test_ctor_in_loop_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f(items):\n"
            "    for it in items:\n"
            "        t = Tracer()\n"
        ))
        assert "obs-zero-cost" in rules_of(res)

    def test_guarded_branch_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f(items, tracer=None):\n"
            "    for it in items:\n"
            "        if tracer is not None:\n"
            "            tracer.task('x')\n"
        ))
        assert "obs-zero-cost" not in rules_of(res)

    def test_mandatory_param_ok(self, tmp_path):
        # A receiver the signature guarantees live: the caller's guard
        # is the zero-cost branch.
        res = lint_source(tmp_path, (
            "def f(items, tracer):\n"
            "    for it in items:\n"
            "        if True:\n"
            "            tracer.task('x')\n"
            "    for it in items:\n"
            "        if tracer:\n"
            "            tracer.record(it)\n"
        ))
        assert "obs-zero-cost" not in rules_of(res)

    def test_early_exit_guard_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f(items, tracer=None):\n"
            "    if tracer is None:\n"
            "        return\n"
            "    for it in items:\n"
            "        if len(items) > 1:\n"
            "            tracer.task('x')\n"
        ))
        assert "obs-zero-cost" not in rules_of(res)

    def test_outside_loop_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f(tracer=None):\n"
            "    t = Tracer()\n"
            "    t.task('once')\n"
        ))
        assert "obs-zero-cost" not in rules_of(res)


class TestExceptionHygiene:
    def test_bare_except_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        pass\n"
        ))
        assert "exception-hygiene" in rules_of(res)

    def test_silent_broad_except_flagged(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        ))
        assert "exception-hygiene" in rules_of(res)

    def test_reraise_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        cleanup()\n"
            "        raise\n"
        ))
        assert "exception-hygiene" not in rules_of(res)

    def test_bound_and_used_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f(log):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        log.warning('failed: %s', exc)\n"
        ))
        assert "exception-hygiene" not in rules_of(res)

    def test_narrow_except_ok(self, tmp_path):
        res = lint_source(tmp_path, (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError:\n"
            "        pass\n"
        ))
        assert "exception-hygiene" not in rules_of(res)


# ---------------------------------------------------------------------------
# Suppression and baseline semantics.
# ---------------------------------------------------------------------------

# Two distinct broad swallows (different source text, so different
# baseline fingerprints).
_TWO_SWALLOWS = (
    "def f():\n"
    "    try:\n"
    "        work()\n"
    "    except Exception:{noqa1}\n"
    "        pass\n"
    "    try:\n"
    "        work()\n"
    "    except BaseException:{noqa2}\n"
    "        pass\n"
)


class TestSuppression:
    def test_noqa_silences_one_rule_on_one_line(self, tmp_path):
        res = lint_source(tmp_path, _TWO_SWALLOWS.format(
            noqa1="  # repro: noqa[exception-hygiene]", noqa2=""
        ))
        hyg = [f for f in res.findings if f.rule == "exception-hygiene"]
        assert len(hyg) == 1 and hyg[0].line == 8
        assert len(res.suppressed) == 1 and res.suppressed[0].line == 4

    def test_noqa_for_other_rule_does_not_silence(self, tmp_path):
        res = lint_source(tmp_path, _TWO_SWALLOWS.format(
            noqa1="  # repro: noqa[determinism]", noqa2=""
        ))
        assert sum(1 for f in res.findings if f.rule == "exception-hygiene") == 2
        assert not res.suppressed

    def test_noqa_comma_list(self, tmp_path):
        res = lint_source(tmp_path, _TWO_SWALLOWS.format(
            noqa1="  # repro: noqa[determinism, exception-hygiene]",
            noqa2="  # repro: noqa[exception-hygiene]",
        ))
        assert not res.findings
        assert len(res.suppressed) == 2


class TestBaseline:
    def _findings(self, tmp_path):
        res = lint_source(tmp_path, _TWO_SWALLOWS.format(noqa1="", noqa2=""))
        assert len(res.findings) == 2
        return res.findings

    def test_baseline_absorbs_known_findings(self, tmp_path):
        findings = self._findings(tmp_path)
        base = [f.fingerprint for f in findings]
        res = run_lint([tmp_path], baseline=base)
        assert res.ok
        assert len(res.baselined) == 2
        assert not res.stale_baseline

    def test_stale_entry_reported(self, tmp_path):
        findings = self._findings(tmp_path)
        ghost = "gone.py::exception-hygiene::except Exception:"
        res = run_lint([tmp_path],
                       baseline=[findings[0].fingerprint, ghost])
        assert res.stale_baseline == [ghost]
        assert len(res.findings) == 1  # the unbaselined one still fires

    def test_strict_ignores_baseline(self, tmp_path):
        findings = self._findings(tmp_path)
        base = [f.fingerprint for f in findings]
        res = run_lint([tmp_path], baseline=base, strict=True)
        assert len(res.findings) == 2
        assert not res.baselined

    def test_write_load_roundtrip(self, tmp_path):
        findings = self._findings(tmp_path)
        path = tmp_path / "baseline.txt"
        n = write_baseline(path, findings)
        entries = load_baseline(path)
        assert n == len(entries)
        assert set(entries) == {f.fingerprint for f in findings}
        # Comments in the written file are skipped by the loader.
        assert path.read_text().startswith("#")

    def test_fingerprint_is_line_drift_immune(self):
        a = Finding("p.py", 10, 4, "r", "m", snippet="x = 1")
        b = Finding("p.py", 99, 0, "r", "other msg", snippet="x = 1")
        assert a.fingerprint == b.fingerprint


class TestRepoIsClean:
    def test_src_lints_clean_against_committed_baseline(self):
        root = Path(__file__).resolve().parent.parent
        baseline = load_baseline(root / "lint-baseline.txt")
        res = run_lint([root / "src" / "repro"], baseline=baseline)
        assert res.ok, "\n".join(f.format() for f in res.findings)
        assert not res.stale_baseline


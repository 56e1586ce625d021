"""Cost envelope of the analysis layer (DESIGN.md sec. 10).

**Lint stays fast.** A full-repo ``repro lint`` (all six rules over
every module of ``src/repro``) must finish well under the ~5 s mark
that keeps it viable as a pre-commit/CI step.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_bench_full_repo_lint(benchmark):
    from repro.analysis import load_baseline, run_lint

    baseline = load_baseline(ROOT / "lint-baseline.txt")

    def lint():
        return run_lint([SRC / "repro"], baseline=baseline)

    result = benchmark.pedantic(lint, rounds=3, iterations=1)
    print(f"\nlint: {result.n_files} files, "
          f"{len(result.findings)} finding(s)")
    assert result.n_files > 90
    assert result.ok, "\n".join(f.format() for f in result.findings)
    assert benchmark.stats["min"] < 5.0, "full-repo lint must stay under 5 s"


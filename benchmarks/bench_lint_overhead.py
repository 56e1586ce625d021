"""Cost envelope of the analysis layer (DESIGN.md sec. 10).

Two promises are enforced here:

- **Opt-in only.** The race detector must cost nothing when unused:
  the normal encode path never imports ``repro.analysis``, and an
  undetected encode's wall time is unchanged (the detector's shadow
  execution happens only inside ``RaceDetectorBackend``).
- **Lint stays fast.** A full-repo ``repro lint`` (all six rules over
  every module of ``src/repro``) must finish well under the ~5 s mark
  that keeps it viable as a pre-commit/CI step.
"""

from __future__ import annotations

import subprocess
import sys
import time
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


def test_bench_detector_is_opt_in(benchmark):
    """The normal path never imports repro.analysis, and an encode that
    doesn't ask for the detector pays nothing for its existence."""
    # Fresh interpreter: import the codec, run an encode, verify the
    # analysis module was never pulled in as a side effect.
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.codec import CodecParams, encode_image\n"
        "from repro.image import SyntheticSpec, synthetic_image\n"
        "img = synthetic_image(SyntheticSpec(64, 64, 'mix', seed=3))\n"
        "encode_image(img, CodecParams(levels=3, cb_size=32))\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.analysis')]\n"
        "assert not loaded, f'normal path imported {loaded}'\n"
        "print('clean')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    assert "clean" in out.stdout

    from repro.analysis import RaceDetectorBackend
    from repro.codec import CodecParams, encode_image
    from repro.core.backend import get_backend
    from repro.image import SyntheticSpec, synthetic_image

    img = synthetic_image(SyntheticSpec(128, 128, "mix", seed=3))
    params = CodecParams(levels=3, cb_size=32, base_step=1 / 64,
                         target_bpp=(1.0,))

    with get_backend("serial", 2) as bk:
        t0 = time.perf_counter()
        plain = encode_image(img, params, backend=bk, n_workers=2)
        plain_s = time.perf_counter() - t0

        det = RaceDetectorBackend(bk)
        t0 = time.perf_counter()
        checked = encode_image(img, params, backend=det, n_workers=2)
        checked_s = time.perf_counter() - t0

    def undetected():
        with get_backend("serial", 2) as fresh:
            return encode_image(img, params, backend=fresh, n_workers=2)

    benchmark.pedantic(undetected, rounds=3, iterations=1)
    print(f"\nencode: plain {plain_s:.3f}s, under detector {checked_s:.3f}s "
          f"(x{checked_s / max(plain_s, 1e-9):.1f}); "
          f"races found: {len(det.report.races)}")
    # Same bytes either way (the detector only observes), and clean.
    assert checked.data == plain.data
    assert det.report.clean

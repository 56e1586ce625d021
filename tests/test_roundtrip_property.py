"""Property-based round-trip coverage (seeded, deterministic).

Each case is derived entirely from its seed -- shape (including 1-pixel
edges and odd sizes), content kind, decomposition depth, code-block
size, filter, and quantizer step (including extremes) -- so a failure
reproduces from the test id alone.

Invariants:

- 5/3 with no rate target is *exactly* lossless, bit for bit.
- 9/7 reconstruction quality never falls below a conservative PSNR
  floor for its quantizer step.
- Decoded images always have the encoded shape and finite values.

A 24-case subset runs by default; the full 200-case sweep is marked
``slow`` (``pytest -m slow``).  A slice of cases runs through an
explicit two-worker ``serial`` or ``processes`` execution backend so the
property holds off the default single-worker path too.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import seeded_image
from repro.codec import CodecParams, decode_image, encode_image
from repro.image import psnr

N_FAST = 24
N_SLOW = 200

_SHAPES = (
    lambda r: (1, 1),
    lambda r: (1, int(r.integers(2, 40))),       # 1-pixel tall
    lambda r: (int(r.integers(2, 40)), 1),       # 1-pixel wide
    lambda r: (int(r.integers(3, 30)) * 2 + 1,   # odd x odd
               int(r.integers(3, 30)) * 2 + 1),
    lambda r: (int(2 ** r.integers(4, 8)),       # power-of-two
               int(2 ** r.integers(4, 8))),
    lambda r: (int(r.integers(2, 130)),          # anything
               int(r.integers(2, 130))),
)
_KINDS = ("noise", "ramp", "edges", "constant")
# (base_step, conservative PSNR floor in dB) -- spans fine to extreme.
_STEPS = ((1 / 4096, 45.0), (1 / 64, 45.0), (1 / 8, 40.0), (1.0, 35.0), (8.0, 20.0))


def make_case(seed: int) -> dict:
    r = np.random.default_rng(seed)
    h, w = _SHAPES[int(r.integers(len(_SHAPES)))](r)
    filt = "5/3" if r.integers(2) else "9/7"
    step, floor = _STEPS[int(r.integers(len(_STEPS)))]
    return {
        "seed": seed,
        "shape": (h, w),
        "kind": _KINDS[int(r.integers(len(_KINDS)))],
        "filter": filt,
        "levels": int(r.integers(0, 6)),
        "cb_size": int((16, 32, 64)[int(r.integers(3))]),
        "step": step,
        "floor": floor,
        # half the cases run on an explicit two-worker backend
        "backend": (None, None, "serial", "processes")[seed % 4],
    }


def check_roundtrip(case: dict, process_backend) -> None:
    img = seeded_image(case["seed"], *case["shape"], kind=case["kind"])
    params = CodecParams(
        levels=case["levels"],
        filter_name=case["filter"],
        cb_size=case["cb_size"],
        base_step=case["step"],
    )
    backend = case["backend"]
    if backend == "processes":
        backend = process_backend  # reuse the session pool
    kwargs = {} if backend is None else {"backend": backend, "n_workers": 2}
    result = encode_image(img, params, **kwargs)
    out = decode_image(result.data, **kwargs)
    assert out.shape == img.shape
    assert np.all(np.isfinite(out))
    if case["filter"] == "5/3":
        assert np.array_equal(out, img), f"lossless violated: {case}"
    else:
        quality = psnr(img, out)
        assert quality >= case["floor"], f"PSNR {quality:.1f} dB below floor: {case}"


@pytest.mark.parametrize("seed", range(N_FAST), ids=lambda s: f"case{s}")
def test_roundtrip_fast(seed, process_backend):
    check_roundtrip(make_case(1000 + seed), process_backend)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(N_FAST, N_SLOW), ids=lambda s: f"case{s}")
def test_roundtrip_full(seed, process_backend):
    check_roundtrip(make_case(1000 + seed), process_backend)


def test_case_generation_is_stable():
    """Case derivation must never drift, or seeds stop reproducing."""
    a = [make_case(1000 + s) for s in range(N_SLOW)]
    b = [make_case(1000 + s) for s in range(N_SLOW)]
    assert a == b
    # the matrix genuinely exercises the advertised edges
    shapes = {c["shape"] for c in a}
    assert any(1 in s for s in shapes), "no 1-pixel edge case generated"
    assert any(h % 2 and w % 2 and h > 1 and w > 1 for h, w in shapes)
    assert {c["filter"] for c in a} == {"5/3", "9/7"}
    assert any(c["step"] == 8.0 for c in a), "no extreme-quantizer case"
    assert any(c["kind"] == "constant" for c in a)

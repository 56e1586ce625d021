"""Golden tier-1 corpus: bytes pinned across commits.

The differential and round-trip suites compare code paths of one commit
with each other; this module compares them with recorded history.  A
seeded corpus of code-blocks and images maps to digests stored in
``tests/golden/t1_golden.json``:

- per block: sha256 of ``EncodedBlock.data`` and of its pass table
  ``(plane, pass_type, rate_bytes, dist_reduction, n_decisions)``;
- for every fifth block: sha256 of ``decode_codeblock`` output at every
  truncation point;
- per image: sha256 of the ``encode_image`` codestream under two
  parameter sets.

The corpus is built from integer draws and integer arithmetic only, so
it does not depend on floating-point library details.  Every digest is
an intended-behaviour pin: regenerate the file (``PYTHONPATH=src python
tests/test_t1_golden.py --write``) only for a change that is meant to
alter codestream bytes, and say so in its description.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.codec import CodecParams, encode_image
from repro.ebcot import decode_codeblock, encode_codeblock

GOLDEN = Path(__file__).with_name("golden") / "t1_golden.json"
ORIENTS = ("LL", "LH", "HL", "HH")
N_BLOCKS = 200
DECODE_EVERY = 5

# Hand-picked edge shapes first, then seeded random shapes.
_EDGE_SHAPES = [
    (1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (2, 2), (3, 3), (3, 5),
    (4, 1), (4, 4), (5, 4), (4, 7), (6, 6), (7, 3), (8, 8), (9, 13),
    (16, 16), (17, 15), (31, 33), (32, 32), (64, 64), (70, 70), (67, 5),
    (5, 67),
]

IMAGE_PARAMS = {
    "layered": CodecParams(target_bpp=(0.5, 2.0)),
    "step1": CodecParams(base_step=1.0),
}
IMAGE_SHAPES = {"64x64": (64, 64), "80x56": (80, 56), "33x47": (33, 47)}


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def corpus_block(i: int):
    """Block ``i`` of the corpus: ``(coeffs, orient)``.

    Magnitudes are heavy-tailed (a uniform draw shifted right by a
    uniform amount); the bit depth cycles up to 20 planes on small
    blocks and one sample carries the top magnitude.  Every eleventh
    block is all zero.
    """
    rng = np.random.default_rng([2002, i])
    if i < len(_EDGE_SHAPES):
        h, w = _EDGE_SHAPES[i]
    else:
        h, w = (int(x) for x in rng.integers(1, 71, size=2))
    orient = ORIENTS[i % 4]
    if i % 11 == 10:
        return np.zeros((h, w), dtype=np.int64), orient
    # Large bit depths only on small blocks keep the corpus quick.
    max_bits = 20 if h * w <= 256 else (12 if h * w <= 1200 else 8)
    bits = 1 + i % max_bits
    mag = rng.integers(0, 1 << bits, size=(h, w)) >> rng.integers(0, bits + 1, size=(h, w))
    mag.flat[int(rng.integers(0, h * w))] = (1 << bits) - 1  # pin the bit depth
    sign = np.where(rng.integers(0, 2, size=(h, w)) == 1, -1, 1)
    return (mag * sign).astype(np.int64), orient


def corpus_image(shape):
    """An 8-bit image from integer gradients, rectangles and noise."""
    h, w = shape
    rng = np.random.default_rng([2002, h, w])
    y = np.arange(h)[:, None]
    x = np.arange(w)[None, :]
    img = (3 * y + 2 * x) % 256
    img = img + 40 * (((y // 9) + (x // 7)) % 2)
    img = img + rng.integers(-12, 13, size=(h, w))
    return np.clip(img, 0, 255).astype(np.uint8)


def _pass_table_text(block) -> bytes:
    rows = [
        (p.plane, p.pass_type, p.rate_bytes, repr(float(p.dist_reduction)), p.n_decisions)
        for p in block.passes
    ]
    return repr(rows).encode()


def block_record(i: int) -> dict:
    coeffs, orient = corpus_block(i)
    block = encode_codeblock(coeffs, orient)
    rec = {
        "shape": list(coeffs.shape),
        "data": _digest(block.data),
        "passes": _digest(_pass_table_text(block)),
    }
    if i % DECODE_EVERY == 0:
        chunks = []
        for n in range(block.n_passes + 1):
            values, last_plane = decode_codeblock(
                block.data, block.shape, orient, block.n_planes, n
            )
            chunks.append(values.astype("<i8").tobytes())
            chunks.append(str(last_plane).encode())
        rec["decodes"] = _digest(*chunks)
    return rec


def image_record(shape_key: str, params_key: str) -> str:
    result = encode_image(corpus_image(IMAGE_SHAPES[shape_key]), IMAGE_PARAMS[params_key])
    return _digest(result.data)


def build_golden() -> dict:
    return {
        "blocks": [block_record(i) for i in range(N_BLOCKS)],
        "images": {
            f"{s}/{p}": image_record(s, p) for s in IMAGE_SHAPES for p in IMAGE_PARAMS
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_required_cases(golden):
    shapes = [corpus_block(i)[0].shape for i in range(N_BLOCKS)]
    assert len(golden["blocks"]) == N_BLOCKS
    assert (1, 1) in shapes and (70, 70) in shapes
    assert any(h % 4 for h, _ in shapes)
    assert {corpus_block(i)[1] for i in range(4)} == set(ORIENTS)
    mags = [int(np.abs(corpus_block(i)[0]).max(initial=0)) for i in range(N_BLOCKS)]
    assert 0 in mags and max(mags) >= 1 << 19


def test_block_bytes_and_pass_tables(golden):
    bad = []
    for i, want in enumerate(golden["blocks"]):
        got = block_record(i)
        if got != want:
            keys = sorted(k for k in want if got.get(k) != want[k])
            bad.append(f"block {i} {tuple(want['shape'])}: {', '.join(keys)}")
    assert not bad, "golden tier-1 mismatch:\n" + "\n".join(bad)


@pytest.mark.parametrize("params_key", sorted(IMAGE_PARAMS))
@pytest.mark.parametrize("shape_key", sorted(IMAGE_SHAPES))
def test_image_codestreams(golden, shape_key, params_key):
    assert image_record(shape_key, params_key) == golden["images"][f"{shape_key}/{params_key}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_t1_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

"""Seeded inputs and their oracle: expected outputs from plain serial calls.

The seed decides the image contents and, for ``serve-open``, the request
mix; the program under test only ever sees the generated images and
codestreams.  Every expected output is computed once in set-up by a
direct serial ``encode_image``/``decode_image`` call, and each measured
operation is compared against it byte for byte (array for array).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import CodecParams, SyntheticSpec, decode_image, encode_image, synthetic_image

KINDS = ("fbm", "edges", "texture", "mix")

#: codec-serial / codec-procs: one power-of-two and one non-power-of-two
#: size; input ``i`` has kind ``KINDS[i]`` and size ``CODEC_SIZES[i % 2]``.
CODEC_SIZES = ((256, 256), (176, 216))
#: Library defaults (9/7, 5 levels, 64x64 blocks) with two quality layers.
CODEC_PARAMS = CodecParams(target_bpp=(0.5, 2.0))

#: serve-open: small single-layer images, every kind at every side.  No
#: rate target, so PCRD does not run; a coarse step keeps the
#: reconstruction lossy (finite PSNR).
SERVE_SIDES = (32, 48, 64, 80, 96)
SERVE_PARAMS = CodecParams(base_step=1.0)
N_SERVE_INPUTS = len(KINDS) * len(SERVE_SIDES)

#: (block bytes, block shape, passes decoded) -> MQ decisions decoded.
DecisionTable = Dict[Tuple[bytes, Tuple[int, int], int], int]


@dataclass
class Case:
    """One input and its expected outputs."""

    image: np.ndarray
    data: bytes            # expected codestream of encode_image(image, params)
    full: np.ndarray       # expected decode_image(data)
    layer0: np.ndarray     # expected decode_image(data, max_layer=0)

    @property
    def pixels(self) -> int:
        return int(self.image.shape[0] * self.image.shape[1])


def _image_seed(seed: int, i: int) -> int:
    return seed * 101 + i


def _oracle(image: np.ndarray, params: CodecParams, progressive: bool,
            table: DecisionTable) -> Case:
    result = encode_image(image, params)
    data = result.data
    full = decode_image(data)
    layer0 = decode_image(data, max_layer=0) if progressive else full
    # The decoder makes the encoder's decisions for the passes it reads.
    layers = [0, len(result.layer_passes) - 1] if progressive else [len(result.layer_passes) - 1]
    for layer in layers:
        for gid, rec in enumerate(result.blocks):
            n = result.layer_passes[layer][gid]
            if n:
                eb = rec.encoded
                table[(eb.data[: eb.passes[n - 1].rate_bytes], tuple(eb.shape), n)] = sum(
                    p.n_decisions for p in eb.passes[:n]
                )
    return Case(image=image, data=data, full=full, layer0=layer0)


def codec_cases(seed: int) -> Tuple[List[Case], DecisionTable]:
    """The codec workloads' input cycle and its oracle."""
    table: DecisionTable = {}
    cases = []
    for i, kind in enumerate(KINDS):
        h, w = CODEC_SIZES[i % 2]
        img = synthetic_image(SyntheticSpec(h, w, kind, seed=_image_seed(seed, i)))
        cases.append(_oracle(img, CODEC_PARAMS, True, table))
    return cases, table


def serve_cases(seed: int) -> Tuple[List[Case], DecisionTable]:
    """serve-open's input pool and its oracle."""
    table: DecisionTable = {}
    cases = []
    for i in range(N_SERVE_INPUTS):
        side = SERVE_SIDES[i // len(KINDS)]
        kind = KINDS[i % len(KINDS)]
        img = synthetic_image(SyntheticSpec(side, side, kind, seed=_image_seed(seed, i)))
        cases.append(_oracle(img, SERVE_PARAMS, False, table))
    return cases, table


def serve_schedule(seed: int, rate: float, seconds: float,
                   min_requests: int) -> List[Tuple[float, str, int]]:
    """Open-loop schedule: request ``k`` is due at ``k / rate`` seconds.

    Each entry is ``(due offset, op, input index)``.  Requests come in
    blocks of one request per input; block ``b`` encodes input ``j``
    when ``j + b`` is even and decodes it otherwise, so every block has
    the same mix of sizes and ops and every run the same composition.
    The seed shuffles the order inside each block.  The schedule holds
    the whole blocks that fit in ``seconds``, and at least
    ``min_requests``.
    """
    rng = random.Random(f"serve-schedule-{seed}")
    blocks = max(-(-min_requests // N_SERVE_INPUTS), int(rate * seconds) // N_SERVE_INPUTS)
    order: List[Tuple[str, int]] = []
    for b in range(blocks):
        block = [("encode" if (j + b) % 2 == 0 else "decode", j) for j in range(N_SERVE_INPUTS)]
        rng.shuffle(block)
        order.extend(block)
    return [(k / rate, op, j) for k, (op, j) in enumerate(order)]


def warmup_image(side: int) -> np.ndarray:
    """The fixed image every set-up warms its ops with."""
    return synthetic_image(SyntheticSpec(side, side, "mix", seed=0))


def pooled_psnr(pairs: List[Tuple[np.ndarray, np.ndarray]]) -> float:
    """PSNR (dB, 8-bit peak) of the mean squared error over all pairs.

    Pooling the error keeps the figure finite when one image decodes
    exactly, and stops near-lossless images from dominating a mean of
    per-image PSNRs.
    """
    sq = sum(float(np.sum((a.astype(np.float64) - b.astype(np.float64)) ** 2)) for a, b in pairs)
    n = sum(a.size for a, _ in pairs)
    mse = sq / n
    return float("inf") if mse == 0 else 10.0 * np.log10(255.0 * 255.0 / mse)

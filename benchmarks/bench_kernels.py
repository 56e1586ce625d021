"""Wall-clock micro-benchmarks of the real computational kernels.

These time this repository's actual implementations (not the
simulated 2002 machines): the wavelet transform, one tier-1 code-block,
MQ coder throughput, and the two baseline codecs.  They back the
real-measurement half of Fig. 2 and give contributors a regression
baseline.
"""

import numpy as np
import pytest

from repro.baselines import jpeg_encode, spiht_encode
from repro.codec import CodecParams, encode_image
from repro.ebcot import encode_codeblock
from repro.ebcot.mq import MQEncoder
from repro.image import SyntheticSpec, synthetic_image
from repro.wavelet import dwt2d


@pytest.fixture(scope="module")
def image512():
    return synthetic_image(SyntheticSpec(512, 512, "mix", seed=2))


@pytest.fixture(scope="module")
def image256():
    return synthetic_image(SyntheticSpec(256, 256, "mix", seed=2))


def test_bench_dwt2d_512(benchmark, image512):
    shifted = image512.astype(np.float64) - 128.0
    benchmark(dwt2d, shifted, 5, "9/7")


def test_bench_dwt2d_53_512(benchmark, image512):
    shifted = image512.astype(np.int64) - 128
    benchmark(dwt2d, shifted, 5, "5/3")


def test_bench_t1_codeblock_64(benchmark):
    rng = np.random.default_rng(0)
    coeffs = np.round(rng.laplace(0, 40, size=(64, 64))).astype(np.int64)
    benchmark(encode_codeblock, coeffs, "HL")


def test_bench_mq_throughput(benchmark):
    rng = np.random.default_rng(1)
    decisions = (rng.random(20000) < 0.2).astype(int).tolist()
    contexts = rng.integers(0, 19, size=20000).tolist()

    def run():
        enc = MQEncoder(19)
        encode = enc.encode
        for d, c in zip(decisions, contexts):
            encode(d, c)
        enc.flush()
        return enc.get_bytes()

    data = benchmark(run)
    assert len(data) > 100


def test_bench_jpeg_encode_256(benchmark, image256):
    benchmark(jpeg_encode, image256, 75)


def test_bench_spiht_encode_256(benchmark, image256):
    benchmark(spiht_encode, image256, 1.0, 5)


def test_bench_jpeg2000_encode_256(benchmark, image256):
    params = CodecParams(levels=5, base_step=1 / 64)
    benchmark.pedantic(encode_image, args=(image256, params), rounds=1, iterations=1)

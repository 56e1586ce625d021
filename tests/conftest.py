"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Property tests run numeric kernels; keep example counts moderate and
# disable deadlines (first-call numpy warm-up easily exceeds defaults).
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_image():
    """A 64x64 standard synthetic test image (session-cached)."""
    from repro.image import SyntheticSpec, synthetic_image

    return synthetic_image(SyntheticSpec(64, 64, "mix", seed=7))


@pytest.fixture(scope="session")
def medium_image():
    """A 128x128 standard synthetic test image (session-cached)."""
    from repro.image import SyntheticSpec, synthetic_image

    return synthetic_image(SyntheticSpec(128, 128, "mix", seed=7))


@pytest.fixture(scope="session")
def encoded_medium(medium_image):
    """One real encode shared by the perf/integration tests."""
    from repro.codec import CodecParams, encode_image

    return encode_image(
        medium_image, CodecParams(levels=3, base_step=1 / 64, cb_size=32)
    )


@pytest.fixture(scope="session")
def process_backend():
    """One shared 2-worker process pool for the whole test session.

    Forking a pool per test would dominate runtime; the backend is
    stateless between calls, so sharing it is safe.
    """
    from repro.core.backend import get_backend

    bk = get_backend("processes", 2)
    yield bk
    bk.close()


def seeded_image(seed: int, h: int, w: int, kind: str = "noise") -> np.ndarray:
    """Deterministic test image for the differential/property matrices.

    ``noise`` exercises the coder's worst case, ``ramp`` its best,
    ``constant`` the all-zero-bitplane edge, ``edges`` sharp
    discontinuities (splits sign coding from magnitude refinement).
    """
    rng_ = np.random.default_rng(seed)
    if kind == "constant":
        return np.full((h, w), float(int(rng_.integers(0, 256))))
    if kind == "ramp":
        r = np.arange(h, dtype=np.float64)[:, None]
        c = np.arange(w, dtype=np.float64)[None, :]
        return np.floor((r * 255 / max(h - 1, 1) + c * 255 / max(w - 1, 1)) / 2)
    if kind == "edges":
        img = np.full((h, w), 32.0)
        img[h // 2:, :] = 224.0
        if w > 2:
            img[:, w // 3] = 0.0
        return img
    return rng_.integers(0, 256, size=(h, w)).astype(np.float64)


def encode_bytes(image, params, *, backend=None, n_workers=1,
                 supervise=None) -> bytes:
    """Encode and return just the codestream bytes."""
    from repro.codec import encode_image

    return encode_image(
        image, params, n_workers=n_workers, backend=backend,
        supervise=supervise,
    ).data

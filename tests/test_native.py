"""The native build helper: cache, reuse, concurrent first loads, errors.

Each test loads a copy of ``mq.c`` from its own temporary directory, so
the cache beside it, ``__pycache__/``, starts empty.
"""

from __future__ import annotations

import ctypes
import re
import shutil
import threading
from pathlib import Path

import pytest

from repro import native

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro" / "ebcot" / "mq.c"


@pytest.fixture
def source(tmp_path):
    return Path(shutil.copy(SOURCE, tmp_path / "mq.c"))


@pytest.fixture
def logging_gcc(tmp_path):
    """A compiler wrapper that logs each invocation's arguments, then runs gcc."""
    gcc = shutil.which("gcc")
    log = tmp_path / "gcc.log"
    script = tmp_path / "gcc-wrapper"
    script.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexec "{gcc}" "$@"\n')
    script.chmod(0o755)
    return script, log


def _compiles(log: Path) -> int:
    return sum("-shared" in line for line in log.read_text().splitlines())


def test_fresh_cache_builds_then_reuses(source, logging_gcc):
    gcc, log = logging_gcc
    lib = native.load(source, compiler=str(gcc))
    assert isinstance(lib, ctypes.CDLL) and lib.mq_encode
    assert _compiles(log) == 1
    cached = list((source.parent / "__pycache__").iterdir())
    assert len(cached) == 1 and cached[0].name.startswith("mq.") and cached[0].suffix == ".so"
    native.load(source, compiler=str(gcc))
    assert _compiles(log) == 1


def test_concurrent_first_loads(source, logging_gcc):
    gcc, _ = logging_gcc
    errors = []

    def load():
        try:
            native.load(source, compiler=str(gcc))
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=load) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads) and not errors
    # One library, no temporary files.
    assert len(list((source.parent / "__pycache__").iterdir())) == 1


def test_missing_compiler_is_named(source, tmp_path):
    with pytest.raises(native.NativeBuildError, match="gcc"):
        native.load(source, compiler=str(tmp_path / "no-such-gcc"))


def test_unwritable_cache_is_named(source):
    # A file where the cache directory belongs cannot be written into,
    # whoever runs the test.
    cache = source.parent / "__pycache__"
    cache.write_text("")
    with pytest.raises(native.NativeBuildError, match=f"cannot write .* into {re.escape(str(cache))}"):
        native.load(source)


def test_compile_error_is_reported_and_cleaned_up(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int f(void) { return }\n")
    with pytest.raises(native.NativeBuildError, match="could not build"):
        native.load(bad)
    assert list((tmp_path / "__pycache__").iterdir()) == []

"""Build and load the package's C sources.

:func:`load` compiles one C file into a shared library with gcc and
loads it with :mod:`ctypes`.  The library is cached next to the source,
in the package's ``__pycache__/``, under a name keyed by a hash of the
source, the compiler flags and ``gcc --version``: a changed source or
compiler builds a new library, anything else reuses the cached one and
pays only ``gcc --version`` and the ``dlopen``.  The compiler writes a
temporary file that is then renamed into place, so processes that load
the same source at once never see a partial library.

There is no fallback: without a working compiler, or without a writable
``__pycache__/`` when the library is not built yet, :func:`load` raises
:class:`NativeBuildError`, which names what is missing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

__all__ = ["FLAGS", "NativeBuildError", "load"]

#: Every library is built with these flags.  ``-ffp-contract=off`` keeps
#: gcc from fusing floating-point multiply-adds, which would change bytes.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


class NativeBuildError(RuntimeError):
    """The C compiler is missing, fails to build a source, or the
    library cannot be written."""


def _compiler_version(compiler: str) -> bytes:
    try:
        proc = subprocess.run([compiler, "--version"], capture_output=True, check=False)
    except OSError as exc:
        raise NativeBuildError(
            f"repro needs the C compiler gcc to build its native code; "
            f"could not run {compiler!r}: {exc}"
        ) from exc
    if proc.returncode != 0:
        raise NativeBuildError(
            f"repro needs the C compiler gcc; {compiler!r} --version failed: "
            f"{proc.stderr.decode(errors='replace').strip()}"
        )
    return proc.stdout


def _library_path(source: Path, compiler: str) -> Path:
    """Where :func:`load` caches the library built from ``source``."""
    key = hashlib.sha256()
    for part in (source.read_bytes(), " ".join(FLAGS).encode(), _compiler_version(compiler)):
        key.update(part)
        key.update(b"\0")
    return source.parent / "__pycache__" / f"{source.stem}.{key.hexdigest()[:16]}.so"


def load(source: Path, compiler: str = "gcc") -> ctypes.CDLL:
    """The library built from C file ``source``, compiled on first use."""
    source = Path(source)
    lib = _library_path(source, compiler)
    if not lib.exists():
        try:
            lib.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f"{lib.stem}.", suffix=".tmp", dir=lib.parent)
        except OSError as exc:
            raise NativeBuildError(
                f"cannot write the library built from {source.name} into {lib.parent}: {exc}; "
                f"import repro once where that directory is writable to build it"
            ) from exc
        os.close(fd)
        try:
            proc = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(source)], capture_output=True, check=False
            )
            if proc.returncode != 0:
                raise NativeBuildError(
                    f"gcc ({compiler!r}) could not build {source}:\n"
                    f"{proc.stderr.decode(errors='replace').strip()}"
                )
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(lib))

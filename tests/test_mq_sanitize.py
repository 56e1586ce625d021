"""The C MQ coder under the address and undefined-behaviour sanitizers.

``tests/native/mq_driver.c`` is linked with ``src/repro/ebcot/mq.c``
under ``gcc -fsanitize=address,undefined`` and replays, for every block
of the golden tier-1 corpus (``tests/test_t1_golden.py``), the coder
calls tier-1 makes: the encoder's symbol arrays, which must reproduce
the block's segment, and the decoder's pass and context arrays, over the
segment truncated at every pass boundary and over ``repro.faults``
mutations of it.  The decoder is reachable over the network
(``repro serve``), so every read it makes must stay in bounds whatever
the bytes.
"""

from __future__ import annotations

import os
import struct
import subprocess
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import faults
from repro.ebcot import mq, t1
from tests.test_t1_golden import N_BLOCKS, corpus_block

ROOT = Path(__file__).resolve().parents[1]
DRIVER = ROOT / "tests" / "native" / "mq_driver.c"
SOURCE = ROOT / "src" / "repro" / "ebcot" / "mq.c"
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g", "-O1")


def recorded_calls(coeffs, orient):
    """``(block, calls)``: the block's encoding and every coder call its
    encode and full decode make, as ``(kind, int32 array)`` pairs with
    the driver's kinds (0 pass, 1 context list, 2 encoder symbols)."""
    calls = []

    class Encoder(mq.MQEncoder):
        def encode_symbols(self, symbols):
            calls.append((2, np.array(symbols, dtype=np.int32)))
            super().encode_symbols(symbols)

    class Decoder(mq.MQDecoder):
        def decode_pass(self, p, ctx_run, ctx_uniform):
            calls.append((0, p.copy()))
            return super().decode_pass(p, ctx_run, ctx_uniform)

        def decode_many(self, contexts):
            calls.append((1, np.array(contexts, dtype=np.int32)))
            return super().decode_many(contexts)

    with mock.patch.object(t1, "MQEncoder", Encoder), mock.patch.object(t1, "MQDecoder", Decoder):
        block = t1.encode_codeblock(coeffs, orient)
        t1.decode_codeblock(block.data, block.shape, orient, block.n_planes)
    return block, calls


def segments(data: bytes, rates):
    """The full segment first, then its truncations and mutations."""
    out = [data] + [data[:r] for r in sorted(set(rates))] + [b"\xff" * len(data)]
    for mode in faults.FAULT_MODES:
        for seed in (1, 2):
            out.append(faults.inject(data, mode=mode, rate=0.05, seed=seed))
    return out


def write_corpus(path: Path) -> int:
    """Writes the driver's corpus file; returns the number of segments."""
    n_segments = 0
    with path.open("wb") as f:
        for i in range(N_BLOCKS):
            block, calls = recorded_calls(*corpus_block(i))
            if block.n_planes == 0:
                continue  # codes nothing
            f.write(struct.pack("<I", len(calls)))
            for kind, words in calls:
                f.write(struct.pack("<II", kind, len(words)))
                f.write(words.astype("<i4").tobytes())
            segs = segments(block.data, block.truncation_lengths())
            f.write(struct.pack("<I", len(segs)))
            for seg in segs:
                f.write(struct.pack("<I", len(seg)) + seg)
            n_segments += len(segs)
    return n_segments


@pytest.mark.slow
def test_golden_corpus_and_mutations_under_sanitizers(tmp_path):
    exe = tmp_path / "mq_driver"
    subprocess.run(["gcc", *SANITIZE, str(DRIVER), str(SOURCE), "-o", str(exe)], check=True)
    corpus = tmp_path / "corpus.bin"
    n_segments = write_corpus(corpus)
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0", UBSAN_OPTIONS="print_stacktrace=1")
    proc = subprocess.run([str(exe), str(corpus)], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    blocks, segs, decisions = (int(x) for x in proc.stdout.split()[1::2])
    assert segs == n_segments and blocks > 0.8 * N_BLOCKS and decisions > 0

"""The decoder pipeline: codestream -> image.

Mirrors :mod:`repro.codec.encoder` stage by stage: parse the container,
read packets per tile in LRCP order, tier-1 decode every included
code-block (honoring truncation points), dequantize, inverse transform,
undo the level shift and reassemble tiles.

``max_layer`` allows decoding only a prefix of the quality layers -- the
scalable-bitstream property the paper highlights ("transmitting each bit
layer corresponds to a certain distortion level").

Two decoding disciplines share this pipeline:

- **strict** (default): any malformed byte raises
  :class:`~repro.tier2.codestream.CodestreamError` -- no numpy/struct
  internals ever escape;
- **resilient** (``resilient=True``): never raises on damaged input.
  The container scanner resynchronizes on markers, damaged packets are
  dropped (earlier-layer contributions of their code-blocks are kept),
  lost code-blocks are zero-filled, a tier-1 failure conceals only that
  block, and the caller receives ``(image, DecodeReport)`` describing
  exactly what was lost.  This exploits the same independence the paper
  uses for parallelism: a code-block (and a packet) is a self-contained
  decoding task, so damage is naturally confined to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs.tracer import StageSwitcher, stage_span
from ..quant.deadzone import DeadzoneQuantizer
from ..tier2.codestream import CodestreamError, read_codestream, scan_codestream
from ..tier2.framing import collect_frames, parse_frame_at
from ..tier2.packet import PacketReader
from ..wavelet.dwt2d import Subbands, idwt2d
from .blocks import band_layouts, resolution_bands
from .params import CodecParams
from .resilience import DecodeReport, TileStats

__all__ = ["decode_image"]

#: Resilient-mode cap on bit planes a (possibly corrupt) band table may
#: demand from the tier-1 decoder; bounds work on damaged streams.
_MAX_PLANES = 48


def decode_image(
    data: bytes,
    max_layer: Optional[int] = None,
    n_workers: int = 1,
    resilient: bool = False,
    tracer=None,
    backend=None,
    supervise=None,
    metrics=None,
) -> Union[np.ndarray, Tuple[np.ndarray, DecodeReport]]:
    """Decode a codestream produced by :func:`repro.codec.encode_image`.

    Parameters
    ----------
    data:
        The codestream bytes.
    max_layer:
        Decode only quality layers ``0..max_layer`` (None = all).
    n_workers:
        Tier-1 decode the independent code-blocks as ``n_workers``
        shares dealt longest-predicted-cost first (the decoder-side twin of the paper's parallel encoding stage; see the
        ``ext_decoder`` experiment).  Results are identical for any
        worker count.
    resilient:
        Decode damaged streams instead of raising: resynchronize on the
        v2 resync framing where present, drop damaged packets, zero-fill
        lost code-blocks, and return ``(image, DecodeReport)``.  The
        image always has the full size the (recovered) header promises.
    tracer:
        Optional :class:`repro.obs.Tracer`; records decode-side stage
        spans (mirroring the encoder's Fig.-3 names) and per-worker
        tier-1 task records.  ``None`` (default) allocates no spans.
    backend:
        Execution backend for tier-1 decoding --
        ``serial``/``processes`` or a live
        :class:`~repro.core.backend.ExecutionBackend`.  ``None``
        (default) runs the shares on ``serial``; the inverse DWT runs
        in the calling process on every backend.  The decoded image is
        bit-identical for every backend and worker count.
    supervise:
        ``True`` or a :class:`~repro.core.supervise.SupervisionPolicy`:
        run the backend's parallel stages fault-tolerantly (retries,
        pool rebuilds, the ``processes -> serial`` degradation
        ladder).  In resilient mode the resulting
        :class:`~repro.core.supervise.SupervisionReport` is attached to
        the returned ``DecodeReport.supervision``.  ``metrics`` (a
        :class:`~repro.obs.MetricsRegistry`) receives live
        ``repro_supervisor_*`` counters.

    Returns
    -------
    numpy.ndarray, or (numpy.ndarray, DecodeReport) when ``resilient``
        The reconstructed image, dtype ``uint8``/``uint16`` by bit depth.
    """
    report: Optional[DecodeReport] = None
    from ..core.supervise import resolve_policy

    policy = resolve_policy(supervise)
    owned_bk = sup = None
    owned = False
    if backend is not None or policy is not None:
        # Resolve a backend *name* (``None`` = serial: supervision needs
        # a backend to supervise) once up front so every tile-part (and
        # the inverse DWT) shares one worker pool instead of spawning a
        # fresh pool per tile.
        from ..core.backend import resolve_backend

        backend, owned = resolve_backend(backend, n_workers)
        if owned:
            owned_bk = backend
    if policy is not None:
        from ..core.supervise import supervised

        backend = sup = supervised(
            backend, policy, metrics=metrics, owns_inner=owned
        )
        if owned:
            owned_bk = sup  # closing the wrapper closes the inner pool
    try:
        out = _decode_image_impl(
            data, max_layer, n_workers, resilient, tracer, backend, report
        )
        if sup is not None and isinstance(out, tuple):
            out[1].supervision = sup.report
        return out
    finally:
        if owned_bk is not None:
            owned_bk.close()


def _decode_image_impl(
    data: bytes,
    max_layer: Optional[int],
    n_workers: int,
    resilient: bool,
    tracer,
    backend,
    report: Optional[DecodeReport],
) -> Union[np.ndarray, Tuple[np.ndarray, DecodeReport]]:
    """Body of :func:`decode_image`; ``backend`` is resolved (or None)."""
    with stage_span(tracer, "bitstream I/O"):
        if resilient:
            stream, scan = scan_codestream(data)
            report = DecodeReport(
                framed=stream.params.resilient,
                header_recovered=scan.header_recovered,
                container_bytes_skipped=scan.bytes_skipped,
                notes=list(scan.notes),
            )
        else:
            stream = read_codestream(data)
    with stage_span(tracer, "pipeline setup"):
        p = stream.params
        cparams = CodecParams(
            levels=min(p.levels, 32),
            filter_name=p.filter_name,
            cb_size=p.cb_size,
            base_step=p.base_step,
            tile_size=p.tile_size,
            bit_depth=p.bit_depth,
            resilience=p.resilient,
        )
        n_layers = p.n_layers if max_layer is None else min(p.n_layers, max_layer + 1)
        shift = 1 << (p.bit_depth - 1)
        planes = [
            np.zeros((p.height, p.width), dtype=np.float64)
            for _ in range(p.n_components)
        ]

    tile_size = p.tile_size if p.tile_size > 0 else max(p.height, p.width)
    part_idx = 0
    for y0 in range(0, p.height, tile_size):
        for x0 in range(0, p.width, tile_size):
            tile_h = min(tile_size, p.height - y0)
            tile_w = min(tile_size, p.width - x0)
            for comp in range(p.n_components):
                payload = (
                    stream.tiles[part_idx].packets
                    if part_idx < len(stream.tiles)
                    else b""
                )
                stats = report.tile(part_idx) if report is not None else None
                try:
                    tile = _decode_tile(
                        payload,
                        tile_h,
                        tile_w,
                        cparams,
                        p.n_layers,
                        n_layers,
                        roi_shift=p.roi_shift,
                        n_workers=n_workers,
                        framed=p.resilient,
                        stats=stats,
                        tracer=tracer,
                        backend=backend,
                    )
                except Exception as exc:
                    if report is None:
                        raise
                    # Tile-part unusable (lost header frame, vanished
                    # payload, unframed damage before the band table):
                    # zero-fill the whole tile.
                    stats.concealed = True
                    stats.layers_achieved = 0
                    report.notes.append(
                        f"tile-part {part_idx} concealed "
                        f"({type(exc).__name__}: {exc})"
                    )
                    tile = np.zeros((tile_h, tile_w), dtype=np.float64)
                planes[comp][y0 : y0 + tile_h, x0 : x0 + tile_w] = tile
                part_idx += 1

    with stage_span(tracer, "inter-component transform"):
        if p.n_components == 3:
            from .color import ict_inverse, rct_inverse

            if p.filter_name == "5/3":
                out = rct_inverse(
                    np.rint(planes[0]).astype(np.int64),
                    np.rint(planes[1]).astype(np.int64),
                    np.rint(planes[2]).astype(np.int64),
                ).astype(np.float64)
            else:
                out = ict_inverse(planes[0], planes[1], planes[2])
        else:
            out = planes[0]

    with stage_span(tracer, "image I/O"):
        out += shift
        peak = (1 << p.bit_depth) - 1
        out = np.clip(np.rint(out), 0, peak)
        img = out.astype(np.uint8 if p.bit_depth <= 8 else np.uint16)
    if report is not None:
        return img, report
    return img


def _tile_frames(
    payload: bytes, stats: Optional[TileStats]
) -> Dict[int, bytes]:
    """Frames of a v2 tile payload, keyed by sequence number.

    Strict mode (``stats is None``) parses back-to-back frames and lets
    any damage raise; resilient mode scans with resync and keeps the
    first valid frame per sequence number.
    """
    frames: Dict[int, bytes] = {}
    if stats is None:
        pos = 0
        while pos < len(payload):
            seq, body, pos = parse_frame_at(payload, pos)
            if seq in frames:
                raise CodestreamError(f"duplicate packet frame {seq}")
            frames[seq] = body
    else:
        recovered, skipped = collect_frames(payload)
        stats.bytes_skipped += skipped
        for seq, body in recovered:
            frames.setdefault(seq, body)
    return frames


def _decode_tile(
    payload: bytes,
    tile_h: int,
    tile_w: int,
    params: CodecParams,
    n_layers_total: int,
    n_layers_decode: int,
    roi_shift: int = 0,
    n_workers: int = 1,
    framed: bool = False,
    stats: Optional[TileStats] = None,
    tracer=None,
    backend=None,
) -> np.ndarray:
    """Decode one tile's packet payload into pixel values (pre-shift).

    ``stats`` enables resilient behaviour (conceal and account instead
    of raising); without it every inconsistency raises
    :class:`CodestreamError`.
    """
    resilient = stats is not None

    stages = StageSwitcher(tracer)
    try:
        return _decode_tile_staged(
            payload, tile_h, tile_w, params, n_layers_total, n_layers_decode,
            roi_shift, n_workers, framed, stats, tracer, stages, backend,
        )
    finally:
        stages.finish()


def _decode_tile_staged(
    payload: bytes,
    tile_h: int,
    tile_w: int,
    params: CodecParams,
    n_layers_total: int,
    n_layers_decode: int,
    roi_shift: int,
    n_workers: int,
    framed: bool,
    stats: Optional[TileStats],
    tracer,
    stages: StageSwitcher,
    backend=None,
) -> np.ndarray:
    """Body of :func:`_decode_tile`; ``stages`` marks stage boundaries."""
    resilient = stats is not None
    stages.switch("tier-2 coding")

    # -- tile header: decomposition depth + per-band plane table -----------
    if framed:
        frames = _tile_frames(payload, stats)
        header = frames.get(0)
        if header is None:
            raise CodestreamError("tile header frame missing")
    else:
        frames = None
        header = payload
    if len(header) < 1:
        raise CodestreamError("empty tile payload")
    eff_levels = header[0]
    if eff_levels > 32:
        raise CodestreamError(f"implausible decomposition depth {eff_levels}")
    hpos = 1
    res_bands = resolution_bands(eff_levels)
    n_band_entries = sum(len(bands) for bands in res_bands)
    if hpos + n_band_entries > len(header):
        raise CodestreamError("truncated band table")
    layouts = band_layouts(tile_h, tile_w, eff_levels, params.cb_size)

    band_max: Dict[Tuple[int, str], int] = {}
    for bands in res_bands:
        for key in bands:
            band_max[key] = header[hpos]
            hpos += 1

    readers: List[Optional[PacketReader]] = []
    res_keys: List[List[Tuple[int, str]]] = []
    for bands in res_bands:
        keys = [k for k in bands if not layouts[k].is_empty]
        res_keys.append(keys)
        readers.append(PacketReader([layouts[k].grid for k in keys]) if keys else None)

    if stats is not None:
        stats.blocks_total = sum(
            layouts[k].grid[0] * layouts[k].grid[1] for keys in res_keys for k in keys
        )

    # -- packet walk: LRCP emission order, dropping what cannot be read ----
    # Packet headers are stateful per resolution (tag trees, Lblock), so
    # once a packet of a resolution is lost every later packet of that
    # resolution is undecodable ("poisoned") -- but its earlier-layer
    # contributions survive, and other resolutions are untouched.
    emission = [
        (layer, r)
        for layer in range(n_layers_total)
        for r in range(len(readers))
        if readers[r] is not None
    ]
    if stats is not None:
        stats.packets_expected = len(emission)
    poisoned = [False] * len(readers)
    layer_ok = [True] * n_layers_total
    acc: Dict[Tuple[Tuple[int, str], int, int], List] = {}
    pos = hpos  # unframed cursor (frames carry their own boundaries)
    abandoned = False  # unframed resilient: damage kills the tile's tail

    for idx, (layer, r) in enumerate(emission):
        reader = readers[r]
        contribs = None
        if framed:
            body = frames.get(idx + 1)
            if body is None:
                if not resilient:
                    raise CodestreamError(f"packet frame {idx + 1} missing")
            elif not poisoned[r]:
                try:
                    contribs, _ = reader.read_packet(body, layer, strict=not resilient)
                except CodestreamError:
                    if not resilient:
                        raise
                    contribs = None
        else:
            if not abandoned:
                try:
                    contribs, consumed = reader.read_packet(
                        payload[pos:], layer, strict=not resilient
                    )
                    pos += consumed
                except CodestreamError:
                    if not resilient:
                        raise
                    if stats is not None:
                        stats.bytes_skipped += len(payload) - pos
                    abandoned = True
                    contribs = None
        if contribs is None:
            poisoned[r] = True
            layer_ok[layer] = False
            continue
        if stats is not None:
            stats.packets_decoded += 1
        if layer >= n_layers_decode:
            continue
        for b_idx, key in enumerate(res_keys[r]):
            gh, gw = layouts[key].grid
            for by in range(gh):
                for bx in range(gw):
                    c = contribs[b_idx][by][bx]
                    if not c.included:
                        continue
                    entry = acc.setdefault((key, by, bx), [0, bytearray()])
                    entry[0] += c.n_new_passes
                    entry[1] += c.data

    if stats is not None:
        achieved = 0
        for layer in range(min(n_layers_total, n_layers_decode)):
            if not layer_ok[layer]:
                break
            achieved += 1
        stats.layers_achieved = achieved
    if framed and not resilient and len(frames) > len(emission) + 1:
        raise CodestreamError("unexpected extra packet frames")

    quantizer = (
        DeadzoneQuantizer(params.base_step, params.filter_name)
        if params.filter_name == "9/7"
        else None
    )

    # -- tier-1 decode every included block (optionally on a worker pool --
    # code-block decoding is as independent as encoding) -------------------
    stages.switch("tier-1 coding")
    jobs = []
    job_keys = []
    for r_idx, keys in enumerate(res_keys):
        reader = readers[r_idx]
        if reader is None:
            continue
        for b_idx, key in enumerate(keys):
            layout = layouts[key]
            for binfo in layout.blocks():
                entry = acc.get((key, binfo.by, binfo.bx))
                if entry is None:
                    continue
                n_passes, blk_data = entry
                zp = max(0, int(reader.zero_planes[b_idx][binfo.by, binfo.bx]))
                n_planes = band_max[key] - zp
                if resilient:
                    # A corrupt band table must not demand unbounded
                    # tier-1 work; the MQ decoder itself already clamps
                    # to the bytes present (it pads 1-bits past the
                    # end), which bounds n_passes organically.
                    n_planes = max(0, min(n_planes, _MAX_PLANES))
                jobs.append(
                    (bytes(blk_data), binfo.shape, layout.orient, n_planes, n_passes)
                )
                job_keys.append((key, binfo.by, binfo.bx))

    from ..core.parallel import parallel_decode_blocks

    outs = parallel_decode_blocks(
        jobs,
        n_workers=n_workers,
        on_error="conceal" if resilient else "raise",
        stats=stats,
        tracer=tracer,
        backend=backend,
    )
    decoded = {k: o for k, o in zip(job_keys, outs) if o is not None}
    stages.switch("quantization")

    def band_array(key: Tuple[int, str]) -> np.ndarray:
        layout = layouts[key]
        if quantizer is None:
            band = np.zeros((layout.height, layout.width), dtype=np.int64)
        else:
            band = np.zeros((layout.height, layout.width), dtype=np.float64)
        r_idx = _resolution_of(key, eff_levels)
        reader = readers[r_idx]
        if reader is None:
            return band
        for binfo in layout.blocks():
            out = decoded.get((key, binfo.by, binfo.bx))
            if out is None:
                continue
            values, last_plane = out
            slot = (
                slice(binfo.y0, binfo.y0 + binfo.height),
                slice(binfo.x0, binfo.x0 + binfo.width),
            )
            if roi_shift:
                # Max-shift ROI: magnitudes >= 2**shift are ROI samples;
                # unscale them and reconstruct with the *unshifted*
                # uncertainty interval (their decoded planes sit shift
                # planes higher than background planes).
                from .roi import remove_max_shift

                is_roi = np.abs(values) >= (1 << roi_shift)
                unshifted = remove_max_shift(values, roi_shift)
                lp_roi = max(0, last_plane - roi_shift)
                if quantizer is None:
                    band[slot] = np.where(
                        is_roi,
                        _midpoint_int(unshifted, lp_roi),
                        _midpoint_int(values, last_plane),
                    )
                else:
                    band[slot] = np.where(
                        is_roi,
                        quantizer.dequantize_band(
                            unshifted, layout.level, layout.orient, lp_roi
                        ),
                        quantizer.dequantize_band(
                            values, layout.level, layout.orient, last_plane
                        ),
                    )
            elif quantizer is None:
                band[slot] = _midpoint_int(values, last_plane)
            else:
                band[slot] = quantizer.dequantize_band(
                    values, layout.level, layout.orient, last_plane
                )
        return band

    if eff_levels == 0:
        ll = band_array((0, "LL"))
        return ll.astype(np.float64)

    details = []
    for level in range(1, eff_levels + 1):
        details.append({o: band_array((level, o)) for o in ("HL", "LH", "HH")})
    ll = band_array((eff_levels, "LL"))
    sb = Subbands(
        ll=ll, details=details, shape=(tile_h, tile_w), filter_name=params.filter_name
    )
    stages.switch("intra-component transform")
    return np.asarray(idwt2d(sb), dtype=np.float64)


def _midpoint_int(values: np.ndarray, last_plane: int) -> np.ndarray:
    """Midpoint reconstruction for the reversible (integer) path."""
    if last_plane <= 0:
        return values
    mag = np.abs(values)
    rec = np.where(mag > 0, mag + (1 << (last_plane - 1)), 0)
    return np.sign(values) * rec


def _resolution_of(key: Tuple[int, str], eff_levels: int) -> int:
    """Resolution index of a subband key (inverse of resolution_bands)."""
    level, orient = key
    if orient == "LL":
        return 0
    return eff_levels - level + 1

"""The instrumented encoder pipeline.

``encode_image`` runs the full Fig. 1 pipeline -- wavelet transform,
quantization, tier-1 coding of independent code-blocks, PCRD rate
allocation, tier-2 packetization -- and returns the codestream together
with the per-stage instrumentation and per-block records that drive the
parallel-performance experiments.

Tiling support: with ``params.tile_size > 0`` every tile is transformed
and coded independently (the JPEG-style parallelization of Sec. 3.1);
rate allocation still optimizes globally across all tiles so quality
differences in Fig. 5 reflect the transform, not budget splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ebcot.t1 import EncodedBlock, encode_codeblock
from ..quant.deadzone import DeadzoneQuantizer
from ..rate.pcrd import BlockRateInfo, allocate_layers
from ..tier2.codestream import CodestreamParams, TilePart, write_codestream
from ..tier2.framing import write_frame
from ..tier2.packet import BandState, BlockContribution, PacketWriter
from ..wavelet.dwt2d import dwt2d, synthesis_energy_gain
from .blocks import BlockInfo, band_layouts, resolution_bands
from .instrument import EncoderReport
from .params import CodecParams

__all__ = ["BlockRecord", "EncodeResult", "encode_image"]


@dataclass
class BlockRecord:
    """Everything the experiments need to know about one coded block."""

    tile_index: int
    info: BlockInfo
    encoded: EncodedBlock
    weighted_dists: Tuple[float, ...]  # cumulative, image-MSE units
    component: int = 0

    @property
    def decisions(self) -> int:
        return self.encoded.total_decisions()

    @property
    def n_samples(self) -> int:
        return self.info.n_samples


@dataclass
class EncodeResult:
    """Output of :func:`encode_image`."""

    data: bytes
    report: EncoderReport
    blocks: List[BlockRecord]
    params: CodecParams
    image_shape: Tuple[int, int]
    layer_passes: List[List[int]]  # alloc[layer][block index]
    #: What the supervisor had to do (None when supervision was off).
    supervision: Optional["SupervisionReport"] = None

    @property
    def n_bytes(self) -> int:
        return len(self.data)

    def rate_bpp(self) -> float:
        h, w = self.image_shape
        return 8.0 * len(self.data) / (h * w)


def _tile_views(image: np.ndarray, tile_size: int) -> List[Tuple[int, np.ndarray]]:
    """(index, view) pairs of the tile grid in raster order."""
    if tile_size <= 0:
        return [(0, image)]
    h, w = image.shape
    tiles: List[Tuple[int, np.ndarray]] = []
    idx = 0
    for y0 in range(0, h, tile_size):
        for x0 in range(0, w, tile_size):
            tiles.append((idx, image[y0 : y0 + tile_size, x0 : x0 + tile_size]))
            idx += 1
    return tiles


def _distortion_weight(params: CodecParams, quantizer: Optional[DeadzoneQuantizer], level: int, orient: str) -> float:
    """Image-MSE weight of one squared quantized-unit of band distortion."""
    gain = synthesis_energy_gain(params.filter_name, level, orient)
    if quantizer is None:  # reversible path: step 1
        return gain
    step = quantizer.step_for(level, orient)
    return step * step * gain


def encode_image(
    image: np.ndarray,
    params: CodecParams,
    roi_mask: Optional[np.ndarray] = None,
    tracer=None,
    n_workers: int = 1,
    backend=None,
    supervise=None,
    metrics=None,
) -> EncodeResult:
    """Encode a grayscale ``(H, W)`` or color ``(H, W, 3)`` image.

    ``roi_mask`` (optional, ``(H, W)`` boolean) marks a region of
    interest coded with the max-shift method: ROI coefficients are
    scaled above every background coefficient, so they decode first --
    and completely -- at any truncation point (T.800 Annex H; the "ROI
    Scaling" stage of the paper's Fig. 1 pipeline).

    Color input runs through the inter-component transform (RCT for the
    reversible 5/3 path -- bit-exact round trips -- or ICT for 9/7) and
    each component is coded like a grayscale plane; rate allocation
    optimizes across all components jointly, and ``rate_bpp`` counts
    total bits per image pixel.  See the module docstring for the stage
    pipeline.

    ``tracer`` (optional, a :class:`repro.obs.Tracer`) records one span
    per stage with the work counters attached; ``None`` (the default)
    allocates no spans.

    ``n_workers``/``backend`` run tier-1 code-block coding on an
    execution backend (``serial``/``processes``, or a live
    :class:`~repro.core.backend.ExecutionBackend`; ``None`` means
    ``serial``); the DWT runs in the calling process on every backend.
    The codestream is byte-identical for every backend and worker
    count: the deal only re-orders independent work (enforced by the
    differential test harness).

    ``supervise`` (``True`` or a
    :class:`~repro.core.supervise.SupervisionPolicy`; default
    ``params.supervision``) runs the backend under supervision: worker
    death, hangs past the phase deadline, and transient kernel faults
    are retried -- re-running only the unfinished work -- and exhausted
    retries degrade ``processes -> serial`` instead of failing.  The
    :class:`~repro.core.supervise.SupervisionReport` lands on
    ``EncodeResult.supervision``; ``metrics`` (a
    :class:`~repro.obs.MetricsRegistry`) additionally receives
    ``repro_supervisor_*`` counters as events happen.
    """
    report = EncoderReport(tracer=tracer)
    from ..core.supervise import resolve_policy

    policy = resolve_policy(supervise, params.supervision)
    bk = owned_bk = sup = None
    if backend is not None or n_workers > 1 or policy is not None:
        from ..core.backend import resolve_backend
        from ..core.supervise import SupervisedBackend

        bk, owned = resolve_backend(backend, n_workers)
        if owned:
            owned_bk = bk
        if policy is not None:
            bk = sup = SupervisedBackend(
                bk, policy, metrics=metrics, owns_inner=owned
            )
            owned_bk = sup
    try:
        result = _encode_image_impl(image, params, roi_mask, tracer, report, bk)
        if sup is not None:
            result.supervision = sup.report
        return result
    finally:
        if owned_bk is not None:
            owned_bk.close()


def _encode_image_impl(
    image: np.ndarray,
    params: CodecParams,
    roi_mask: Optional[np.ndarray],
    tracer,
    report: EncoderReport,
    bk,
) -> EncodeResult:
    """Body of :func:`encode_image`; ``bk`` is a resolved backend or None."""

    with report.timed("image I/O") as st:
        img = np.asarray(image)
        if img.ndim == 3 and img.shape[2] == 3:
            n_components = 3
        elif img.ndim == 2:
            n_components = 1
        else:
            raise ValueError(
                "encoder expects a 2-D grayscale or (H, W, 3) color image"
            )
        if img.size == 0:
            raise ValueError("cannot encode an empty image")
        height, width = img.shape[:2]
        st.add_work(samples=img.size, bytes_read=img.size * img.dtype.itemsize)

    with report.timed("pipeline setup") as st:
        shift = 1 << (params.bit_depth - 1)
        quantizer = (
            DeadzoneQuantizer(params.base_step, params.filter_name)
            if params.filter_name == "9/7"
            else None
        )
        st.add_work(
            tiles=CodestreamParams(
                height=height,
                width=width,
                bit_depth=params.bit_depth,
                levels=params.levels,
                filter_name=params.filter_name,
                cb_size=params.cb_size,
                n_layers=params.n_layers,
                tile_size=params.tile_size,
                base_step=params.base_step,
            ).n_tiles
        )

    with report.timed("inter-component transform") as st:
        # Grayscale: the stage exists in the pipeline (and in Fig. 3's
        # legend) but does no arithmetic.  Color: RCT (reversible, 5/3
        # path) or ICT (9/7 path) on level-shifted samples; chroma
        # components come out zero-centered already.
        if n_components == 1:
            if params.filter_name == "5/3":
                planes = [img.astype(np.int64) - shift]
            else:
                planes = [img.astype(np.float64) - shift]
            st.add_work(samples=0)
        else:
            from .color import ict_forward, rct_forward

            if params.filter_name == "5/3":
                shifted_rgb = img.astype(np.int64) - shift
                planes = list(rct_forward(shifted_rgb))
            else:
                shifted_rgb = img.astype(np.float64) - shift
                planes = [
                    np.asarray(c) for c in ict_forward(shifted_rgb)
                ]
            st.add_work(samples=img.size)

    blocks: List[BlockRecord] = []
    tile_band_data: List[Dict[Tuple[int, str], List[Tuple[BlockInfo, EncodedBlock, int]]]] = []
    tile_levels: List[int] = []
    tile_shapes: List[Tuple[int, int]] = []
    part_order: List[Tuple[int, int]] = []  # (tile_index, component)

    for t_idx, _ in _tile_views(planes[0], params.tile_size):
        for comp in range(n_components):
            part_order.append((t_idx, comp))

    if roi_mask is not None:
        roi_mask = np.asarray(roi_mask, dtype=bool)
        if roi_mask.shape != (height, width):
            raise ValueError(
                f"roi_mask shape {roi_mask.shape} != image shape {(height, width)}"
            )

    # Phase A: transform + quantize every tile-part (kept so the ROI
    # max-shift can be computed globally before tier-1 coding).
    part_qbands: List[Dict[Tuple[int, str], np.ndarray]] = []
    part_tiles: List[Tuple[int, int]] = []
    for tile_index, comp in part_order:
        tile = _tile_views(planes[comp], params.tile_size)[tile_index][1]
        with report.timed("intra-component transform") as st:
            eff_levels = params.effective_levels(*tile.shape)
            subbands = dwt2d(tile, eff_levels, params.filter_name)
            st.add_work(
                samples=tile.size,
                dwt_geometry=[(tile.shape[0], tile.shape[1], eff_levels)],
            )

        with report.timed("quantization") as st:
            if quantizer is not None:
                qbands = quantizer.quantize_subbands(subbands)
            else:
                qbands = {
                    (lev, o): np.asarray(b, dtype=np.int32)
                    for lev, o, b in subbands.iter_bands()
                }
            st.add_work(samples=tile.size)
        part_qbands.append(qbands)
        part_tiles.append(tile.shape)
        tile_levels.append(eff_levels)
        tile_shapes.append(tile.shape)

    roi_shift = 0
    if roi_mask is not None:
        with report.timed("quantization") as st:
            from .roi import apply_max_shift, band_roi_mask, roi_shift_for

            part_masks: List[Dict[Tuple[int, str], np.ndarray]] = []
            mask_tiles = _tile_views(roi_mask, params.tile_size)
            for part_idx, (tile_index, comp) in enumerate(part_order):
                tile_mask = mask_tiles[tile_index][1]
                eff_levels = tile_levels[part_idx]
                masks: Dict[Tuple[int, str], np.ndarray] = {}
                for key, band in part_qbands[part_idx].items():
                    lev, _orient = key
                    masks[key] = band_roi_mask(tile_mask, lev, band.shape)
                part_masks.append(masks)
            merged_bands: Dict[Tuple[int, str], np.ndarray] = {}
            merged_masks: Dict[Tuple[int, str], np.ndarray] = {}
            for idx, qb in enumerate(part_qbands):
                for key, band in qb.items():
                    merged_bands[(idx,) + key] = band  # type: ignore[index]
                    merged_masks[(idx,) + key] = part_masks[idx][key]  # type: ignore[index]
            roi_shift = roi_shift_for(merged_bands, merged_masks)
            for idx in range(len(part_qbands)):
                part_qbands[idx] = apply_max_shift(
                    part_qbands[idx], part_masks[idx], roi_shift
                )
            st.add_work(roi_shift=roi_shift)

    # Phase B: tier-1 code every part from its (possibly ROI-shifted)
    # quantized bands.
    for part_idx, (tile_index, comp) in enumerate(part_order):
        qbands = part_qbands[part_idx]
        eff_levels = tile_levels[part_idx]
        tile_shape = part_tiles[part_idx]
        with report.timed("tier-1 coding") as st:
            layouts = band_layouts(tile_shape[0], tile_shape[1], eff_levels, params.cb_size)
            band_data: Dict[Tuple[int, str], List[Tuple[BlockInfo, EncodedBlock, int]]] = {}
            decisions = 0
            # Collect this part's code-blocks in scan order, tier-1 code
            # them (on the worker pool when a backend is active -- block
            # order, and therefore the codestream, is backend-invariant),
            # then attach the results in the same order.
            jobs: List[Tuple[np.ndarray, str]] = []
            job_meta: List[Tuple[Tuple[int, str], BlockInfo, float]] = []
            for key, layout in layouts.items():
                if layout.is_empty:
                    band_data[key] = []
                    continue
                weight = _distortion_weight(params, quantizer, layout.level, layout.orient)
                qb = qbands[key]
                band_data[key] = []
                for binfo in layout.blocks():
                    coeffs = qb[
                        binfo.y0 : binfo.y0 + binfo.height,
                        binfo.x0 : binfo.x0 + binfo.width,
                    ]
                    jobs.append((coeffs, layout.orient))
                    job_meta.append((key, binfo, weight))
            if bk is None:
                encoded = [encode_codeblock(c, o) for c, o in jobs]
            else:
                from ..core.parallel import parallel_encode_blocks

                encoded = parallel_encode_blocks(jobs, tracer=tracer, backend=bk)
            for (key, binfo, weight), eb in zip(job_meta, encoded):
                cum = 0.0
                wd: List[float] = []
                for p in eb.passes:
                    cum += p.dist_reduction * weight
                    wd.append(cum)
                gid = len(blocks)
                blocks.append(
                    BlockRecord(
                        tile_index=tile_index,
                        info=binfo,
                        encoded=eb,
                        weighted_dists=tuple(wd),
                        component=comp,
                    )
                )
                band_data[key].append((binfo, eb, gid))
                decisions += eb.total_decisions()
            st.add_work(decisions=decisions, blocks=len(blocks))
        tile_band_data.append(band_data)

    infos = [
        BlockRateInfo(
            block_id=i,
            rates=[p.rate_bytes for p in rec.encoded.passes],
            dists=list(rec.weighted_dists),
        )
        for i, rec in enumerate(blocks)
    ]

    # Rate allocation and tier-2 assembly interact: packet headers and
    # band tables consume budget the PCRD pass cannot see.  Allocate,
    # assemble, measure the overhead, and re-allocate with the budget
    # shrunk by the measured overhead (converges in 2-3 rounds because
    # header size is nearly allocation-independent).
    overheads: Optional[List[float]] = None
    for _ in range(3):
        with report.timed("R/D allocation") as st:
            if params.target_bpp is None:
                layer_passes = [[info.n_passes for info in infos]]
            else:
                budgets = [bpp * height * width / 8.0 for bpp in params.target_bpp]
                if overheads is not None:
                    budgets = [
                        max(b - o, b * 0.05) for b, o in zip(budgets, overheads)
                    ]
                layer_passes = allocate_layers(infos, budgets)
            st.add_work(blocks=len(infos), layers=len(layer_passes))

        with report.timed("tier-2 coding") as st:
            tile_parts = []
            t2_bytes = 0
            for part_idx in range(len(part_order)):
                payload = _assemble_tile(
                    tile_band_data[part_idx],
                    tile_levels[part_idx],
                    params,
                    blocks,
                    layer_passes,
                )
                tile_parts.append(TilePart(index=part_idx, packets=payload))
                t2_bytes += len(payload)
            st.add_work(bytes_written=t2_bytes)

        if params.target_bpp is None:
            break
        # Measure cumulative header overhead per layer: payload bytes so
        # far minus the code-block body bytes actually included.
        body = [0.0] * len(layer_passes)
        for layer in range(len(layer_passes)):
            total = 0.0
            for gid, rec in enumerate(blocks):
                n = layer_passes[layer][gid]
                if n:
                    total += rec.encoded.passes[n - 1].rate_bytes
            body[layer] = total
        new_overheads = [max(0.0, t2_bytes - body[-1])] * len(layer_passes)
        # Scale the (shared) overhead estimate by layer budget fraction.
        if params.target_bpp is not None:
            top = params.target_bpp[-1]
            new_overheads = [
                new_overheads[-1] * (bpp / top) for bpp in params.target_bpp
            ]
        if overheads is not None and all(
            abs(a - b) < 16 for a, b in zip(overheads, new_overheads)
        ):
            break
        overheads = new_overheads

    with report.timed("bitstream I/O") as st:
        cs_params = CodestreamParams(
            height=height,
            width=width,
            bit_depth=params.bit_depth,
            levels=params.levels,
            filter_name=params.filter_name,
            cb_size=params.cb_size,
            n_layers=params.n_layers,
            tile_size=params.tile_size,
            base_step=params.base_step,
            n_components=n_components,
            roi_shift=roi_shift,
            resilient=params.resilience,
        )
        data = write_codestream(cs_params, tile_parts)
        st.add_work(bytes_written=len(data))

    return EncodeResult(
        data=data,
        report=report,
        blocks=blocks,
        params=params,
        image_shape=(height, width),
        layer_passes=layer_passes,
    )


def _assemble_tile(
    band_data: Dict[Tuple[int, str], List[Tuple[BlockInfo, EncodedBlock, int]]],
    eff_levels: int,
    params: CodecParams,
    blocks: Sequence[BlockRecord],
    layer_passes: List[List[int]],
) -> bytes:
    """Band table + LRCP packet sequence for one tile.

    With ``params.resilience`` every piece is wrapped in an SOP resync
    frame: the tile header (decomposition depth + band table) as frame
    sequence 0, then one frame per packet in LRCP emission order, so the
    resilient decoder can drop a damaged packet and resynchronize on the
    next frame.
    """
    n_layers = len(layer_passes)
    res_bands = resolution_bands(eff_levels)
    header = bytearray()
    header.append(eff_levels)

    # Band table: max planes per band, in resolution order.
    band_max: Dict[Tuple[int, str], int] = {}
    for bands in res_bands:
        for key in bands:
            entries = band_data.get(key, [])
            mx = max((eb.n_planes for _, eb, _ in entries), default=0)
            band_max[key] = mx
            header.append(mx)

    payload = bytearray()
    if params.resilience:
        payload += write_frame(0, bytes(header))
    else:
        payload += header
    seq = 0

    # Per-resolution packet writers.
    writers: List[Optional[PacketWriter]] = []
    res_entries: List[List[Tuple[Tuple[int, str], List[Tuple[BlockInfo, EncodedBlock, int]]]]] = []
    for bands in res_bands:
        states: List[BandState] = []
        entries_list: List[Tuple[Tuple[int, str], List[Tuple[BlockInfo, EncodedBlock, int]]]] = []
        for key in bands:
            entries = band_data.get(key, [])
            if not entries:
                continue
            gh = max(b.by for b, _, _ in entries) + 1
            gw = max(b.bx for b, _, _ in entries) + 1
            first_layers = np.full((gh, gw), n_layers, dtype=np.int64)
            zero_planes = np.zeros((gh, gw), dtype=np.int64)
            for binfo, eb, gid in entries:
                fl = n_layers
                for layer in range(n_layers):
                    if layer_passes[layer][gid] > 0:
                        fl = layer
                        break
                first_layers[binfo.by, binfo.bx] = fl
                zero_planes[binfo.by, binfo.bx] = band_max[key] - eb.n_planes
            states.append(BandState(gh, gw, first_layers, zero_planes))
            entries_list.append((key, entries))
        writers.append(PacketWriter(states) if states else None)
        res_entries.append(entries_list)

    # LRCP progression: layers outer, resolutions inner.
    for layer in range(n_layers):
        for r, writer in enumerate(writers):
            if writer is None:
                continue
            contribs: List[List[List[BlockContribution]]] = []
            for (key, entries), state in zip(res_entries[r], writer.bands):
                grid = [
                    [BlockContribution() for _ in range(state.grid_w)]
                    for _ in range(state.grid_h)
                ]
                for binfo, eb, gid in entries:
                    now = layer_passes[layer][gid]
                    before = layer_passes[layer - 1][gid] if layer else 0
                    if now <= before:
                        continue
                    start = eb.passes[before - 1].rate_bytes if before else 0
                    end = eb.passes[now - 1].rate_bytes
                    grid[binfo.by][binfo.bx] = BlockContribution(
                        n_new_passes=now - before,
                        data=eb.data[start:end],
                    )
                contribs.append(grid)
            packet = writer.write_packet(layer, contribs)
            if params.resilience:
                seq += 1
                payload += write_frame(seq, packet)
            else:
                payload += packet
    return bytes(payload)

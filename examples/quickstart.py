#!/usr/bin/env python3
"""Quickstart: encode, decode and inspect an image with the repro codec.

Covers the core public API in ~60 lines:

1. generate a deterministic natural-statistics test image,
2. encode it losslessly (5/3) and lossy with quality layers (9/7),
3. decode at several quality layers and measure PSNR,
4. trace the per-stage profile (the paper's Fig. 3 stages) and read the
   tier-1 work the performance studies build on.

Run:  python examples/quickstart.py
"""

import repro
from repro.obs import Tracer, stage_table


def main() -> None:
    # 1. A 256x256 synthetic image with natural-image statistics.
    img = repro.synthetic_image(repro.SyntheticSpec(256, 256, "mix", seed=1))
    print(f"image: {img.shape[0]}x{img.shape[1]}, 8-bit grayscale")

    # 2a. Lossless coding with the reversible 5/3 transform.
    lossless = repro.encode_image(
        img, repro.CodecParams(filter_name="5/3", levels=5)
    )
    rec = repro.decode_image(lossless.data)
    assert (rec == img).all(), "lossless path must be bit-exact"
    print(
        f"lossless 5/3 : {lossless.rate_bpp():5.2f} bpp "
        f"({lossless.n_bytes} bytes), bit-exact"
    )

    # 2b. Lossy coding with three embedded quality layers.
    layers = (0.125, 0.5, 2.0)  # bits per pixel, cumulative
    tracer = Tracer()
    lossy = repro.encode_image(
        img,
        repro.CodecParams(
            filter_name="9/7", levels=5, base_step=1 / 64, target_bpp=layers
        ),
        tracer=tracer,
    )
    print(f"lossy 9/7    : {lossy.rate_bpp():5.2f} bpp total, {len(layers)} layers")

    # 3. The codestream is scalable: decode any layer prefix.
    for k, bpp in enumerate(layers):
        rec = repro.decode_image(lossy.data, max_layer=k)
        print(
            f"  layer {k} (<= {bpp:5.3f} bpp): PSNR {repro.psnr(img, rec):5.2f} dB"
        )

    # 4. The traced stage profile (the paper's Fig. 3 pipeline stages) and
    #    the tier-1 work, which the per-block records carry.
    title = "encoder stage profile (wall seconds of this Python run)"
    print("\n" + stage_table(tracer, title=title))
    decisions = sum(rec.decisions for rec in lossy.blocks)
    print(f"tier-1 MQ decisions: {decisions} ({decisions / img.size:.1f} per pixel)")


if __name__ == "__main__":
    main()

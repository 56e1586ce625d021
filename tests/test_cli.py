"""Command-line interface round trips."""

import numpy as np
import pytest

from repro.cli import main
from repro.image import read_pnm, write_pnm, psnr
from repro.image import SyntheticSpec, synthetic_image


@pytest.fixture()
def pgm(tmp_path):
    img = synthetic_image(SyntheticSpec(64, 64, "mix", seed=17))
    path = tmp_path / "in.pgm"
    write_pnm(str(path), img)
    return path, img


class TestSynth:
    def test_synth_writes_pgm(self, tmp_path):
        out = tmp_path / "x.pgm"
        assert main(["synth", str(out), "--side", "32", "--seed", "4"]) == 0
        img = read_pnm(str(out))
        assert img.shape == (32, 32)

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        main(["synth", str(a), "--side", "16", "--seed", "9"])
        main(["synth", str(b), "--side", "16", "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()


class TestEncodeDecode:
    def test_lossless_roundtrip(self, pgm, tmp_path, capsys):
        path, img = pgm
        out = tmp_path / "x.rj2k"
        back = tmp_path / "back.pgm"
        rc = main(
            ["encode", str(path), str(out), "--lossless", "--levels", "3",
             "--cb-size", "16", "--verify"]
        )
        assert rc == 0
        assert "OK" in capsys.readouterr().out
        assert main(["decode", str(out), str(back)]) == 0
        assert np.array_equal(read_pnm(str(back)), img)

    def test_lossy_with_layers(self, pgm, tmp_path):
        path, img = pgm
        out = tmp_path / "x.rj2k"
        rc = main(
            ["encode", str(path), str(out), "--levels", "3", "--cb-size", "16",
             "--bpp", "0.5", "2.0"]
        )
        assert rc == 0
        lo, hi = tmp_path / "lo.pgm", tmp_path / "hi.pgm"
        main(["decode", str(out), str(lo), "--layer", "0"])
        main(["decode", str(out), str(hi)])
        assert psnr(img, read_pnm(str(hi))) > psnr(img, read_pnm(str(lo)))

    def test_info(self, pgm, tmp_path, capsys):
        path, _ = pgm
        out = tmp_path / "x.rj2k"
        main(["encode", str(path), str(out), "--levels", "2", "--cb-size", "16"])
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "64x64" in text and "2-level 9/7" in text and "untiled" in text

    def test_tiled_encode(self, pgm, tmp_path, capsys):
        path, _ = pgm
        out = tmp_path / "x.rj2k"
        main(["encode", str(path), str(out), "--levels", "2", "--cb-size", "16",
              "--tile-size", "32"])
        capsys.readouterr()
        main(["info", str(out)])
        assert "32px tiles" in capsys.readouterr().out

    def test_color_roundtrip(self, tmp_path):
        r = synthetic_image(SyntheticSpec(32, 32, "mix", seed=1))
        g = synthetic_image(SyntheticSpec(32, 32, "mix", seed=2))
        rgb = np.stack([r, g, r // 2], axis=2)
        src = tmp_path / "c.ppm"
        write_pnm(str(src), rgb)
        out = tmp_path / "c.rj2k"
        back = tmp_path / "back.ppm"
        assert main(["encode", str(src), str(out), "--lossless", "--levels", "2",
                     "--cb-size", "16"]) == 0
        assert main(["decode", str(out), str(back)]) == 0
        assert np.array_equal(read_pnm(str(back)), rgb)


# Option strings of the subcommands that share the codec flags, with
# each option's (dest, default): the shared helper must not change them.
_CODEC_FLAGS = {
    "--lossless": ("lossless", False),
    "--levels": ("levels", 5),
    "--cb-size": ("cb_size", 64),
    "--bpp": ("bpp", None),
    "--tile-size": ("tile_size", 0),
}
_BACKEND_FLAGS = {
    "--workers": ("workers", 1),
    "--backend": ("backend", None),
}
_SUPERVISION_FLAGS = {
    "--supervise": ("supervise", False),
    "--max-retries": ("max_retries", None),
    "--phase-timeout": ("phase_timeout", None),
    "--no-degrade": ("no_degrade", False),
}
_HELP = {"-h/--help": ("help", "==SUPPRESS==")}


@pytest.mark.parametrize(
    "path, expected",
    [
        (("encode",), {
            **_HELP, **_CODEC_FLAGS, **_BACKEND_FLAGS, **_SUPERVISION_FLAGS,
            "--filter": ("filter", "9/7"),
            "--step": ("step", 1 / 64),
            "--resilient": ("resilient", False),
            "--verify": ("verify", False),
            "--trace": ("trace", False),
        }),
        (("trace", "encode"), {
            **_HELP, **_CODEC_FLAGS, **_BACKEND_FLAGS,
            "--trace-out": ("trace_out", None),
            "--format": ("format", "table"),
        }),
        (("faults", "exec"), {
            **_HELP, **_CODEC_FLAGS, **_BACKEND_FLAGS, **_SUPERVISION_FLAGS,
            "-o/--output": ("output", None),
            "--fault": ("fault", None),
        }),
    ],
)
def test_codec_subcommand_options(path, expected):
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    for name in path:
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    got = {
        "/".join(a.option_strings): (a.dest, a.default)
        for a in parser._actions if a.option_strings
    }
    assert got == expected


def test_codec_params_from_flags():
    from repro.cli import _params_from_args, build_parser

    ap = build_parser()
    args = ap.parse_args(["encode", "a", "b", "--filter", "5/3", "--bpp", "1",
                          "2", "--tile-size", "32", "--resilient"])
    p = _params_from_args(args, args.filter, base_step=args.step,
                          resilience=args.resilient)
    assert (p.filter_name, p.target_bpp, p.tile_size, p.resilience) == (
        "5/3", (1.0, 2.0), 32, True
    )
    args = ap.parse_args(["trace", "encode", "a", "--lossless", "--levels", "3"])
    p = _params_from_args(args)
    assert (p.filter_name, p.levels, p.cb_size, p.target_bpp) == ("5/3", 3, 64, None)
    args = ap.parse_args(["faults", "exec", "a", "--fault", "exc", "--cb-size", "32"])
    assert _params_from_args(args).filter_name == "9/7"

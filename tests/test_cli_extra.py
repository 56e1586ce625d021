"""CLI: the experiments subcommand and error handling."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        )
        assert set(subparsers.choices) == {
            "encode",
            "decode",
            "info",
            "synth",
            "faults",
            "trace",
            "experiments",
            "lint",
            "bench",
            "serve",
        }

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_encode_rejects_bad_filter(self):
        with pytest.raises(SystemExit):
            main(["encode", "a", "b", "--filter", "13/7"])


class TestExperimentsCommand:
    def test_quick_report(self, tmp_path):
        out = tmp_path / "E.md"
        assert main(["experiments", "--quick", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "fig05_tiling" in text


class TestInfoErrors:
    def test_info_on_garbage(self, tmp_path):
        path = tmp_path / "bad.rj2k"
        path.write_bytes(b"definitely not a codestream")
        with pytest.raises(ValueError):
            main(["info", str(path)])

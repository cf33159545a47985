"""Byte identity of every default CSV with its stored copy in tests/golden/.

Each case runs one subcommand with default settings in-process and
compares its file byte for byte.  A change that is meant to move a
number regenerates the stored copy with the same command, e.g.
``fso-adapt reproduce fig2 --out tests/golden/fig2.csv``, and says why.
The same commands run once more with QUADPACK barred: no default
command reaches it.
"""

from pathlib import Path

import pytest

from fso_adapt import channel
from fso_adapt.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "params": ["params"],
    "ase": ["ase"],
    "required-snr": ["required-snr"],
    "mc": ["mc"],
    **{name: ["reproduce", name] for name in ("table2", "table3", "fig2", "fig3", "fig4")},
}


@pytest.mark.parametrize("name", COMMANDS)
def test_default_csv_is_byte_identical(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main([*COMMANDS[name], "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", COMMANDS)
def test_default_command_makes_no_quadrature(name, tmp_path, monkeypatch):
    def barred(*args, **kwargs):
        raise AssertionError("channel.quad called")

    monkeypatch.setattr(channel, "quad", barred)
    assert main([*COMMANDS[name], "--out", str(tmp_path / f"{name}.csv")]) == EXIT_OK

"""The committed help screens: ``transpin --help`` and each subcommand's.

Every screen is pinned byte for byte at three terminal widths.  The width
comes from ``COLUMNS`` and ``LINES``, so the terminal that runs the tests
does not matter.  argparse lays help out differently from one Python
version to the next, so the pins hold on the version that wrote them and
the test skips on any other.

A change that moves a screen on purpose rewrites ``tests/help_screens.json``
with ``PYTHONPATH=src python tests/test_help_screens.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from transpin import cli

SCREENS = Path(__file__).with_name("help_screens.json")
COMMANDS = ["", "spinmap", "report", "verify"]
WIDTHS = [40, 80, 200]
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def screen_key(width: int, command: str) -> str:
    return " ".join(f"COLUMNS={width} transpin {command} --help".split())


def help_screen(command: str) -> str:
    """What ``transpin <command> --help`` prints; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main([*command.split(), "--help"])
        except SystemExit as exc:
            assert exc.code == 0
        else:
            raise AssertionError("--help returned instead of exiting")
    return out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("width", WIDTHS)
def test_help_screen_keeps_its_bytes(width, command, monkeypatch):
    pins = json.loads(SCREENS.read_text())
    if pins["python"] != PYTHON:
        pytest.skip(f"help screens are pinned on Python {pins['python']}")
    monkeypatch.setenv("COLUMNS", str(width))
    monkeypatch.setenv("LINES", "24")
    assert help_screen(command) == pins["screens"][screen_key(width, command)]


if __name__ == "__main__":
    screens = {}
    for width in WIDTHS:
        os.environ["COLUMNS"], os.environ["LINES"] = str(width), "24"
        for command in COMMANDS:
            screens[screen_key(width, command)] = help_screen(command)
    SCREENS.write_text(json.dumps({"python": PYTHON, "screens": screens}, indent=1) + "\n")

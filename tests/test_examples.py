"""The runnable examples execute end to end."""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "fault_tolerant_broadcast.py"],
)
def test_examples_run_end_to_end(script, capsys):
    """The runnable examples execute without errors on a fresh interpreter state."""
    path = EXAMPLES_DIR / script
    assert path.exists()
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert "node" in output

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("collective_decay_demo.py", "population of |A>"),
        ("discrimination_demo.py", "DeSitterFar"),
    ],
)
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert expected in capsys.readouterr().out

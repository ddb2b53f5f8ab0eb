"""Every script in demos/ runs to the end, in process, without a warning.

The demos import the public API by name, so a renamed or removed export
fails here rather than only when someone next runs the script.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_cleanly(script, tmp_path, monkeypatch, capsys):
    # files a demo writes land in the test's own directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out

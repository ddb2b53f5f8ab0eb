"""Every script in demos/ and the README's library tour run to the end, in
process, without a warning.

The demos and the tour import the public API by name, so a renamed or
removed export fails here rather than only when someone next runs them.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_cleanly(script, tmp_path, monkeypatch, capsys):
    # files a demo writes land in the test's own directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_constants_demo_plots_one_series(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "demo_constants.py"), run_name="__main__")
    assert (tmp_path / "h_envelope.svg").read_text().count("<polyline") == 1


@pytest.mark.filterwarnings("error")
def test_readme_library_tour_runs_cleanly(tmp_path, monkeypatch, capsys):
    (tour,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                         re.S | re.M)
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # demos 01 and 03 write their files to the working directory; a demo
    # that uses temporary directories must remove them
    monkeypatch.chdir(tmp_path)
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    assert not any(temp_root.iterdir())

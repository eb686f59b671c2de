"""The demos are scripts: importing one, as a worker process or a test
would, prints nothing and writes nothing."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_is_checked():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_importing_a_demo_runs_nothing(path, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []

"""The byte comparer of two checkouts, run end to end on one cheap case."""

import shutil

import same_output
from bench_pairs import ROOT


def test_main_compares_with_a_directory_base(monkeypatch, capsys, tmp_path):
    # a base directory is copied into the comparer's own temporary tree,
    # which must not exist beforehand
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(same_output, "cases", lambda populations: {"fit": ["fit", "200", "0.05", "740", "0.99"]})
    monkeypatch.setattr(same_output, "demo_names", lambda: [])
    assert same_output.main(["--base", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "identical fit: 3 outputs, 0 different", f"all 3 outputs identical to {tmp_path}"]

"""Every demo that the README documents runs to completion and prints."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "generalized_polar",
        "parallel_sums",
        "reduced_solutions",
        "shorted_operators",
        "truncation_lab",
    ],
)
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()

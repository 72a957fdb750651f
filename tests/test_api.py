from __future__ import annotations

from pathlib import Path

import qlax
from qlax import symmetry


def test_public_api_resolves():
    # a name left in __all__ after its definition is deleted must fail here
    missing = [name for name in qlax.__all__ if not hasattr(qlax, name)]
    assert missing == []
    assert len(set(qlax.__all__)) == len(qlax.__all__)


def test_every_symmetry_check_is_exported():
    # the README lists the three checks side by side
    for name in ("check_ad_exp_ad", "symmetry_residual_full", "equivariance_gap"):
        assert name in qlax.__all__
        assert getattr(qlax, name) is getattr(symmetry, name)


def test_the_readme_library_example_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    assert "(1001, 7, 3, 3)" in capsys.readouterr().out  # the shape its comment states

"""Every package module parses as the oldest Python that pyproject.toml
declares, though the tests run on a newer one."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "burstlink").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    # A regex, not tomllib: the floor itself may predate tomllib (3.11).
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_the_check_rejects_syntax_newer_than_its_version():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11 exception groups
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_floor())

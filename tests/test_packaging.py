"""The test dependencies that ``pip install -e .[test]`` asks for are the ones CI installs."""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).parent.parent


def test_test_extra_pins_the_versions_ci_installs():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = project["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    install = next(line for line in workflow.splitlines() if "pip install" in line and "pytest" in line)
    ci = dict(re.findall(r'"([A-Za-z0-9_.-]+)==([^"]+)"', install))
    assert extra, "pyproject.toml has no test extra"
    for requirement in extra:
        name, sep, version = requirement.partition("==")
        assert sep, f"{requirement!r} is not pinned with =="
        assert ci.get(name) == version, f"pyproject.toml asks for {requirement!r}, CI installs {name}=={ci.get(name)}"

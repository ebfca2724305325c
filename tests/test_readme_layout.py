"""README's "Package layout" states the size of src/veechfib: the figure
must be the line count of its Python files, as `wc -l` gives it."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_states_the_package_line_count():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [figure] = re.findall(r"^src/veechfib/ +(\d[\d ]*) lines$", readme, re.MULTILINE)
    package = sorted((ROOT / "src" / "veechfib").rglob("*.py"))
    lines = sum(path.read_text(encoding="utf-8").count("\n") for path in package)
    assert int(figure.replace(" ", "")) == lines

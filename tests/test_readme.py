"""The README's code runs: its ``python`` blocks, in order, in one namespace, as a reader would paste them."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_the_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) == 5
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for number, block in enumerate(blocks, 1):
            exec(compile(block, f"README.md, python block {number}", "exec"), namespace)

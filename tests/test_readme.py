"""The README's first ``python`` block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_first_python_block_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})

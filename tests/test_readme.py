"""The python blocks of README.md run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_as_written():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

import re
from pathlib import Path

import netsec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_and_are_unique():
    assert len(netsec.__all__) == len(set(netsec.__all__))
    for name in netsec.__all__:
        assert hasattr(netsec, name), name


def test_readme_quick_start_runs():
    # The documented library example must keep up with the API it shows.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S)
    # Blank lines before the block keep traceback line numbers those of README.md.
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, "README.md", "exec"), {})

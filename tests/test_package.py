import importlib
import importlib.util
import re
import sys
from pathlib import Path

import netsec

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_exports_resolve_and_are_unique():
    assert len(netsec.__all__) == len(set(netsec.__all__))
    for name in netsec.__all__:
        assert hasattr(netsec, name), name


def test_benchmark_tracer_bindings_resolve(monkeypatch):
    # The benchmark's tracer looks each traced function up by name when it
    # installs, so a name pruned from the package would fail every traced run.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attr, _ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_readme_quick_start_runs():
    # The documented library example must keep up with the API it shows.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S)
    # Blank lines before the block keep traceback line numbers those of README.md.
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, "README.md", "exec"), {})

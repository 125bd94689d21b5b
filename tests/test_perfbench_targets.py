"""The benchmark's traced spans still find the shelab names they patch.

perfbench/tracing.py patches spans onto shelab's public names from outside
and reports a name it cannot find as absent, with every metric 0.  A
refactor that drops or renames one of those names would only make a traced
metric read 0, so this checks that every target resolves.  The module is
compiled from its source here, so nothing under perfbench/ is written.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    absent = [name for name, module, path, _ in tracing.TARGETS if tracing._resolve(module, path) is None]
    assert absent == []

from pathlib import Path

import pytest

_LINES = []
_SRC = Path(__file__).resolve().parent.parent / "src" / "shelab"


@pytest.fixture
def accept(request):
    """Record one PASS/FAIL line for an end-to-end acceptance check."""

    def _record(ok: bool, detail: str):
        line = f"{'PASS' if ok else 'FAIL'} {request.node.name}: {detail}"
        _LINES.append(line)
        print(line, flush=True)
        assert ok, detail

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _LINES:
        terminalreporter.section("acceptance checks")
        for line in _LINES:
            terminalreporter.write_line(line)
    # the code-size measure: what `wc -l src/shelab/*.py` totals, then per module
    per_module = {p.name: p.read_bytes().count(b"\n") for p in sorted(_SRC.glob("*.py"))}
    terminalreporter.write_line(f"src/shelab/*.py: {sum(per_module.values())} lines")
    for name, lines in per_module.items():
        terminalreporter.write_line(f"  {name}: {lines}")

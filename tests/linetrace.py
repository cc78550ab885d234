"""A pytest plugin that fails the session when a line of src/blab/ never runs.

Load it by name, with tests/ on the module path:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

From the start of the session, every frame whose code comes from src/blab/
is traced (`sys.settrace`, and `threading.settrace` for threads started
later) and the lines it runs are recorded; other frames are not traced. At
the end of the session each line that the compiler emits code for in
src/blab/ (the `co_lines` of every code object) and that never ran is
listed, and fails the session unless `ALLOWED` gives a reason for it. An
allowed line that ran is listed too, as its reason no longer holds. Line
numbers depend on the Python version; the CI step runs on one.
"""
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "blab"

# "module.py:line" -> why no test can run that line
ALLOWED = {}


def _emitted(path):
    """The line numbers of every instruction compiled from the module at path."""
    todo, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        # a module's code starts with an instruction at line 0, which is no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class _LineTrace:
    """The lines that the frames of src/blab/ run in one session."""

    def __init__(self):
        self.ran = set()  # (co_filename, line)
        self.ours = {}  # co_filename -> whether it names a module of src/blab/
        self.report = []

    def trace_line(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self.trace_line

    def trace_call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not isinstance(name, str):  # not every code object carries a file name
            return None
        if name not in self.ours:
            self.ours[name] = Path(name).resolve().parent == SRC
        return self.trace_line if self.ours[name] else None

    def unexecuted(self):
        """'module.py:line' for each emitted line of src/blab/ that never ran,
        in file and line order."""
        ran = {(Path(name).resolve(), line) for name, line in self.ran}
        return [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                for line in sorted(_emitted(path)) if (path, line) not in ran]

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        missing = self.unexecuted()
        self.report.extend(f"{line} never ran" for line in missing if line not in ALLOWED)
        self.report.extend(f"{line} ran, but ALLOWED says: {reason}"
                           for line, reason in ALLOWED.items() if line not in missing)
        if self.report and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("line trace of src/blab/")
        for entry in self.report or ["every line ran"]:
            terminalreporter.write_line(entry)


def pytest_configure(config):
    trace = _LineTrace()
    config.pluginmanager.register(trace, "linetrace-session")
    sys.settrace(trace.trace_call)
    threading.settrace(trace.trace_call)

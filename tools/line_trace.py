"""Lines of ``src/modsym`` that no test, workload op or CLI command executes.

    python tools/line_trace.py

Runs the tier-1 suite in this process under ``sys.settrace``, then the
first 60 ops of the relations workload (its default seed) and the README
commands of the cli workload, both through ``bench/workloads.py`` and in
this process.  Prints each line of ``src/modsym`` that never ran, then a
count.  Standard library only (pytest runs the suite).

It reports lines, not a verdict: CLI tests that start a subprocess are not
traced, and the wall-clock gates of the suite can fail under tracing, so the
suite's own result is only echoed to stderr.  Hypothesis runs with
``--hypothesis-seed=0``, so two runs of one tree draw the same examples;
when the CLI fuzz fails under tracing, Hypothesis shrinks it through more
inputs, which can run a few more lines.  A full run takes minutes.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "modsym"
RELATIONS_OPS = 60


def _code_lines(code):
    """Line numbers of the bytecode of ``code`` and of its nested code."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def executable_lines(path, text):
    """Executable lines of ``text``, the source of ``path``."""
    return _code_lines(compile(text, str(path), "exec"))


class LineTracer:
    """Records the lines run in the given files while armed.

    The files are read and compiled when the tracer is made, so an edit
    during the run changes neither the lines counted nor the text printed;
    a path with no file has no lines.
    ``arm`` installs the trace function again, for code (such as Hypothesis)
    that replaces it; ``stop`` restores the trace function found by
    ``start``.
    """

    def __init__(self, paths):
        self.files = {str(Path(p).resolve()) for p in paths}
        self.sources = {f: Path(f).read_text() if Path(f).is_file() else "" for f in self.files}
        self.lines = {f: executable_lines(f, self.sources[f]) for f in self.files}
        self.hits = {f: set() for f in self.files}
        self._names = {}  # co_filename -> its resolved path, if traced
        self._previous = None

    def _traced(self, name):
        if name not in self._names:
            path = str(Path(name).resolve())
            self._names[name] = path if path in self.files else None
        return self._names[name]

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[self._names[frame.f_code.co_filename]].add(frame.f_lineno)
        return self._line

    def _call(self, frame, event, arg):
        path = self._traced(frame.f_code.co_filename)
        if path is None:
            return None
        self.hits[path].add(frame.f_lineno)
        return self._line

    def arm(self):
        sys.settrace(self._call)

    def start(self):
        self._previous = sys.gettrace()
        self.arm()

    def stop(self):
        sys.settrace(self._previous)

    def never_ran(self):
        """Sorted (path, line) pairs of executable lines with no hit."""
        return [
            (f, line)
            for f in sorted(self.files)
            for line in sorted(self.lines[f] - self.hits[f])
        ]


class _ReArm:
    """pytest plugin: re-install the trace before each test's phases."""

    def __init__(self, tracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        self.tracer.arm()

    def pytest_runtest_call(self, item):
        self.tracer.arm()


def _run_workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    rel = workloads.Relations()
    for x in itertools.islice(rel.ops(workloads.DEFAULT_SEEDS["relations"]), RELATIONS_OPS):
        rel.run(x)
    cli = workloads.Cli()
    for x in workloads.COMMANDS:
        cli.run_traced(x)


def main():
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    tracer = LineTracer(paths)
    sys.path.insert(0, str(SRC))
    tracer.start()
    try:
        code = pytest.main(
            [
                "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", str(ROOT / "tests"),
            ],
            plugins=[_ReArm(tracer)],
        )
        tracer.arm()
        _run_workloads()
    finally:
        tracer.stop()
    print(f"pytest exit code under tracing: {int(code)}", file=sys.stderr)
    missed = tracer.never_ran()
    total = sum(len(lines) for lines in tracer.lines.values())
    for f, line in missed:
        text = tracer.sources[f].splitlines()[line - 1].strip()
        print(f"{Path(f).relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} of {total} executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``tools/line_trace.py`` reports exactly the lines that did not run."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_the_unexecuted_line(tmp_path):
    line_trace = _load("line_trace", TOOL)
    src = tmp_path / "traced_module.py"
    src.write_text(
        "def sign(x):\n"
        "    if x < 0:\n"
        "        return -1\n"
        "    return 1\n"
        "\n"
        "\n"
        "VALUE = sign(5)\n"
    )
    tracer = line_trace.LineTracer([src])
    tracer.start()
    try:
        module = _load("traced_module", src)
    finally:
        tracer.stop()
    assert module.VALUE == 1
    assert tracer.never_ran() == [(str(src.resolve()), 3)]


def test_stop_restores_the_previous_trace_function(tmp_path):
    line_trace = _load("line_trace", TOOL)
    before = sys.gettrace()
    tracer = line_trace.LineTracer([tmp_path / "none.py"])
    tracer.start()
    tracer.stop()
    assert sys.gettrace() is before


def test_an_edit_during_the_run_does_not_move_the_lines(tmp_path):
    line_trace = _load("line_trace", TOOL)
    src = tmp_path / "edited_module.py"
    text = (
        "def sign(x):\n"
        "    if x < 0:\n"
        "        return -1\n"
        "    return 1\n"
        "\n"
        "\n"
        "VALUE = sign(5)\n"
    )
    src.write_text(text)
    tracer = line_trace.LineTracer([src])
    tracer.start()
    try:
        _load("edited_module", src)
        # lines inserted on top, as a docstring edit would: every line moves
        src.write_text('"""Edited."""\n\nEXTRA = [\n    1,\n]\n' + text)
    finally:
        tracer.stop()
    assert tracer.never_ran() == [(str(src.resolve()), 3)]
    assert tracer.sources[str(src.resolve())].splitlines()[2].strip() == "return -1"

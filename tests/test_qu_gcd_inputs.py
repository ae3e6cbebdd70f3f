"""Two Q(u)(t) inputs whose gcds over Q(u) once swelled past any time limit.

Each runs in a fresh process with a timeout, so a slow gcd fails the test
instead of hanging the suite.  The first is the product of three quadratics
over Q(u); the second is the input the CLI fuzz's generator draws from
``random.Random(275)``, through ``DifferentialForm.wedge`` and
``RatFunField.add``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

P = (
    "(t^2+(u^3+2*u-1)*t+(3*u^3-u+5))*(t^2+(2*u^3-7*u^2+1)*t+(u^3+4))"
    "*(t^2+(-u^3+u+9)*t+(5*u^2-3))"
)


def _cli_in_fresh_process(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "modsym.cli", "--json", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )


def test_reciprocity_over_a_product_of_three_quadratics():
    proc = _cli_in_fresh_process(
        "reciprocity-check", "--field", "Q(u)(t)", "--a", "t", "--f", f"1/({P})"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"sum":"0"}\n'


def test_reciprocity_fuzz_input_of_seed_275():
    proc = _cli_in_fresh_process(
        "reciprocity-check", "--field", "Q(u)(t)",
        "--a", "4*(5*u^2+(-1)*t+t^2)",
        "--f", "(4+u*t+(5+u)*t^2+t^3)/((-1)+t)",
        "--dlog", "u*(u+1/(u+3)*t+u*t^2+t^3)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"sum":[],"zero":true}\n'

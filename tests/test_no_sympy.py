"""Every README command runs without importing sympy.

Each command runs in a fresh interpreter, so nothing this test process has
imported can hide an import the CLI makes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

F7U = {"base": "Fp", "p": 7, "steps": [{"ratfun": "u"}]}
F13U = {"base": "Fp", "p": 13, "steps": [{"ratfun": "u"}]}


def _rf(*num):
    return {"num": list(num), "den": ["1"]}


SYMBOL_SUM = {
    "convention": "sum",
    "terms": [{"coeff": 1, "ext": F7U, "entries": [{"tag": "Gm", "value": _rf("2")}]}],
}
CYCLE = {
    "ambient": {"m1": "GaM", "m2": "GmM", "conv": "sum"},
    "terms": [
        {"ext": F13U, "coords": [_rf("0", "1"), _rf("0", "1")], "coeff": 1},
        {"ext": F13U, "coords": [_rf("1"), _rf("2")], "coeff": -1},
    ],
}

README_COMMANDS = [
    ["residue", "--field", "F7(u)(t)", "--a", "u", "--f", "t", "--point", "t"],
    ["reciprocity-check", "--field", "F7(u)(t)", "--a", "t*u", "--f", "(t-1)/(t-2)"],
    ["conductor", "--tag", "Ga", "--field", "F3(t)", "--f", "1/t^3", "--point", "t"],
    ["relation", "--field", "F7(u)(t)", "--f", "(t^3-2*t^2+t-2)/(t^3-2*t^2-2)",
     "--section", "Gm:t@t:1,inf:1"],
    ["eval", "--map", "milnor", "--field", "F7(u)", "--sum", json.dumps(SYMBOL_SUM)],
    ["admissible", "--field", "Q(t)", "--source", "t:1,inf:1", "--g", "t", "--target", "gm"],
    ["probe", "(s^2,s^3)"],
    ["chow-class", "--field", "F13(u)", "--cycle", json.dumps(CYCLE)],
    ["higher-class", "--field", "Q(u)", "--a", "5", "--b", "u"],
    ["fixtures", "--all"],
]

PROBE = (
    "import sys; from modsym import cli; code = cli.main(sys.argv[1:]); "
    "print('sympy' in sys.modules); sys.exit(code)"
)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_without_sympy(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, "--json", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"

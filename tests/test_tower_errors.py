"""Error paths of the tower walks, through the CLI in-process.

A term or cycle whose field is not a finite algebraic extension of the base
must end in the same exit code and JSON error body whichever walk down the
tower meets it first: the trace chain of the evaluation maps or the relative
degree of a Chow class.
"""

import json

import pytest

from modsym import cli

Q_SQRT2 = {"base": "Q", "steps": [{"simple": {"var": "x", "min_poly": [-2, 0, 1]}}]}
Q_W = {"base": "Q", "steps": [{"ratfun": "w"}]}
VALUES = {
    "sqrt2": (["1", "1"], ["3", "0"]),
    "w": ({"num": ["0", "1"], "den": ["1"]}, {"num": ["2"], "den": ["1"]}),
}
EXT = {"sqrt2": Q_SQRT2, "w": Q_W}


def run(capsys, *argv):
    code = cli.main(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


def omega_sum(kind):
    a, b = VALUES[kind]
    entries = [{"tag": "Ga", "value": a}, {"tag": "Gm", "value": b}]
    return json.dumps({"convention": "sum", "terms": [{"coeff": 1, "ext": EXT[kind], "entries": entries}]})


def cycle(kind):
    a, b = VALUES[kind]
    term = {"ext": EXT[kind], "coords": [a, b], "coeff": 1}
    return json.dumps({"ambient": {"m1": "GaM", "m2": "GmM", "conv": "sum"}, "terms": [term]})


@pytest.mark.parametrize(
    "field, kind",
    [("F7(u)", "sqrt2"), ("Q", "w")],
)
def test_eval_omega_off_tower(capsys, field, kind):
    code, body = run(
        capsys, "--allow-out-of-hypothesis", "eval", "--map", "omega",
        "--field", field, "--sum", omega_sum(kind),
    )
    assert code == 2
    assert body == {
        "error": "UnsupportedField",
        "message": "term field is not a tower of algebraic steps",
    }


@pytest.mark.parametrize(
    "field, kind, code, error, message",
    [
        ("F13(u)", "sqrt2", 1, "validation", "not an extension of the given field"),
        ("Q", "w", 2, "UnsupportedField", "transcendental step in relative degree"),
    ],
)
def test_chow_class_off_tower(capsys, field, kind, code, error, message):
    got, body = run(capsys, "chow-class", "--field", field, "--cycle", cycle(kind))
    assert got == code
    assert body == {"error": error, "message": message}

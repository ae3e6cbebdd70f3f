"""Malformed literals in JSON inputs end in one JSON error body, exit 1 or 2.

A Q value with a zero denominator exits 2 with ``ZeroDivisionInField``, as
``1/0`` in an expression does; a non-finite count (``1e999`` parses to an
infinite float) and a Q literal whose decimal exponent is over
``MAX_EXPONENT`` exit 1 with ``validation``.  Literals with a finite value
and a small exponent keep their answers.
"""

import json
from fractions import Fraction

import pytest

from modsym import cli, fields
from modsym.errors import ZeroDivisionInField
from modsym.fields import FpField, QField

from test_input_checks import _cli_in_fresh_process

QU = {"base": "Q", "steps": [{"ratfun": "u"}]}
F7U = {"base": "Fp", "p": 7, "steps": [{"ratfun": "u"}]}
ONE = {"num": ["1"], "den": ["1"]}
INF = "1e999"  # a JSON number that Python's json reads as float("inf")


def _dumps(data):
    """JSON text of ``data`` with every string ``INF`` written as the bare
    number ``1e999``."""
    return json.dumps(data).replace(json.dumps(INF), INF)


def _sum(ext=QU, coeff=1, value=ONE, tag="Ga"):
    entry = {"tag": tag, "value": value}
    return _dumps({"terms": [{"coeff": coeff, "ext": ext, "entries": [entry]}]})


def _cycle(coords=(ONE, ONE), coeff=1):
    return _dumps({
        "ambient": {"m1": "GaM", "m2": "GaM", "conv": "sum"},
        "terms": [{"ext": QU, "coords": list(coords), "coeff": coeff}],
    })


def _num(n):
    return {"num": [n], "den": ["1"]}


def run(capsys, *argv):
    code = cli.main(["--json", *argv])
    out = capsys.readouterr().out
    assert out.count("\n") == 1, out  # one JSON object, on one line
    return code, json.loads(out)


ZERO_DENOMINATOR = {
    "eval-ga-value": ["eval", "--map", "omega", "--field", "Q(u)", "--sum", _sum(value=_num("1/0"))],
    "chow-coordinate": ["chow-class", "--field", "Q(u)", "--cycle", _cycle((_num("1/0"), ONE))],
    "min-poly-coefficient": [
        "eval", "--map", "omega", "--field", "Q", "--sum",
        _sum(ext={"base": "Q", "steps": [{"simple": {"var": "x", "min_poly": ["1/0", 0, 1]}}]},
             value=["1", "0"]),
    ],
}

NON_FINITE = {
    "eval-coeff": ["eval", "--map", "omega", "--field", "Q(u)", "--sum", _sum(coeff=INF)],
    "chow-coeff": ["chow-class", "--field", "Q(u)", "--cycle", _cycle(coeff=INF)],
    "ext-p": ["eval", "--map", "omega", "--field", "F7(u)", "--sum",
              _sum(ext={**F7U, "p": INF})],
    "fp-value": ["eval", "--map", "omega", "--field", "F7(u)", "--sum",
                 _sum(ext=F7U, value={"num": [INF], "den": ["1"]})],
    "z-value": ["eval", "--map", "milnor", "--field", "Q(u)", "--sum",
                _sum(tag="Z", value=INF)],
    "large-exponent": ["eval", "--map", "omega", "--field", "Q(u)", "--sum",
                       _sum(value=_num(f"1e{cli.MAX_EXPONENT + 1}"))],
    "large-negative-exponent": ["eval", "--map", "omega", "--field", "Q(u)", "--sum",
                                _sum(value=_num(f"1e-{cli.MAX_EXPONENT + 1}"))],
}


def test_1e999_is_read_as_infinity():
    assert json.loads(_sum(coeff=INF))["terms"][0]["coeff"] == float("inf")


@pytest.mark.parametrize("argv", ZERO_DENOMINATOR.values(), ids=ZERO_DENOMINATOR)
def test_zero_denominator_exits_2(capsys, argv):
    code, body = run(capsys, *argv)
    assert (code, body["error"]) == (2, "ZeroDivisionInField")


def test_zero_denominator_matches_the_expression_route(capsys):
    code, body = run(capsys, "residue", "--field", "Q(t)", "--a", "1/0", "--f", "t", "--point", "t")
    assert (code, body["error"]) == (2, "ZeroDivisionInField")


@pytest.mark.parametrize("argv", NON_FINITE.values(), ids=NON_FINITE)
def test_non_finite_count_or_large_exponent_exits_1(capsys, argv):
    code, body = run(capsys, *argv)
    assert (code, body["error"]) == (1, "validation")


def test_huge_exponent_exits_1_quickly():
    # a fresh process, so a missing bound times out instead of hanging the suite
    for value in ("1e999999999", "1e-999999999"):
        proc = _cli_in_fresh_process(
            "eval", "--map", "omega", "--field", "Q(u)", "--sum", _sum(value=_num(value)),
            timeout=10,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout)["error"] == "validation"


@pytest.mark.parametrize("literal, value", [
    ("1e5", Fraction(10 ** 5)),
    (f"1e{cli.MAX_EXPONENT}", Fraction(10 ** cli.MAX_EXPONENT)),
    (f"-3E-{cli.MAX_EXPONENT}", Fraction(-3, 10 ** cli.MAX_EXPONENT)),
    (1e300, Fraction(10 ** 300)),
    (1.5, Fraction(3, 2)),
    (7, Fraction(7)),
    (" 2/4 ", Fraction(1, 2)),
])
def test_finite_q_literals_keep_their_values(literal, value):
    assert QField().elem_from_json(literal) == value


def test_finite_counts_keep_their_values():
    assert fields.int_from_json(1e300) == int(1e300)
    assert fields.int_from_json("-12") == -12
    assert FpField(7).elem_from_json(2.5) == 2
    with pytest.raises(ValueError):
        fields.int_from_json(float("inf"))
    with pytest.raises(ZeroDivisionInField):
        QField().elem_from_json("0/0")


def test_small_exponent_answers(capsys):
    code, body = run(capsys, "eval", "--map", "omega", "--field", "Q(u)", "--sum",
                     _sum(value=_num("1e5")))
    assert code == 0
    assert body["omega"][0]["coeff"] == {"den": ["1"], "num": ["100000"]}

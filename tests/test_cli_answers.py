"""Z sections of curve relations, and the tag of answers outside the theorem
hypotheses."""

import json

import pytest

from modsym import cli


def run(capsys, *argv):
    code = cli.main(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


Q_SQRT2 = {"base": "Q", "steps": [{"simple": {"min_poly": ["-2", "0", "1"], "var": "~t"}}]}


class TestZSections:
    def test_integer_constant_is_the_entry_at_every_point(self, capsys):
        # the zeros of t^2-2 form one point of degree 2, the pole t=1 has
        # order 2; the entry is 3 at both, not the class of 3 in Q[t]/(t^2-2)
        code, body = run(
            capsys, "relation", "--field", "Q(t)", "--f", "(t^2-2)/(t-1)^2", "--section", "Z:3@"
        )
        assert code == 0
        assert body["symbol_sum"]["terms"] == [
            {"coeff": 1, "entries": [{"tag": "Z", "value": 3}], "ext": Q_SQRT2},
            {"coeff": -2, "entries": [{"tag": "Z", "value": 3}], "ext": {"base": "Q"}},
        ]

    @pytest.mark.parametrize("g", ["t", "1/2", "t/(t+1)"])
    def test_non_integer_or_non_constant_section_is_refused(self, capsys, g):
        # with g = t the old answer read int(1/2) = 0 at the zero t = 1/2
        code, body = run(
            capsys, "relation", "--field", "Q(t)", "--f", "(2*t-1)/(t-2)", "--section", f"Z:{g}@"
        )
        assert code == 1
        assert body["error"] == "validation"

    def test_constant_of_a_function_field_base(self, capsys):
        code, body = run(
            capsys, "relation", "--field", "F7(u)(t)", "--f", "(t^3-2*t^2+t-2)/(t^3-2*t^2-2)",
            "--section", "Gm:t@t:1,inf:1", "--section", "Z:5@",
        )
        assert code == 0
        assert all(t["entries"][1] == {"tag": "Z", "value": 5} for t in body["symbol_sum"]["terms"])
        code, body = run(
            capsys, "relation", "--field", "F7(u)(t)", "--f", "(t^3-2*t^2+t-2)/(t^3-2*t^2-2)",
            "--section", "Gm:t@t:1,inf:1", "--section", "Z:u@",
        )
        assert (code, body["error"]) == (1, "validation")


CYCLE = json.dumps({
    "ambient": {"m1": "GaM", "m2": "GaM", "conv": "sum"},
    "terms": [{"ext": {"base": "Fp", "p": 2, "steps": [{"ratfun": "u"}]},
               "coords": [{"num": ["0", "1"], "den": ["1"]}, {"num": ["1"], "den": ["1"]}],
               "coeff": 1}],
})
GUARDED = [
    ["higher-class", "--field", "F2(u)", "--a", "1", "--b", "u"],
    ["chow-class", "--field", "F2(u)", "--cycle", CYCLE],
    ["eval", "--map", "omega", "--field", "F2(u)", "--sum", '{"terms": []}'],
]


class TestOutsideHypothesesTag:
    @pytest.mark.parametrize("argv", GUARDED, ids=lambda a: a[0])
    def test_every_allowed_answer_is_tagged(self, capsys, argv):
        code, body = run(capsys, *argv)
        assert (code, body["error"]) == (2, "CharacteristicUnsupported")
        code, body = run(capsys, "--allow-out-of-hypothesis", *argv)
        assert code == 0
        assert body["outside_theorem_hypotheses"] is True

    def test_unguarded_commands_are_not_tagged(self, capsys):
        code, body = run(capsys, "--allow-out-of-hypothesis", "probe", "(s^2,s^3)")
        assert code == 0
        assert "outside_theorem_hypotheses" not in body

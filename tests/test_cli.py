import io
import json

import pytest

from modsym import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestProbe:
    def test_known_output(self, capsys):
        code, out = run(capsys, "--json", "probe", "(s^2,s^3)")
        assert code == 0
        assert json.loads(out) == {"vE": 2, "vD1": 0, "vD2": 1, "max": 3, "sum": 5}

    def test_byte_stability(self, capsys):
        _, out1 = run(capsys, "--json", "probe", "(s^2,s^3)")
        _, out2 = run(capsys, "--json", "probe", "(s^2,s^3)")
        assert out1 == out2


class TestResidueAndReciprocity:
    def test_residue_dlog(self, capsys):
        code, out = run(
            capsys,
            "--json",
            "residue",
            "--field",
            "F7(u)(t)",
            "--a",
            "u",
            "--f",
            "t",
            "--point",
            "t",
        )
        assert code == 0
        data = json.loads(out)
        # Res_0(u dlog t) = u
        assert data["residue"] == [{"basis_monomial": [], "coeff": {"num": ["0", "1"], "den": ["1"]}}]

    def test_reciprocity_zero(self, capsys):
        code, out = run(
            capsys,
            "--json",
            "reciprocity-check",
            "--field",
            "F7(u)(t)",
            "--a",
            "t*u",
            "--f",
            "(t-1)/(t-2)",
        )
        assert code == 0
        assert json.loads(out)["sum"] == "0"


class TestConductor:
    def test_ga_char0(self, capsys):
        code, out = run(
            capsys, "--json", "conductor", "--tag", "Ga",
            "--field", "Q(t)", "--f", "1/t^2", "--point", "t",
        )
        assert code == 0
        assert json.loads(out)["result"] == 3

    def test_ga_char3_frobenius(self, capsys):
        code, out = run(
            capsys, "--json", "conductor", "--tag", "Ga",
            "--field", "F3(t)", "--f", "1/t^3", "--point", "t",
        )
        assert code == 0
        assert json.loads(out)["result"] == 2

    def test_gm_unit(self, capsys):
        code, out = run(
            capsys, "--json", "conductor", "--tag", "Gm",
            "--field", "Q(t)", "--f", "t+1", "--point", "t",
        )
        assert json.loads(out)["result"] == 0


class TestRelationAndEval:
    def test_relation_then_eval_milnor(self, capsys):
        code, out = run(
            capsys,
            "--json",
            "relation",
            "--field",
            "F7(u)(t)",
            "--f",
            "(t^3-2*t^2+t-2)/(t^3-2*t^2-2)",
            "--section",
            "Gm:t@t:1,inf:1",
        )
        assert code == 0
        ss = json.loads(out)["symbol_sum"]
        assert ss["terms"]
        code2, out2 = run(
            capsys,
            "--json",
            "eval",
            "--map",
            "milnor",
            "--field",
            "F7(u)",
            "--sum",
            json.dumps(ss),
        )
        assert code2 == 0

    def test_congruence_failure_exit_2(self, capsys):
        code, out = run(
            capsys,
            "--json",
            "relation",
            "--field",
            "F7(u)(t)",
            "--f",
            "(t-1)/(t-3)",
            "--section",
            "Gm:t@t:1,inf:1",
        )
        assert code == 2
        assert json.loads(out)["error"] == "CongruenceFailure"

    def test_guard_exit_2_and_override(self, capsys):
        ss = {
            "convention": "sum",
            "terms": [
                {
                    "coeff": 1,
                    "ext": {"base": "Fp", "p": 3, "steps": [{"ratfun": "u"}]},
                    "entries": [
                        {"tag": "Ga", "value": {"num": ["1"], "den": ["1"]}},
                        {"tag": "Gm", "value": {"num": ["0", "1"], "den": ["1"]}},
                    ],
                }
            ],
        }
        code, out = run(
            capsys, "--json", "eval", "--map", "omega",
            "--field", "F3(u)", "--sum", json.dumps(ss),
        )
        assert code == 2
        assert json.loads(out)["error"] == "CharacteristicUnsupported"
        code2, out2 = run(
            capsys, "--json", "--allow-out-of-hypothesis", "eval", "--map", "omega",
            "--field", "F3(u)", "--sum", json.dumps(ss),
        )
        assert code2 == 0
        assert json.loads(out2)["outside_theorem_hypotheses"] is True

    def test_refined_product_convention_max(self, capsys):
        """The Ga and Gm sections multiply with the paper's refined product:
        f is congruent to 1 modulo the max of their moduli, not their sum."""
        relation = (
            "relation", "--field", "Q(t)", "--f", "(t^3+t+2)/(t^3+2)",
            "--section", "Ga:t@inf:2", "--section", "Gm:t@t:1,inf:1",
        )
        code, out = run(capsys, "--json", "--convention", "sum", *relation)
        assert code == 2
        assert json.loads(out)["error"] == "CongruenceFailure"
        code, out = run(capsys, "--json", "--convention", "max", *relation)
        assert code == 0
        ss = json.loads(out)["symbol_sum"]
        assert ss["convention"] == "max"
        code, out = run(
            capsys, "--json", "eval", "--map", "omega", "--field", "Q", "--sum", json.dumps(ss),
        )
        assert code == 0
        assert '"zero":true' in out

    def test_convention_after_the_subcommand(self, capsys):
        """``relation`` takes ``--convention`` after the subcommand too, with
        the same stdout; given both ways, the value after the subcommand wins."""
        relation = (
            "relation", "--field", "Q(t)", "--f", "(t^3+t+2)/(t^3+2)",
            "--section", "Ga:t@inf:2", "--section", "Gm:t@t:1,inf:1",
        )
        before = run(capsys, "--json", "--convention", "max", *relation)
        assert before[0] == 0
        assert run(capsys, "--json", *relation, "--convention", "max") == before
        assert run(capsys, "--json", "--convention", "sum", *relation, "--convention", "max") == before
        code, out = run(capsys, "--json", "--convention", "max", *relation, "--convention", "sum")
        assert code == 2 and json.loads(out)["error"] == "CongruenceFailure"


class TestAdmissible:
    def test_line_source(self, capsys):
        code, out = run(
            capsys, "--json", "admissible", "--field", "Q(t)",
            "--source", "t:1,inf:1", "--g", "t", "--target", "gm",
        )
        assert code == 0 and json.loads(out)["admissible"] is True
        code, out = run(
            capsys, "--json", "admissible", "--field", "Q(t)",
            "--source", "inf:1", "--g", "t", "--target", "gm",
        )
        assert json.loads(out)["admissible"] is False


class TestValidationErrors:
    def test_bad_field_exit_1(self, capsys):
        code, out = run(capsys, "--json", "probe", "(s^2")
        assert code == 1
        assert json.loads(out)["error"] == "validation"

    def test_bad_expression_exit_1(self, capsys):
        code, out = run(
            capsys, "--json", "conductor", "--tag", "Gm",
            "--field", "Q(t)", "--f", "t+", "--point", "t",
        )
        assert code == 1

    def test_nonmonic_point_exit_1(self, capsys):
        code, out = run(
            capsys, "--json", "conductor", "--tag", "Gm",
            "--field", "Q(t)", "--f", "t", "--point", "2*t",
        )
        assert code == 1


class TestHigherClass:
    def test_over_q(self, capsys):
        code, out = run(
            capsys, "--json", "higher-class", "--field", "Q(u)",
            "--a", "5", "--b", "u",
        )
        assert code == 0
        data = json.loads(out)
        assert data["composite"] == [
            {"basis_monomial": ["u"], "coeff": {"num": ["5"], "den": ["0", "1"]}}
        ]


class TestFixturesCommand:
    def test_named_subset(self, capsys):
        code, out = run(capsys, "--json", "fixtures", "--set", "jet-product")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["fixtures"][0]["name"] == "jet-product"

"""Inputs that must end in a JSON error body with exit 1, or answer quickly."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import cli
from modsym.errors import CharacteristicTooLarge, IncompatibleTerms
from modsym.fields import PRIME_LIMIT, FpField, QField, RatFunField, _is_prime
from modsym.kahler import DifferentialForm, dlog
from modsym.symcalc import MAX, SUM, SymbolSum


def run(capsys, *argv):
    code = cli.main(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    @given(st.integers(-10, 200_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_trial_division(self, n):
        assert _is_prime(n) == _trial_division(n)

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to bases 2 .. 23
            318665857834031151167461,  # strong pseudoprime to bases 2 .. 37
            1000000000000000001,
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n):
        assert not _is_prime(n)

    def test_large_primes(self):
        assert _is_prime(1000000000000000003)
        assert _is_prime(2 ** 61 - 1)

    def test_limit(self):
        with pytest.raises(CharacteristicTooLarge):
            FpField(PRIME_LIMIT)


class TestCharacteristicCli:
    def test_large_prime_field_answers(self, capsys):
        t0 = time.perf_counter()
        code, body = run(
            capsys, "reciprocity-check", "--field", "F1000000000000000003(t)",
            "--a", "t", "--f", "(t-1)/(t^2+1)",
        )
        assert time.perf_counter() - t0 < 10
        assert code == 0 and body == {"sum": "0"}

    def test_composite_exit_1(self, capsys):
        code, body = run(
            capsys, "reciprocity-check", "--field", "F1000000000000000001(t)",
            "--a", "t", "--f", "t",
        )
        assert code == 1 and body["error"] == "NonPrimeCharacteristic"

    def test_too_large_exit_1(self, capsys):
        code, body = run(
            capsys, "reciprocity-check", "--field", f"F{PRIME_LIMIT + 2}(t)",
            "--a", "t", "--f", "t",
        )
        assert code == 1 and body["error"] == "CharacteristicTooLarge"


F7U = {"base": "Fp", "p": 7, "steps": [{"ratfun": "u"}]}


def _entry(tag, num):
    return {"tag": tag, "value": {"num": num, "den": ["1"]}}


class TestIncompatibleTerms:
    def test_mixed_arity_omega_sum_exit_1(self, capsys):
        terms = [
            {"coeff": 1, "ext": F7U, "entries": [_entry("Ga", ["1"]), _entry("Gm", ["0", "1"])]},
            {"coeff": 1, "ext": F7U, "entries": [_entry("Ga", ["0", "1"])]},
        ]
        code, body = run(
            capsys, "eval", "--map", "omega", "--field", "F7(u)",
            "--sum", json.dumps({"convention": "sum", "terms": terms}),
        )
        assert code == 1 and body["error"] == "IncompatibleTerms"

    def test_symbol_sums_of_different_conventions(self):
        K = RatFunField(QField(), "u")
        with pytest.raises(IncompatibleTerms):
            SymbolSum(K, SUM) + SymbolSum(K, MAX)

    def test_forms_of_different_degrees(self):
        K = RatFunField(QField(), "u")
        u = K.from_poly((0, 1))
        with pytest.raises(IncompatibleTerms):
            DifferentialForm.scalar(K, u) + dlog(K, u)

"""``make_field`` descriptor paths: ``insep_root`` steps, their errors, and
the absolute-degree bound ``MAX_DEGREE``, in the library and through the CLI."""

import json
import time

import pytest

from modsym import cli, fields
from modsym.errors import DegreeTooLarge, NonPrimeCharacteristic, UnsupportedField
from modsym.fields import ExtField, FpField, RatFunField, field_to_descriptor, make_field

from test_input_checks import _cli_in_fresh_process

U = {"num": ["0", "1"], "den": ["1"]}  # the element u of F_p(u)
ONE = {"num": ["1"], "den": ["1"]}


def _insep(p, y=U):
    return {"base": "Fp", "p": p, "steps": [{"ratfun": "u"}, {"insep_root": {"var": "x", "y": y}}]}


def test_insep_root_over_f3u():
    E = make_field(_insep(3))
    K = RatFunField(FpField(3), "u")
    u = K.from_poly((0, 1))
    assert E == ExtField(K, "x", (K.neg(u), K.zero, K.zero, K.one))
    assert E.inseparable
    assert make_field(field_to_descriptor(E)) == E


def test_insep_root_in_characteristic_0():
    with pytest.raises(NonPrimeCharacteristic):
        make_field({"base": "Q", "steps": [{"insep_root": {"var": "x", "y": 2}}]})


def test_unknown_step():
    with pytest.raises(UnsupportedField):
        make_field({"base": "Q", "steps": [{"cyclotomic": 5}]})


def test_cli_reads_the_bound_from_fields():
    assert cli.MAX_DEGREE is fields.MAX_DEGREE


class TestAbsoluteDegreeBound:
    def test_insep_root_above_the_bound(self):
        with pytest.raises(DegreeTooLarge):
            make_field(_insep(1009))  # the least prime above 1000

    def test_insep_root_at_a_huge_characteristic(self):
        # near PRIME_LIMIT the p + 1 coefficients could not be allocated
        with pytest.raises(DegreeTooLarge):
            make_field(_insep(fields.PRIME_LIMIT - 168))  # the largest prime below it

    def test_simple_step_above_the_bound(self):
        mp = [1] + [0] * fields.MAX_DEGREE + [1]
        with pytest.raises(DegreeTooLarge):
            make_field({"base": "Fp", "p": 2, "steps": [{"simple": {"var": "x", "min_poly": mp}}]})

    def test_the_bound_is_on_the_product_of_the_steps(self):
        # degree 2 * 997 = 1994 over F997(u): each step alone is below the bound
        desc = {"base": "Fp", "p": 997, "steps": [
            {"simple": {"var": "a", "min_poly": [5, 0, 1]}},  # 5 is not a square mod 997
            {"ratfun": "u"},
            {"insep_root": {"var": "x", "y": U}},
        ]}
        with pytest.raises(DegreeTooLarge):
            make_field(desc)
        assert make_field({**desc, "steps": desc["steps"][:1]}).deg == 2


def _chow_class_insep(p, timeout):
    cycle = {"ambient": {"m1": "GaM", "m2": "GaM", "conv": "sum"},
             "terms": [{"ext": _insep(p), "coords": [[U], [ONE]], "coeff": 1}]}
    return _cli_in_fresh_process(
        "chow-class", "--field", f"F{p}(u)", "--cycle", json.dumps(cycle), timeout=timeout
    )


def test_cli_insep_root_in_a_large_characteristic_exits_1_quickly():
    # a fresh process, so a missing bound times out instead of hanging the suite
    t0 = time.perf_counter()
    proc = _chow_class_insep(100003, timeout=10)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == "DegreeTooLarge"


def test_cli_insep_root_below_the_bound_answers():
    proc = _chow_class_insep(997, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["class"]["degree"] == 997

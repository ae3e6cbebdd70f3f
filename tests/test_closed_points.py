"""The closed-point questions, each with one implementation.

* ``fields.pmultiplicity`` splits ``a = q^m * b`` with ``q`` not dividing
  ``b`` (valuations, residues and factor multiplicities all use it);
* relation certification checks ``c_x(g) <= D(x)`` for Ga and Gm sections
  alike, in the fixed order of ``Divisor.points()``, so its errors do not
  depend on ``PYTHONHASHSEED``;
* ``curve.boundary_values`` feeds both ``make_relation`` and
  ``rat_equiv_zero``, each keeping its own error class;
* Omega conductors answer at separable points of any degree, the
  subadditivity probe resolves coefficients of high valuation, and the local
  parameter is named apart from the tower's variables.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import chow, cli
from modsym.chow import GA, GM
from modsym.curve import Divisor, boundary_values, valuation_at
from modsym.errors import ConductorCertificateFailure, PointOnDivisor
from modsym.fields import ExtField, FpField, QField, RatFunField, pdivmod, pmul, pmultiplicity, ptrim
from modsym.kahler import DifferentialForm, differential, dlog
from modsym.localfield import conductor_omega, form_conductor, localize_form
from modsym.symcalc import conductor_subadditivity_check, kummer_push_local

SRC = Path(__file__).resolve().parent.parent / "src"

F7 = FpField(7)
Q = QField()
FIELDS = {
    "F7": F7,
    "Q": Q,
    "F7(u)": RatFunField(F7, "u"),
    "Q(sqrt2)": ExtField(Q, "r", tuple(map(Q.from_int, (-2, 0, 1)))),
}


def cli_json(capsys, *argv):
    code = cli.main(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# pmultiplicity
# ---------------------------------------------------------------------------


def _rand_poly(K, rng, length):
    return ptrim(K, [K.rand(rng) for _ in range(length)])


@given(st.sampled_from(sorted(FIELDS)), st.integers(0, 2**32), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_pmultiplicity_splits_off_every_factor(name, seed, k):
    K, rng = FIELDS[name], random.Random(seed)
    q = ()
    while len(q) < 2:
        q = _rand_poly(K, rng, rng.randint(2, 3))
    b = ()
    while not b:
        b = _rand_poly(K, rng, rng.randint(1, 4))
    a = b
    for _ in range(k):
        a = pmul(K, a, q)
    m, rest = pmultiplicity(K, a, q)
    assert m >= k
    power = (K.one,)
    for _ in range(m):
        power = pmul(K, power, q)
    assert pmul(K, power, rest) == a
    assert pdivmod(K, rest, q)[1]


# ---------------------------------------------------------------------------
# relation certification and boundary values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, section, error",
    [
        ("1+t/(t^2+2)", "Gm:0@t:1", "ZeroFunction"),
        # a Ga pole at a zero of f fails certification
        ("(t+1)/(t+2)", "Ga:1/(t+1)", "ConductorCertificateFailure"),
        # a Gm section with a zero outside its divisor
        ("1+t/(t^2+2)", "Gm:t-1@t:1", "ConductorCertificateFailure"),
        ("1+t/(t^2+2)", "Gm:t@t:1,inf:1", None),
        ("1+t/(t^2+2)", "Ga:0", None),
    ],
)
def test_relation_error_classes(capsys, f, section, error):
    code, body = cli_json(capsys, "relation", "--field", "Q(t)", "--f", f, "--section", section)
    if error is None:
        assert code == 0 and "symbol_sum" in body
    else:
        assert code == 2 and body["error"] == error


def test_gm_certificate_names_the_conductor(capsys):
    code, body = cli_json(capsys, "relation", "--field", "Q(t)", "--f", "1+t", "--section", "Gm:t-1")
    assert code == 2
    assert body == {
        "error": "ConductorCertificateFailure",
        "message": "Gm conductor 1 exceeds declared level 0 at 'inf'",
    }


@pytest.mark.parametrize(
    "sections, message",
    [
        # a negative level cancels the support the other section adds to D
        (["Ga:1/t@t:-1", "Ga:1/t@t:2"],
         "Ga conductor 2 exceeds declared level -1 at (Fraction(0, 1), Fraction(1, 1))"),
        (["Gm:t@t:-1", "Ga:1/t@t:2"], "Gm conductor 1 exceeds declared level 0 at 'inf'"),
        (["Gm:t@t:-1,inf:-1", "Ga:1/t@t:2,inf:1"],
         "Gm conductor 1 exceeds declared level -1 at 'inf'"),
        (["Gm:2@t:-1", "Ga:1/t@t:2"],
         "Gm conductor 0 exceeds declared level -1 at (Fraction(0, 1), Fraction(1, 1))"),
    ],
)
def test_certificate_checks_negative_levels(capsys, sections, message):
    argv = ["relation", "--field", "Q(t)", "--f", "1+t"]
    for sec in sections:
        argv += ["--section", sec]
    assert cli_json(capsys, *argv) == (2, {"error": "ConductorCertificateFailure",
                                           "message": message})


def test_ga_certificate_factors_only_the_denominator(Qt, monkeypatch):
    from modsym import curve, symcalc

    seen = []

    def spy(R, g):
        seen.append(g)
        return curve.divisor_of(R, g)

    monkeypatch.setattr(symcalc, "divisor_of", spy)
    R = Qt
    t = R.from_poly((Q.zero, Q.one))
    g = R.add(R.pow(t, 9), R.inv(R.pow(R.sub(t, R.one), 2)))
    D = Divisor(R, {(Q.from_int(-1), Q.one): 3, "inf": 10})
    symcalc._certify_section(R, "Ga", g, D)
    assert [num for num, _ in seen] == [(Q.one,)]
    with pytest.raises(ConductorCertificateFailure, match="Ga conductor 10 exceeds declared level 9"):
        symcalc._certify_section(R, "Ga", g, Divisor(R, {(Q.from_int(-1), Q.one): 3, "inf": 9}))


def test_relation_error_ignores_hash_seed():
    argv = [sys.executable, "-m", "modsym.cli", "--json", "relation", "--field", "Q(t)",
            "--f", "1+(t^2+1)*t^3", "--section", "Ga:t^3+1/(t-5)^2"]
    outs = set()
    for seed in range(1, 9):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 2
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_boundary_values_mark_poles(Qt):
    R = Qt
    t = R.from_poly((Q.zero, Q.one))
    f = R.div(R.sub(t, R.one), R.add(t, R.one))  # zero at 1, pole at -1
    g = R.inv(R.sub(t, R.one))
    got = {x: (v, vals) for x, v, _, vals in boundary_values(R, f, [t, g])}
    assert got == {
        (Q.from_int(-1), Q.one): (1, [Q.one, None]),
        (Q.one, Q.one): (-1, [Q.from_int(-1), Fraction(-1, 2)]),
    }


@pytest.mark.parametrize("bad", ["gm_zero", "ga_pole"])
def test_rat_equiv_zero_on_a_divisor_point(Qt, monkeypatch, bad):
    # the pulled-back modulus keeps boundary points off the ambient divisor;
    # drop it, and the boundary cycle itself must refuse the point
    R = Qt
    monkeypatch.setattr(chow, "required_modulus", lambda R, g, target: Divisor(R))
    t = R.from_poly((Q.zero, Q.one))
    f = R.add(t, R.one)  # zero at -1, pole at inf
    if bad == "gm_zero":
        gs = (R.one, R.add(t, R.one))
    else:
        gs = (R.inv(R.add(t, R.one)), R.one)
    with pytest.raises(PointOnDivisor):
        chow.rat_equiv_zero(R, Q, gs, f, (GA, GM))


# ---------------------------------------------------------------------------
# Omega conductors at separable points of degree >= 2
# ---------------------------------------------------------------------------


def test_omega_conductor_at_a_quadratic_point(capsys):
    code, body = cli_json(capsys, "conductor", "--tag", "Omega(0)", "--field", "Q(t)",
                          "--f", "1/(t^2+1)", "--point", "t^2+1")
    assert code == 0
    assert body["result"] == 2


def _level(v, has_ds):
    if v >= 0:
        return 0
    return -v if has_ds else 1 - v


CURVES = [
    ("Q(t)", ["t^2+1", "t^2-2", "t^3-2"]),
    ("F7(t)", ["t^2+1", "t^3-2"]),
    ("F3(u)(t)", ["t^2-u", "t^2+u*t+1", "t^2+1"]),
    ("F5(u)(t)", ["t^2-u"]),
]


@pytest.mark.parametrize("field, points", CURVES)
def test_omega_conductor_matches_valuations(field, points):
    R = cli.parse_field(field)
    K = R.below
    rng = random.Random(len(field))
    for text in points:
        P = cli.parse_point(R, text)
        Pf = R.from_poly(P)
        for _ in range(6):
            h = R.from_poly(tuple(K.rand(rng) for _ in range(len(P) - 1)))
            if R.is_zero(h):
                h = R.one
            c = R.mul(h, R.pow(Pf, rng.randint(-3, 2)))
            v = valuation_at(R, c, P)
            assert form_conductor(R, DifferentialForm.scalar(R, c), P).result == _level(v, False)
            if isinstance(K, RatFunField):
                du = DifferentialForm(R, 1, {(K.var,): c})
                assert form_conductor(R, du, P).result == _level(v, False)
            # t = theta + s gives dt = ds + d(theta); d(theta) vanishes when P
            # has constant coefficients, and otherwise its du term sets the level
            dt = DifferentialForm(R, 1, {(R.var,): c})
            if any(differential(K, a).coords for a in P):
                assert form_conductor(R, dt, P).result == _level(v, False)
            else:
                assert form_conductor(R, dt, P).result == _level(v, True)


def test_dt_refused_where_theta_has_a_differential(capsys):
    # dt/(t^2-u) = ds/(t^2-u) + du/(2 theta (t^2-u)): the du term has level 2
    argv = ["conductor", "--tag", "Omega(1)", "--field", "F5(u)(t)", "--f", "1/(t^2-u)",
            "--point", "t^2-u"]
    code, body = cli_json(capsys, *argv, "--dlog", "t")
    assert (code, body) == (0, {"characteristic": 5, "result": 2, "tag": "Omega(1)",
                                "witness": {"s": {"level": 1, "valuation": -1},
                                            "u": {"level": 2, "valuation": -1}}})
    # without dt, the form is localized
    code, body = cli_json(capsys, *argv, "--dlog", "u")
    assert (code, body["result"]) == (0, 2)


# ---------------------------------------------------------------------------
# subadditivity precision
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a, point", [("t^12", "t"), ("1/t^9", "inf"), ("t^7", "t-1")])
@pytest.mark.parametrize("field", ["Q(t)", "F7(t)"])
@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("conv", ["sum", "max"])
def test_subadditivity_resolves_high_valuations(field, a, point, e, conv):
    R = cli.parse_field(field)
    P = cli.parse_point(R, point)
    ga, gm = cli.parse_elem(R, a), cli.parse_elem(R, "t+1")
    report = conductor_subadditivity_check(R, [("Ga", ga), ("Gm", gm)], P, conv, e)
    # the oracle: the same push of a deep expansion
    deep = kummer_push_local(localize_form(R, DifferentialForm.scalar(R, ga).wedge(dlog(R, gm)), P, 40), e)
    assert report.evaluated_conductor == conductor_omega(deep, 1).result == 0
    assert report.holds


# ---------------------------------------------------------------------------
# the local parameter and a tower variable named s
# ---------------------------------------------------------------------------


def test_parameter_apart_from_a_tower_variable_s(capsys):
    def answer(var, *dlogs):
        argv = ["conductor", "--tag", f"Omega({len(dlogs)})", "--field", f"Q({var})(t)",
                "--f", "1/t", "--point", "t"]
        for d in dlogs:
            argv += ["--dlog", d]
        return cli_json(capsys, *argv)

    assert answer("w", "w") == (0, {"characteristic": 0, "result": 2, "tag": "Omega(1)",
                                    "witness": {"w": {"level": 2, "valuation": -1}}})
    code, body = answer("s", "s")
    assert (code, body["result"]) == (0, 2)
    assert body["witness"] == {"s": {"level": 2, "valuation": -1}}
    code, body = answer("s", "s", "t")
    assert code == 0
    (key,) = body["witness"]
    assert len(set(key.split("^"))) == 2
    assert body["result"] == answer("w", "w", "t")[1]["result"]

"""Omega(n) conductors on a basis of Omega(log x), at every closed point.

``form_conductor`` writes a form over K(t) on a log basis of the point
(the parameter's differential in place of one dt or du_i) and reads each
level off a valuation in K(t).  The oracle is Saito's criterion for
logarithmic forms (K. Saito, "Theory of logarithmic differential forms and
logarithmic vector fields", 1980): with x cut out by the parameter pi,

* the level is 0 iff the form is regular at x;
* for r >= 1 the level is at most r iff eta = pi^(r-1) * omega is
  logarithmic, that is iff pi * eta and pi * d(eta) are both regular.

Regular means every coefficient on the basis {du_i, dt} (with ds = -dt/t^2
at infinity) has valuation >= 0, so the oracle uses only ``d_form`` and
``valuation_at``.  At rational points and infinity the Laurent route
(``localize_form``) must also give the same profile, witness included;
at a point of degree two it keeps its slot ds where d(theta) = 0 and its
refusals elsewhere.  The Omega path expands nothing and builds no residue
field.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modsym import cli, curve, localfield
from modsym.curve import INF, valuation_at
from modsym.errors import InseparableResiduePoint, UnsupportedField
from modsym.fields import ExtField, QField, RatFunField
from modsym.kahler import DifferentialForm, d_form, dlog
from modsym.localfield import conductor_omega, expand_at, form_conductor, localize_form

FIELD_NAMES = ["F3(u)(t)", "F5(u)(t)", "F7(u)(t)", "Q(u)(t)", "Q(sqrt2)(t)"]
POINTS = ["t^p-u", "t^2-u", "t^3-u*t-u", "t-u", "inf"]


def field(name):
    """(R, u): the field through the CLI, or Q(sqrt2)(t) with u = sqrt 2."""
    if name == "Q(sqrt2)(t)":
        Q = QField()
        K = ExtField(Q, "r", (Q.from_int(-2), Q.zero, Q.one))
        R = RatFunField(K, "t")
        return R, R.lift(K.gen())
    R = cli.parse_field(name)
    return R, cli.parse_elem(R, "u")


def point_of(R, u, text):
    """``inf``, or the monic polynomial over K of the point named by text."""
    if text == "inf":
        return INF
    t = R.from_poly((R.below.zero, R.below.one))
    P = {"t^p-u": R.sub(R.pow(t, R.char), u), "t^2-u": R.sub(R.mul(t, t), u),
         "t^3-u*t-u": R.sub(R.pow(t, 3), R.mul(u, R.add(t, R.one))), "t-u": R.sub(t, u)}[text]
    return P[0]


def uniformizer(R, point):
    t = R.from_poly((R.below.zero, R.below.one))
    return R.inv(t) if point == INF else R.from_poly(point)


def build_form(R, u, point, a_exps, dlogs):
    """a * dlog b_1 ^ ... with a = c * pi^e0 * t^e1 * (t+1)^e2 * (t-u)^e3."""
    t = R.from_poly((R.below.zero, R.below.one))
    pi = uniformizer(R, point)
    a = R.from_int(a_exps[0])
    for base, e in zip([pi, t, R.add(t, R.one), R.sub(t, u)], a_exps[1:]):
        a = R.mul(a, R.pow(base, e))
    bases = {"t": t, "u": u, "t+u": R.add(t, u), "t+1": R.add(t, R.one), "pi": pi,
             "u+t^2": R.add(u, R.mul(t, t)), "pi*(t+1)": R.mul(pi, R.add(t, R.one))}
    form = DifferentialForm.scalar(R, a)
    for b in dlogs:
        form = form.wedge(dlog(R, bases[b]))
    return form


def regular(R, form, point):
    """Every coefficient on {du_i, dt} (ds = -dt/t^2 at inf) is regular."""
    at_inf = 2 if point == INF else 0
    return all(
        valuation_at(R, c, point) >= (at_inf if m[-1:] == (R.var,) else 0)
        for m, c in form.coords.items()
    )


def saito_level(R, form, point):
    if regular(R, form, point):
        return 0
    pi, r = uniformizer(R, point), 1
    while True:
        eta = form.scale(R.pow(pi, r - 1))
        if regular(R, eta.scale(pi), point) and regular(R, d_form(eta).scale(pi), point):
            return r
        r += 1


def resolving(form):
    """A precision past the valuation of each coefficient on the log basis."""
    return 3 + max((len(num) + len(den) for num, den in form.coords.values()), default=0)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(FIELD_NAMES))
    R, u = field(name)
    text = draw(st.sampled_from(POINTS if R.char else POINTS[1:]))
    point = point_of(R, u, text)
    a_exps = [draw(st.integers(1, 4))] + [draw(st.integers(-3, 2)) for _ in range(4)]
    dlogs = draw(st.lists(st.sampled_from(["t", "u", "t+u", "t+1", "pi", "u+t^2", "pi*(t+1)"]),
                          max_size=2, unique=True))
    return R, point, build_form(R, u, point, a_exps, dlogs)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_level_matches_saito_criterion(case):
    R, point, form = case
    prof = form_conductor(R, form, point)
    assert prof.result == saito_level(R, form, point)
    if point == INF or len(point) == 2:
        local = localize_form(R, form, point, prec=resolving(form))
        assert prof.to_json() == conductor_omega(local, form.degree).to_json()


FIXED = [
    (name, text, dlogs)
    for name in FIELD_NAMES
    for text in (POINTS if name.startswith("F") else POINTS[1:])
    for dlogs in (["t"], ["u"], ["t+u"], ["u", "pi*(t+1)"])
]


@pytest.mark.parametrize("name, text, dlogs", FIXED)
def test_omega_path_never_expands(monkeypatch, name, text, dlogs):
    def boom(*args, **kwargs):
        raise AssertionError("form_conductor expanded or built a residue field")

    monkeypatch.setattr(localfield, "expand_at", boom)
    monkeypatch.setattr(localfield, "residue_field", boom)
    monkeypatch.setattr(curve, "residue_field", boom)
    R, u = field(name)
    point = point_of(R, u, text)
    form = build_form(R, u, point, [1, -2, 1, 0, 0], dlogs)
    assert form_conductor(R, form, point).result == saito_level(R, form, point)


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["--json", *argv])
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("field_name, f, b, point, body", [
    # dt = (dP + du) / (2t) at the separable point t^2 - u
    ("F5(u)(t)", "1/(t^2-u)", "t", "t^2-u",
     {"characteristic": 5, "result": 2, "tag": "Omega(1)",
      "witness": {"s": {"level": 1, "valuation": -1}, "u": {"level": 2, "valuation": -1}}}),
    # du = -dP at the inseparable point t^7 - u
    ("F7(u)(t)", "1/(t^7-u)", "u", "t^7-u",
     {"characteristic": 7, "result": 1, "tag": "Omega(1)",
      "witness": {"s": {"level": 1, "valuation": -1}}}),
    ("Q(u)(t)", "1", "t", "t^2-u",
     {"characteristic": 0, "result": 0, "tag": "Omega(1)",
      "witness": {"s": {"level": 0, "valuation": 0}, "u": {"level": 0, "valuation": 0}}}),
    # at an inseparable point dt stays a slot of its own, at level 1 - v
    ("F3(u)(t)", "1/(t^3-u)^2", "t", "t^3-u",
     {"characteristic": 3, "result": 3, "tag": "Omega(1)",
      "witness": {"t": {"level": 3, "valuation": -2}}}),
])
def test_cli_answers_at_points_of_higher_degree(field_name, f, b, point, body):
    assert run("conductor", "--tag", "Omega(1)", "--field", field_name, "--f", f,
               "--dlog", b, "--point", point) == (0, body)


def test_parameter_named_apart_from_a_top_variable_s():
    # over F3(u)(s) at s^3 - u the parameter replaces du, and ds stays a slot
    assert run("conductor", "--tag", "Omega(2)", "--field", "F3(u)(s)", "--f", "1/(s^3-u)",
               "--dlog", "u", "--dlog", "s", "--point", "s^3-u") == (
        0, {"characteristic": 3, "result": 1, "tag": "Omega(2)",
            "witness": {"s'^s": {"level": 1, "valuation": -1}}})


def test_localize_form_at_points_of_degree_two():
    # t = theta + s gives ds = dt where d(theta) = 0, so dt is the slot s
    R, u = field("Q(sqrt2)(t)")
    point = point_of(R, u, "t^2-u")
    form = build_form(R, u, point, [1, -1, 0, 0, 0], ["t"])
    (c,) = form.coords.values()
    local = localize_form(R, form, point, prec=4)
    assert list(local) == [("s",)] and local[("s",)].coeffs == expand_at(R, c, point, 4).coeffs
    assert conductor_omega(local, 1).to_json() == form_conductor(R, form, point).to_json()
    # d(theta) != 0: a form with dt is refused, one without dt is expanded
    R, u = field("F5(u)(t)")
    point = point_of(R, u, "t^2-u")
    with pytest.raises(UnsupportedField):
        localize_form(R, build_form(R, u, point, [1, -1, 0, 0, 0], ["t"]), point, prec=4)
    form = build_form(R, u, point, [1, -1, 0, 0, 0], ["u"])
    (c,) = form.coords.values()
    assert localize_form(R, form, point, prec=4)[("u",)].coeffs == expand_at(R, c, point, 4).coeffs
    # expand_at refuses an inseparable point
    R, u = field("F7(u)(t)")
    point = point_of(R, u, "t^p-u")
    with pytest.raises(InseparableResiduePoint):
        localize_form(R, build_form(R, u, point, [1, -1, 0, 0, 0], ["u"]), point, prec=4)

"""Residues read off one remainder in K[t], and usage errors in JSON.

``residue_form`` takes the traced residue of ``num/den dt`` from a single
remainder in K[t].  At separable points its oracle is the Laurent route:
expand to precision 1 (3 at infinity), read one coefficient, trace it down
with ``trace_norm``.  At inseparable points no expansion exists, and
reciprocity is the check.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modsym import cli, fields, localfield
from modsym.chow import GA, GM, chow_class, higher_cycle_class, zero_cycle
from modsym.curve import INF, residue_field
from modsym.errors import CharacteristicUnsupported, InseparableResiduePoint
from modsym.fields import ExtField, FpField, QField, RatFunField, pmul, ptrim, trace_norm
from modsym.kahler import DifferentialForm, dlog
from modsym.localfield import _irregular_points, expand_at, reciprocity_sum, residue_form


def _fields():
    Q, F7, F3 = QField(), FpField(7), FpField(3)
    F7u, F3u = RatFunField(F7, "u"), RatFunField(F3, "u")
    Qr2 = ExtField(Q, "r", (Q.from_int(-2), Q.zero, Q.one))
    F49 = ExtField(F7, "i", (F7.one, F7.zero, F7.one))
    u = lambda K, *c: K.from_poly(tuple(K.below.from_int(x) for x in c))
    return {
        "Q(t)": [Q.from_int(n) for n in (-2, -1, 1, 3)] + [Fraction(1, 2)],
        "F7(t)": [F7.from_int(n) for n in range(1, 7)],
        "F7(u)(t)": [F7u.one, F7u.from_int(3), u(F7u, 0, 1), u(F7u, 1, 1), u(F7u, 2, 0, 1)],
        "F3(u)(t)": [F3u.one, F3u.from_int(2), u(F3u, 0, 1), u(F3u, 1, 2)],
        "Q(r)(t)": [(Fraction(a), Fraction(b)) for a, b in ((1, 0), (0, 1), (1, 1), (-3, 0))],
        "F49(t)": [(1, 0), (0, 1), (3, 1), (5, 6), (2, 2)],
    }, {"Q(t)": Q, "F7(t)": F7, "F7(u)(t)": F7u, "F3(u)(t)": F3u, "Q(r)(t)": Qr2,
        "F49(t)": F49}


POOLS, BASES = _fields()
ORACLE_FIELDS = ["Q(t)", "F7(t)", "F7(u)(t)", "Q(r)(t)", "F49(t)"]


@st.composite
def polys(draw, name, monic, max_deg):
    """A polynomial in t with coefficients from a small pool (0 included)."""
    K = BASES[name]
    pool = [K.zero] + POOLS[name]
    coeffs = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(0, max_deg)))]
    return ptrim(K, coeffs + [K.one if monic else draw(st.sampled_from(POOLS[name]))])


@st.composite
def curve_funs(draw, name, size, pole=None):
    """num/den in K(t) with den a product of up to two powers (exponent up
    to ``size``) of monic polynomials of degree 1 to ``size``, so repeated
    and higher-degree poles both occur; ``pole`` divides den if given."""
    K = BASES[name]
    num = draw(polys(name, False, 4))
    den = (K.one,)
    for _ in range(draw(st.integers(0, 2))):
        factor = draw(polys(name, True, size).filter(lambda p: len(p) > 1))
        for _ in range(draw(st.integers(1, size))):
            den = pmul(K, den, factor)
    if pole is not None:
        for _ in range(draw(st.integers(1, 2))):
            den = pmul(K, den, pole)
    return RatFunField(K, "t").make(num, den)


@st.composite
def forms(draw, name, size, pole=None):
    """(R, a [dlog b], f) with a carrying the forced pole, if any."""
    R = RatFunField(BASES[name], "t")
    nonzero = curve_funs(name, size).filter(lambda g: not R.is_zero(g))
    a, f = draw(curve_funs(name, size, pole)), draw(nonzero)
    form = DifferentialForm.scalar(R, a)
    if draw(st.booleans()):
        form = form.wedge(dlog(R, draw(nonzero)))
    return R, form, f


def laurent_residue(R, form, point):
    """Res_x by expansion: one Laurent coefficient, traced with ``trace_norm``."""
    K = R.below
    Kx = K if point == INF or len(point) == 2 else residue_field(R, point)
    out = DifferentialForm.zero(K, form.degree - 1)
    for m, c in form.coords.items():
        if R.var not in m:
            continue
        pos = m.index(R.var)
        rest = tuple(v for v in m if v != R.var)
        lau = expand_at(R, c, point, prec=3 if point == INF else 1)
        # dt = -s^{-2} ds at infinity (s = 1/t), dt = ds at t = theta + s
        r = Kx.neg(lau.coeff(1)) if point == INF else lau.coeff(-1)
        if (len(m) - 1 - pos) % 2:
            r = Kx.neg(r)
        tr = r if Kx == K else trace_norm(Kx, r)[0]
        out = out + DifferentialForm(K, len(rest), {rest: tr})
    return out


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("name", ORACLE_FIELDS)
@given(data=st.data())
def test_residue_matches_laurent_route(name, data):
    R, form, f = data.draw(forms(name, 3))
    omega = form.wedge(dlog(R, f))
    # poles have degree <= 3 < p, so every point is separable
    for point in _irregular_points(R, omega):
        assert residue_form(R, omega, point) == laurent_residue(R, omega, point), point


def _inseparable(name, c):
    """The point t^p - c over F_p(u)."""
    K = BASES[name]
    return (K.neg(c),) + (K.zero,) * (K.char - 1) + (K.one,)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("name, shifts", [("F7(u)(t)", range(7)), ("F3(u)(t)", [0])])
@given(data=st.data())
def test_reciprocity_with_inseparable_poles(name, shifts, data):
    K = BASES[name]
    u = K.from_poly((K.below.zero, K.below.one))
    point = _inseparable(name, K.add(u, K.from_int(data.draw(st.sampled_from(shifts)))))
    R, form, f = data.draw(forms(name, 2, pole=point))
    with pytest.raises(InseparableResiduePoint):
        expand_at(R, R.one, point, prec=1)
    assert reciprocity_sum(R, form, f).is_zero()


def test_inseparable_residue_is_not_always_zero():
    # 1/(t^7 - u) dlog t = dt / (t (t^7 - u)): residue 1/u at t^7 - u, -1/u at t
    K = BASES["F7(u)(t)"]
    R = RatFunField(K, "t")
    u = K.from_poly((K.below.zero, K.below.one))
    P = _inseparable("F7(u)(t)", u)
    a = DifferentialForm.scalar(R, R.make((K.one,), P))
    t = R.make((K.zero, K.one), (K.one,))
    omega = a.wedge(dlog(R, t))
    assert residue_form(R, omega, P) == DifferentialForm.scalar(K, K.inv(u))
    assert residue_form(R, omega, (K.zero, K.one)) == DifferentialForm.scalar(K, K.neg(K.inv(u)))
    assert reciprocity_sum(R, a, t).is_zero()
    # 1/(t^7 - u)^2 dlog t: t^-1 = 2t^6/u - t^13/u^2 mod (t^7 - u)^2
    a2 = DifferentialForm.scalar(R, R.make((K.one,), pmul(K, P, P)))
    omega2 = a2.wedge(dlog(R, t))
    assert residue_form(R, omega2, P) == DifferentialForm.scalar(K, K.neg(K.inv(K.mul(u, u))))
    assert reciprocity_sum(R, a2, t).is_zero()


def test_residue_form_needs_no_expansion(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("residue_form expanded or built a residue field")

    monkeypatch.setattr(localfield, "expand_at", boom)
    monkeypatch.setattr(localfield, "residue_field", boom)
    monkeypatch.setattr(fields, "trace_norm", boom)
    monkeypatch.setattr(ExtField, "__init__", boom)
    Q = QField()
    R = RatFunField(Q, "t")
    # t/(t^2+1) dt: residue 1/2 at each of t = i, -i, so the trace is 1
    form = DifferentialForm(R, 1, {("t",): R.make((Q.zero, Q.one), (Q.one, Q.zero, Q.one))})
    assert residue_form(R, form, (Q.one, Q.zero, Q.one)) == DifferentialForm.scalar(Q, Q.one)
    assert residue_form(R, form, INF) == DifferentialForm.scalar(Q, -Q.one)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize(
    "a, body",
    [
        ("u", {"residue": []}),
        ("1/(t^7-u)", {"residue": [{"basis_monomial": [],
                                    "coeff": {"den": ["0", "1"], "num": ["1"]}}]}),
    ],
)
def test_cli_residue_at_an_inseparable_point(a, body):
    argv = ["--json", "residue", "--field", "F7(u)(t)", "--a", a, "--f", "t", "--point", "t^7-u"]
    code, out = run(argv)
    assert (code, json.loads(out)) == (0, body)


@pytest.mark.parametrize(
    "argv",
    [
        ["--json", "bogus"],
        ["--json", "eval", "--map", "nope", "--field", "Q"],
        ["--json", "--precision", "5", "probe", "(s^2,s^3)"],
        ["--json"],
        ["--json", "residue", "--field", "Q(t)"],
    ],
)
def test_usage_errors_exit_1_with_json(argv):
    code, out = run(argv)
    assert code == 1
    assert json.loads(out)["error"] == "validation"
    assert "\n" == out[-1] and out.count("\n") == 1


def test_usage_error_without_json_flag_is_indented_json():
    code, out = run(["bogus"])
    assert code == 1 and json.loads(out)["error"] == "validation" and out.count("\n") > 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--help"])
    assert e.value.code == 0
    assert "usage: modsym" in capsys.readouterr().out


def test_chow_and_higher_class_guards_share_one_wording():
    K = RatFunField(FpField(3), "u")
    t = K.from_poly((K.below.zero, K.below.one))
    z = zero_cycle(K, (GA, GM), [(K, (K.one, t), 1)])
    msg = "characteristic 3 outside theorem hypotheses [2, 3, 5]"
    with pytest.raises(CharacteristicUnsupported, match=msg.replace("[", r"\[")):
        chow_class(z)
    with pytest.raises(CharacteristicUnsupported, match=msg.replace("[", r"\[")):
        higher_cycle_class(K, K.one, [t])
    K2 = RatFunField(FpField(2), "u")
    z2 = zero_cycle(K2, (GA, GA), [(K2, (K2.one, K2.from_poly((0, 1))), 1)])
    with pytest.raises(CharacteristicUnsupported, match=r"outside theorem hypotheses \[2\]"):
        chow_class(z2)

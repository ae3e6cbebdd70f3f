"""Worked end-to-end examples exercising every evaluation route.

Each fixture builds an explicit curve relation (or identity) whose expected
outcome is known on paper, and reports named boolean checks.  They double as
the CLI's ``fixtures`` suite and as acceptance anchors.
"""

from .curve import INF, Divisor
from .errors import ConductorCertificateFailure
from .fields import ExtField, FpField, QField, RatFunField, pmul
from .kahler import jet_from_tensor, trace_jet
from .symcalc import eval_jet, eval_milnor, eval_omega, make_relation


def _poly_from_roots(K, roots, extra=()):
    """Monic polynomial with the given roots times the extra monic factors."""
    p = (K.one,)
    for r in roots:
        p = pmul(K, p, (K.neg(r), K.one))
    for q in extra:
        p = pmul(K, p, q)
    return p


# ---------------------------------------------------------------------------
# (a) Steinberg vanishing via the sextic relation, Milnor data route
# ---------------------------------------------------------------------------


def fixture_milnor():
    """{a, 1-a, b} torsion: the sextic function is 1 mod (0)+(1)+2(inf) and
    its relation evaluates to zero Milnor data (dlog and tame)."""
    F7 = FpField(7)
    # x^6 - 3 is irreducible over F_7; c generates a degree-6 extension with
    # c^6 = 3 =: a and mu = c^3 of multiplicative order 12
    K0 = ExtField(F7, "c", tuple(F7.from_int(v) for v in (-3, 0, 0, 0, 0, 0, 1)))
    K = RatFunField(K0, "u")
    R = RatFunField(K, "t")
    a0 = K0.lift(F7.from_int(3))
    a = K.lift(a0)
    b = K.from_poly((K0.zero, K0.one))  # the transcendental u
    one = K.one

    # f = (t^6 - a) / (t^6 - (a+1)t^4 + (a+1)t^2 - a)
    ap1 = K.add(a, one)
    num = (K.neg(a), K.zero, K.zero, K.zero, K.zero, K.zero, one)
    den = (K.neg(a), K.zero, ap1, K.zero, K.neg(ap1), K.zero, one)
    f = R.make(num, den)

    t = R.from_poly((K.zero, K.one))
    zero_pt = (K.zero, K.one)
    one_pt = (K.neg(K.one), K.one)
    sections = [
        ("Gm", t, Divisor(R, {zero_pt: 1, INF: 1})),
        ("Gm", R.sub(R.one, t), Divisor(R, {one_pt: 1, INF: 1})),
        ("Gm", R.lift(b), Divisor(R)),
    ]
    rel = make_relation(R, K, f, sections)
    u_adic = (K0.zero, K0.one)  # a place of the coefficient field K, not of R
    data = eval_milnor(rel.symbol_sum, valuation_point=u_adic)
    tame_zero = all(
        t_data["value"] == 0 and t_data.get("residue_field_finite", True)
        for _, t_data in data["tame"]
    )
    return {
        "name": "milnor",
        "checks": {
            "congruence": True,  # enforced by make_relation
            "dlog_vanishes": data["dlog"].is_zero(),
            "tame_trivial": tame_zero,
            "term_count": len(rel.symbol_sum.terms) > 0,
        },
    }


# ---------------------------------------------------------------------------
# (b) jet relation: the six-factor function kills the second-power generators
# ---------------------------------------------------------------------------


def _jet_fixture_over(K, a, b, c):
    R = RatFunField(K, "t")
    half = K.inv(K.from_int(2))
    ab = K.mul(a, b)

    def sq(x):
        return K.mul(x, x)

    r_num = [K.mul(a, half), b, K.add(K.one, K.mul(ab, half))]
    r_den = [K.one, K.mul(ab, half), K.add(K.mul(a, half), b)]
    num = _poly_from_roots(K, [], extra=[(K.neg(sq(r)), K.zero, K.one) for r in r_num])
    den = _poly_from_roots(K, [], extra=[(K.neg(sq(r)), K.zero, K.one) for r in r_den])
    f = R.make(num, den)

    t = R.from_poly((K.zero, K.one))
    D = Divisor(R, {INF: 2})
    rel = make_relation(R, K, f, [("Ga", R.mul(R.lift(c), t), D), ("Ga", t, D)])
    relation_jet = eval_jet(rel.symbol_sum)

    target = (
        jet_from_tensor(K, c, ab)
        + jet_from_tensor(K, K.mul(c, ab), K.one)
        - jet_from_tensor(K, K.mul(c, a), b)
        - jet_from_tensor(K, K.mul(c, b), a)
    )
    return relation_jet.is_zero(), target.is_zero()


def fixture_jet_product():
    Q = QField()
    rq = _jet_fixture_over(Q, Q.from_int(2), Q.from_int(3), Q.from_int(5))
    F7 = FpField(7)
    rf = _jet_fixture_over(F7, F7.from_int(4), F7.from_int(3), F7.from_int(2))
    return {
        "name": "jet-product",
        "checks": {
            "relation_jet_zero_char0": rq[0],
            "target_jet_zero_char0": rq[1],
            "relation_jet_zero_char7": rf[0],
            "target_jet_zero_char7": rf[1],
        },
    }


# ---------------------------------------------------------------------------
# (c) form relation: quintic function, Ga x Gm section pair
# ---------------------------------------------------------------------------


def _form_fixture_over(K, a, c):
    R = RatFunField(K, "t")
    one = K.one
    one_minus_a = K.sub(one, a)
    disc = K.add(K.sub(K.mul(a, a), a), one)  # a^2 - a + 1
    num = _poly_from_roots(
        K,
        [a, one_minus_a, K.neg(one)],
        extra=[(disc, K.zero, K.one)],
    )
    den = (K.mul(K.mul(a, one_minus_a), disc), K.zero, K.zero, K.zero, K.zero, one)
    f = R.make(num, den)

    t = R.from_poly((K.zero, K.one))
    zero_pt = (K.zero, K.one)
    rel = make_relation(
        R,
        K,
        f,
        [
            ("Ga", R.mul(R.lift(c), t), Divisor(R, {INF: 2})),
            ("Gm", t, Divisor(R, {zero_pt: 1, INF: 1})),
        ],
    )
    form = eval_omega(rel.symbol_sum)
    return form.is_zero()


def fixture_form_product():
    Q = QField()
    ok_q = _form_fixture_over(Q, Q.from_int(2), Q.one)
    Kw = RatFunField(Q, "w")
    w = Kw.from_poly((Q.zero, Q.one))
    ok_w = _form_fixture_over(Kw, w, Kw.from_int(3))
    return {
        "name": "form-product",
        "checks": {"relation_form_zero_Q": ok_q, "relation_form_zero_Qw": ok_w},
    }


# ---------------------------------------------------------------------------
# (d) inseparable jet trace identity
# ---------------------------------------------------------------------------


def fixture_insep_trace():
    """Tr([a x^{p-1}, x]) - [a, y] + [a y, 1] = 0 over F_3(y)[x]/(x^3 - y)."""
    F3 = FpField(3)
    K = RatFunField(F3, "y")
    y = K.from_poly((F3.zero, F3.one))
    L = ExtField(K, "x", (K.neg(y), K.zero, K.zero, K.one))
    x = L.gen()
    checks = {}
    for label, a in (("a=y", y), ("a=1/y", K.inv(y)), ("a=y+1", K.add(y, K.one))):
        ax2 = L.mul(L.lift(a), L.mul(x, x))
        lhs = trace_jet(L, jet_from_tensor(L, ax2, x))
        lhs = lhs - jet_from_tensor(K, a, y) + jet_from_tensor(K, K.mul(a, y), K.one)
        checks[label] = lhs.is_zero()
    return {"name": "insep-trace", "checks": checks}


# ---------------------------------------------------------------------------
# (e) char-p collapse witness
# ---------------------------------------------------------------------------


def _collapse_over(p):
    F = FpField(p)
    R = RatFunField(F, "t")
    t = R.from_poly((F.zero, F.one))
    a = F.from_int(2)
    # f = (t^{p+1} - 1)/t^{p+1}, sections a*t and t^p at declared level 2(inf)
    num = tuple([F.neg(F.one)] + [F.zero] * p + [F.one])
    den = tuple([F.zero] * (p + 1) + [F.one])
    f = R.make(num, den)
    D = Divisor(R, {INF: 2})
    tp = R.from_poly(tuple([F.zero] * p + [F.one]))
    rel = make_relation(R, F, f, [("Ga", R.mul(R.lift(a), t), D), ("Ga", tp, D)])
    jet = eval_jet(rel.symbol_sum)
    direct = jet_from_tensor(F, a, F.one)  # [a, 1] = (0, a)
    return jet == direct and jet.omega.is_zero() and jet.scalar == a


def fixture_char_p_collapse():
    checks = {}
    for p in (3, 5):
        checks[f"accepted_and_jet_0_a_char{p}"] = _collapse_over(p)
    # over the rationals the p-th power section overshoots the declared level
    Q = QField()
    R = RatFunField(Q, "t")
    p = 3
    num = tuple([Q.neg(Q.one)] + [Q.zero] * p + [Q.one])
    den = tuple([Q.zero] * (p + 1) + [Q.one])
    f = R.make(num, den)
    t = R.from_poly((Q.zero, Q.one))
    tp = R.from_poly(tuple([Q.zero] * p + [Q.one]))
    D = Divisor(R, {INF: 2})
    try:
        make_relation(R, Q, f, [("Ga", t, D), ("Ga", tp, D)])
        rejected = False
    except ConductorCertificateFailure:
        rejected = True
    checks["rejected_char0"] = rejected
    return {"name": "char-p-collapse", "checks": checks}


FIXTURES = {
    "milnor": fixture_milnor,
    "jet-product": fixture_jet_product,
    "form-product": fixture_form_product,
    "insep-trace": fixture_insep_trace,
    "char-p-collapse": fixture_char_p_collapse,
}


def run_fixtures(names=None):
    out = []
    for name in names or FIXTURES:
        res = FIXTURES[name]()
        res["passed"] = all(res["checks"].values())
        out.append(res)
    return out

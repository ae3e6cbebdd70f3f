"""Reachable branches that the rest of the suite does not run.

Each test names the branch it reaches; the expected values are worked out
by hand in its comments.
"""

from fractions import Fraction

import pytest

from modsym.curve import INF, evaluate_at
from modsym.errors import InsufficientPrecision
from modsym.factor import factor
from modsym.fields import ExtField, FpField, QField, RatFunField, pmul
from modsym.kahler import differential, trace_form
from modsym.localfield import Laurent, conductor
from modsym.symcalc import SymbolTerm, eval_milnor, r1_reduce, symbol


def _product(K, polys):
    out = (K.one,)
    for q in polys:
        out = pmul(K, out, q)
    return out


# -- factor._edf: the characteristic-2 trace split, degree d >= 2 -------------

F2 = FpField(2)
F4 = ExtField(F2, "w", (1, 1, 1))  # w^2 = w + 1
W = F4.gen()
W2 = F4.mul(W, W)


@pytest.mark.parametrize(
    "K, irreducibles",
    [
        (F2, [(1, 1, 0, 1), (1, 0, 1, 1)]),  # x^3+x+1, x^3+x^2+1
        (F2, [(1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1)]),  # degree 4
        # x^2+x+c splits over F4 iff Tr(c) = c + c^2 = 0; Tr(w) = Tr(w^2) = 1
        (F4, [(W, F4.one, F4.one), (W2, F4.one, F4.one)]),
    ],
)
def test_equal_degree_split_in_characteristic_two(K, irreducibles):
    f = _product(K, irreducibles)
    lead, factors = factor(K, f)
    assert K.is_one(lead)
    assert sorted(q for q, m in factors if m == 1) == sorted(irreducibles)
    assert len(factors) == len(irreducibles)
    assert _product(K, [q for q, _ in factors]) == f


# -- kahler._d: inseparable elimination with a second variable ----------------


def test_inseparable_step_eliminates_one_of_two_variables():
    # over F3(u)(v)[x]/(x^3 - (u+v)): d(u+v) = 0 eliminates dv = -du
    F3 = FpField(3)
    Ku = RatFunField(F3, "u")
    Kv = RatFunField(Ku, "v")
    u = Kv.lift(Ku.from_poly((0, 1)))
    v = Kv.from_poly((Ku.zero, Ku.one))
    y = Kv.add(u, v)
    L = ExtField(Kv, "x", (Kv.neg(y), Kv.zero, Kv.zero, Kv.one))
    du = differential(L, L.lift(u))
    assert not du.is_zero()
    assert differential(L, L.lift(v)) == -du
    assert differential(L, L.lift(y)).is_zero()


# -- kahler.trace_form: the sign of dx moved past the other slots -------------


def test_trace_form_projection_formula_at_inseparable_step():
    # over F3(u)(y)[x]/(x^3 - y): Tr(x^2 dx ^ du) = Tr(x^2 dx) ^ du = dy ^ du
    F3 = FpField(3)
    Ku = RatFunField(F3, "u")
    K = RatFunField(Ku, "y")
    u = K.lift(Ku.from_poly((0, 1)))
    y = K.from_poly((Ku.zero, Ku.one))
    L = ExtField(K, "x", (K.neg(y), K.zero, K.zero, K.one))
    x = L.gen()
    x2dx = differential(L, x).scale(L.mul(x, x))
    lhs = trace_form(L, x2dx.wedge(differential(L, L.lift(u))))
    rhs = trace_form(L, x2dx).wedge(differential(K, u))
    assert lhs == rhs
    assert lhs == differential(K, y).wedge(differential(K, u))
    assert not lhs.is_zero()


# -- symcalc: the projection formula when every slot comes from below ---------


def test_r1_reduce_with_every_slot_from_below():
    # [3, 2] over F49/F7 with tags (Ga, Gm): the Ga slot is traced, 2*3 = 6
    F7 = FpField(7)
    F49 = ExtField(F7, "a", (4, 0, 1))  # a^2 = 3
    s = symbol(F7, 1, F49, ("Ga", "Gm"), (F49.lift(3), F49.lift(2)))
    assert r1_reduce(s).terms == (SymbolTerm(1, F7, ("Ga", "Gm"), (6, 2)),)


def test_norm_push_down_a_tower_of_height_two():
    # {5, 1+sqrt3} over Q(sqrt2, sqrt3)/Q: N(1+sqrt3) = -2 over Q(sqrt2),
    # then 5 is the slot pushed: N(5) = 25 over Q
    Q = QField()
    Qa = ExtField(Q, "a", (Fraction(-2), Fraction(0), Fraction(1)))
    Qab = ExtField(Qa, "b", (Qa.from_int(-3), Qa.zero, Qa.one))
    s = symbol(Q, 1, Qab, ("Gm", "Gm"), (Qab.from_int(5), Qab.make((Qa.one, Qa.one))))
    assert eval_milnor(s)["norm_pushed"] == [(1, [25, -2])]


# -- curve.evaluate_at: a zero at infinity -------------------------------------


def test_evaluate_at_infinity_of_a_function_vanishing_there():
    Q = QField()
    R = RatFunField(Q, "t")
    t = R.from_poly((Q.zero, Q.one))
    assert evaluate_at(R, R.inv(t), INF) == 0


# -- localfield.conductor: Omega on a Laurent series and on a form ------------


def test_omega_conductor_of_a_series_and_of_a_local_form():
    Q = QField()
    lau = Laurent(Q, "s", -2, [Q.one])
    # s^-2 without ds: level 1 - v = 3; s^-2 ds = s^-1 dlog s: level 2
    assert conductor("Omega(1)", lau).result == 3
    prof = conductor("Omega(1)", {("s",): lau})
    assert (prof.tag, prof.result) == ("Omega(1)", 2)


# -- localfield.Laurent: sums of exact and truncated series -------------------


def test_laurent_sum_of_exact_and_truncated_operands():
    Q = QField()
    exact = Laurent(Q, "s", 0, [Q.one, Q.from_int(2)])  # 1 + 2s
    cut = Laurent(Q, "s", -1, [Q.one], prec=1)  # s^-1 + O(s)
    for total in (exact + cut, cut + exact):
        assert total.prec == 1
        assert (total.lead, total.coeffs) == (-1, (1, 1))
        with pytest.raises(InsufficientPrecision):
            total.coeff(1)
    # two truncated operands: the smaller precision holds
    total = cut + Laurent(Q, "s", 0, [Q.one, Q.one, Q.one], prec=3)
    assert (total.lead, total.coeffs, total.prec) == (-1, (1, 1), 1)

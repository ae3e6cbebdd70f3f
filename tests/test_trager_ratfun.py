"""Trager's norm over algebraic steps on rational-function fields.

``_ext_factor`` takes the norm Res_x(m, f(t + s*x)) by one subresultant PRS
over K[t], with K = F(u).  ``tests/test_factor.py::test_ext_over_ratfun``
covers Q(w)[r]/(r^2 - w) through ``factor``; here ``_ext_factor`` itself
splits products of known irreducible factors over F7(u)[x]/(x^2 - u) and
Q(u)[x]/(x^3 - u).
"""

import pytest

from modsym.factor import _ext_factor
from modsym.fields import ExtField, FpField, QField, RatFunField, pmul


def _step(base, deg):
    """L = K[x]/(x^deg - u) over K = base(u), with x and u in L."""
    K = RatFunField(base, "u")
    u = K.from_poly((base.zero, base.one))
    L = ExtField(K, "x", (K.neg(u),) + (K.zero,) * (deg - 1) + (K.one,))
    return L, L.gen(), L.lift(u)


def _factors_F7u():
    L, x, u = _step(FpField(7), 2)
    one = L.one
    return L, [
        (L.neg(x), one),  # t - x
        (L.add(x, one), one),  # t + x + 1
        (L.neg(x), L.zero, one),  # t^2 - x: x = sqrt(u) is no square in L
        (L.neg(u), L.zero, L.zero, one),  # t^3 - u: u has no cube root in L
    ]


def _factors_Qu():
    L, x, u = _step(QField(), 3)
    one = L.one
    return L, [
        (L.neg(x), one),  # t - x
        (L.mul(x, x), x, one),  # t^2 + x t + x^2: t^3 - u over (t - x)
        (L.from_int(1), one),  # t + 1
        (L.neg(x), L.zero, one),  # t^2 - x
    ]


def _product(L, polys):
    out = (L.one,)
    for g in polys:
        out = pmul(L, out, g)
    return out


# Products of the first ``count`` known factors.  Over Q(u) a product of
# degree 5 or more takes over a minute to factor its norm, so it stops at 3.
PRODUCTS = [(_factors_F7u, n) for n in (2, 3, 4)] + [(_factors_Qu, n) for n in (2, 3)]


@pytest.mark.parametrize(
    "case, count", PRODUCTS, ids=[f"{c.__name__[9:]}-{n}" for c, n in PRODUCTS]
)
def test_ext_factor_over_ratfun_returns_the_known_factors(case, count):
    L, known = case()
    chosen = known[:count]
    assert sorted(_ext_factor(L, _product(L, chosen))) == sorted(chosen)


@pytest.mark.parametrize("case", [_factors_F7u, _factors_Qu], ids=["F7(u)[x]", "Q(u)[x]"])
def test_ext_factor_keeps_an_irreducible_whole(case):
    L, known = case()
    for g in known:
        assert _ext_factor(L, g) == [g]

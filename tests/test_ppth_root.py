"""``fields.ppth_root``, the one p-th root of a polynomial.

It serves ``RatFunField.pth_root`` (numerator and denominator) and the
inseparable branch of ``factor``, where f = q(t^p) either has a p-th root
or keeps q(t^p) as an irreducible factor.
"""

import random

import pytest

from modsym.errors import UnsupportedField
from modsym.factor import factor
from modsym.fields import ExtField, FpField, RatFunField, make_field, pmul, ppth_root

from conftest import rand_poly

F7 = FpField(7)
F49 = ExtField(F7, "i", (1, 0, 1))
F7u = RatFunField(F7, "u")
U = F7u.make((0, 1), (1,))


def ppow(K, b, n):
    out = (K.one,)
    for _ in range(n):
        out = pmul(K, out, b)
    return out


@pytest.mark.parametrize("K", [F7, F49, F7u], ids=["F7", "F49", "F7(u)"])
def test_root_of_a_pth_power(K):
    rng = random.Random(24)
    for deg in range(4):
        b = rand_poly(K, rng, deg, nonzero=True)
        assert ppth_root(K, ppow(K, b, 7)) == b
    assert ppth_root(K, ()) == ()


def test_no_root():
    assert ppth_root(F7, (0, 1)) is None  # t: a term off the multiples of 7
    ut7 = (F7u.zero,) * 7 + (U,)  # u*t^7: u has no 7th root in F7(u)
    assert ppth_root(F7u, ut7) is None
    F7ut = RatFunField(F7u, "t")
    assert F7ut.pth_root(F7ut.make(ut7, (F7u.one,))) is None


def test_ratfun_pth_root():
    u_over_u1 = F7u.div(U, F7u.make((1, 1), (1,)))
    assert F7u.pth_root(F7u.pow(u_over_u1, 7)) == u_over_u1
    assert F7u.pth_root(U) is None


def test_factor_inseparable_over_F7u():
    t7_u = (F7u.neg(U),) + (F7u.zero,) * 6 + (F7u.one,)
    assert factor(F7u, t7_u) == (F7u.one, [(t7_u, 1)])
    assert factor(F7u, pmul(F7u, t7_u, t7_u)) == (F7u.one, [(t7_u, 2)])
    t7_u7 = (F7u.neg(F7u.pow(U, 7)),) + (F7u.zero,) * 6 + (F7u.one,)
    assert factor(F7u, t7_u7) == (F7u.one, [((F7u.neg(U), F7u.one), 7)])


def _over_F7u(step):
    return make_field({"base": "Fp", "p": 7, "steps": [{"ratfun": "u"}, step]})


def test_infinite_extensions_refuse_pth_roots():
    """Over F7(u)[x]/(x^2 - u) and F7(u)[y]/(y^7 - u) a root is refused, also
    where a term off the multiples of p would answer None further on."""
    minus_u = {"num": ["0", "-1"], "den": ["1"]}
    L = _over_F7u({"simple": {"var": "x", "min_poly": [minus_u, 0, 1]}})
    M = _over_F7u({"insep_root": {"var": "y", "y": {"num": ["0", "1"], "den": ["1"]}}})
    Lt = RatFunField(L, "t")
    for a in [(L.one, L.one), (L.zero, L.one)]:  # 1 + t, t
        with pytest.raises(UnsupportedField, match="^p-th roots in infinite extension fields$"):
            Lt.pth_root(Lt.make(a, (L.one,)))
    for K, msg in [(L, "extension fields"), (M, "inseparable extensions")]:
        t7_x = (K.neg(K.gen()),) + (K.zero,) * 6 + (K.one,)
        with pytest.raises(UnsupportedField, match=f"^p-th roots in infinite {msg}$"):
            factor(K, t7_x)

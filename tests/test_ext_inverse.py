"""``ExtField.inv`` in closed form on elements of degree at most 1.

A constant c inverts as ``lift(K.inv(c))``; a linear c1*(x - r) as
``-q / (c1*m(r))``, where ``m = (x - r)*q + m(r)`` is one synthetic division
of the minimal polynomial.  Every longer element runs ``pinv_mod``, the
oracle here: ``make(pinv_mod(K, a, m))``.  Zero, and a linear element
whose root is a root of a reducible modulus, raise ZeroDivisionInField on
both routes.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.errors import ZeroDivisionInField
from modsym.fields import ExtField, FpField, QField, RatFunField, pinv_mod, ptrim

Q = QField()
F7 = FpField(7)
F7U = RatFunField(F7, "u")
SQRT2 = ExtField(Q, "a", (Fraction(-2), Fraction(0), Fraction(1)))
SQRT2_SQRT3 = ExtField(SQRT2, "b", (SQRT2.from_int(-3), SQRT2.zero, SQRT2.one))
F343 = ExtField(F7, "x", (4, 0, 0, 1))  # x^3 - 3, irreducible: 343 elements
U = F7U.from_poly((0, 1))


def _ext(K, *m):
    return ExtField(K, "z", tuple(K.from_int(c) if isinstance(c, int) else c for c in m))


# One extension per field below, each with no Zech table
FIELDS = {
    "Q[z]/(z^3-2)": _ext(Q, -2, 0, 0, 1),
    "Q(sqrt2)[z]/(z^3-2)": _ext(SQRT2, -2, 0, 0, 1),
    "F7[x]/(x^3-3)": F343,
    "F343[z]/(z^2-x)": _ext(F343, F343.neg(F343.gen()), 0, 1),
    "F(2^61-1)[z]/(z^3+z+5)": _ext(FpField(2**61 - 1), 5, 1, 0, 1),
    "F7(u)[z]/(z^3-u)": _ext(F7U, F7U.neg(U), 0, 0, 1),
    "Q(sqrt2,sqrt3)[z]/(z^2-z-b)": _ext(SQRT2_SQRT3, SQRT2_SQRT3.neg(SQRT2_SQRT3.gen()), -1, 1),
}


def _oracle(L, a):
    return L.make(pinv_mod(L.below, ptrim(L.below, a), L.minpoly))


@st.composite
def cases(draw):
    L = FIELDS[draw(st.sampled_from(sorted(FIELDS)), label="field")]
    K = L.below
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    length = draw(st.sampled_from([1, 2, 2, L.deg]), label="length")
    a = [K.rand(rng) for _ in range(length)]
    if K.is_zero(a[-1]):
        a[-1] = K.one
    return L, tuple(a) + (K.zero,) * (L.deg - length)


@given(cases())
@settings(max_examples=150, deadline=None)
def test_inverse_matches_pinv_mod(case):
    L, a = case
    inv = L.inv(a)
    assert inv == _oracle(L, a)
    assert L.mul(a, inv) == L.one


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_constant_and_generator(name):
    L = FIELDS[name]
    K = L.below
    two = L.from_int(2)
    assert L.inv(two) == L.lift(K.inv(K.from_int(2))) == _oracle(L, two)
    x = L.gen()
    assert L.inv(x) == _oracle(L, x)
    assert L.mul(x, L.inv(x)) == L.one


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_zero_raises(name):
    L = FIELDS[name]
    with pytest.raises(ZeroDivisionInField):
        L.inv(L.zero)


# (x - 2)(x^2 + 1) over Q, (x - 3)(x^2 + 1) over F7 and (x - u)(x^2 + u) over
# F7(u), each with the linear element 5*(x - root)
REDUCIBLE = {
    "Q": (_ext(Q, -2, 1, -2, 1), Q.from_int(2)),
    "F7": (_ext(F7, 4, 1, 4, 1), 3),
    "F7(u)": (_ext(F7U, F7U.neg(F7U.mul(U, U)), U, F7U.neg(U), 1), U),
}


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_a_root_of_a_reducible_modulus_raises(name):
    L, r = REDUCIBLE[name]
    K = L.below
    five = K.from_int(5)
    a = (K.neg(K.mul(five, r)), five) + (K.zero,) * (L.deg - 2)
    with pytest.raises(ZeroDivisionInField):
        L.inv(a)
    with pytest.raises(ZeroDivisionInField):
        _oracle(L, a)
    # a linear element whose root is not a root of the modulus inverts
    b = (K.add(a[0], K.one),) + a[1:]
    assert L.mul(b, L.inv(b)) == L.one
    assert L.inv(b) == _oracle(L, b)

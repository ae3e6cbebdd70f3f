"""Horner composition and power-series inversion, the shared ``p*`` primitives.

``pcompose`` serves the Taylor shifts of the Laurent expansions and of the
bivariate factor route; ``pinv_series`` serves ``Laurent.inv`` and the
Hensel series ring.  Checked over F7, Q, F49 and F7(u) against evaluation,
the binomial expansion and multiplication.
"""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.errors import InsufficientPrecision, ZeroDivisionInField
from modsym.factor import _SeriesRing
from modsym.fields import (
    ExtField,
    FpField,
    QField,
    RatFunField,
    padd,
    pcompose,
    peval,
    pinv_series,
    pmul,
    ptrim,
)
from modsym.localfield import Laurent

F7 = FpField(7)
FIELDS = {
    "F7": F7,
    "Q": QField(),
    "F49": ExtField(F7, "i", (1, 0, 1)),  # x^2 + 1: -1 is not a square mod 7
    "F7(u)": RatFunField(F7, "u"),
}
fields = st.sampled_from(sorted(FIELDS)).map(FIELDS.get)
rngs = st.integers(0, 2**32).map(random.Random)


def rand_poly(K, rng, max_len):
    return ptrim(K, [K.rand(rng) for _ in range(rng.randint(0, max_len))])


def rand_unit(K, rng):
    while True:
        c = K.rand(rng)
        if not K.is_zero(c):
            return c


@given(fields, rngs)
@settings(max_examples=60, deadline=None)
def test_compose_evaluates(K, rng):
    f, g = rand_poly(K, rng, 5), rand_poly(K, rng, 4)
    x = K.rand(rng)
    assert peval(K, pcompose(K, f, g), x) == peval(K, f, peval(K, g, x))


@given(fields, rngs)
@settings(max_examples=60, deadline=None)
def test_taylor_shift_is_binomial(K, rng):
    f, c = rand_poly(K, rng, 6), K.rand(rng)
    # coefficient k of f(c + s) is sum over i >= k of C(i, k) f_i c^(i - k)
    direct = ()
    for i, fi in enumerate(f):
        terms = [K.mul(K.from_int(comb(i, k)), K.mul(fi, K.pow(c, i - k))) for k in range(i + 1)]
        direct = padd(K, direct, ptrim(K, terms))
    assert pcompose(K, f, (c, K.one)) == direct


@given(fields, rngs, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_series_inverse(K, rng, n):
    a = (rand_unit(K, rng),) + tuple(K.rand(rng) for _ in range(rng.randint(0, 5)))
    inv = pinv_series(K, a, n)
    assert len(inv) == n
    prod = pmul(K, a, ptrim(K, inv))
    assert list(prod[:n]) + [K.zero] * (n - len(prod)) == [K.one] + [K.zero] * (n - 1)


def test_laurent_inverse_errors():
    with pytest.raises(ZeroDivisionInField):
        Laurent(F7, "s", 0, []).inv(4)
    with pytest.raises(InsufficientPrecision):
        Laurent(F7, "s", 0, [], prec=3).inv(4)


@pytest.mark.parametrize("a", [(), (0, 1), (0, 0, 3)])
def test_series_ring_inverse_errors(a):
    with pytest.raises(ZeroDivisionError):
        _SeriesRing(F7, 4).inv(a)

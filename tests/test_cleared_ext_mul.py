"""``ExtField`` arithmetic over K(u) against the generic path.

``ExtField.mul`` over a ``RatFunField`` K(u) multiplies the operands
cleared over K[u] (``_clear_ratfun``) and reduces by the cleared minimal
polynomial, with one ``make`` per output coefficient.  The oracle is the
generic path ``L.make(pmul(K, a, b))``, whose every coefficient operation is
a ``RatFunField`` operation.  ``from_int`` and ``lift`` pad a constant
without reducing it; the oracle is ``make`` of the constant polynomial.
The base fields K are F7, Q and F49.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.fields import (
    ExtField,
    FpField,
    QField,
    RatFunField,
    _clear_ratfun,
    pconst,
    pdivmod,
    pmonic,
    pmul,
    ptrim,
    pxgcd,
)

F7, Q = FpField(7), QField()
F49 = ExtField(F7, "i", (1, 0, 1))  # i^2 = -1
F7u, Qu, F49u = (RatFunField(F, "u") for F in (F7, Q, F49))


def _ratfun(K, num, den=(1,)):
    """``num/den`` in K(u), from coefficients that may be ints."""
    F = K.below

    def coeffs(c):
        return tuple(F.from_int(x) if isinstance(x, int) else x for x in c)

    return K.make(coeffs(num), coeffs(den))


def _minpoly(K, *coeffs):
    return (*coeffs, K.one)


def _fields():
    i = F49.gen()
    return {
        # name: (L, cleared leading coefficient dm is 1)
        "F7(u)[x]/(x^2-u)": (ExtField(F7u, "x", _minpoly(F7u, _ratfun(F7u, (0, 6)), F7u.zero)), True),
        "F7(u)[x]/(x^2-1/u)": (ExtField(F7u, "x", _minpoly(F7u, _ratfun(F7u, (6,), (0, 1)), F7u.zero)), False),
        "F7(u)[x]/(x^7-u)": (ExtField(F7u, "x", _minpoly(F7u, _ratfun(F7u, (0, 6)), *[F7u.zero] * 6)), True),
        # x^3 + x/(u+1) + u^2/(u^2+3): dm = (u+1)(u^2+3)
        "F7(u)[x]/(cubic)": (
            ExtField(F7u, "x", _minpoly(
                F7u, _ratfun(F7u, (0, 0, 1), (3, 0, 1)), _ratfun(F7u, (1,), (1, 1)), F7u.zero,
            )),
            False,
        ),
        "Q(u)[x]/(x^2-u)": (ExtField(Qu, "x", _minpoly(Qu, _ratfun(Qu, (0, -1)), Qu.zero)), True),
        "Q(u)[x]/(x^2-1/(2u))": (
            ExtField(Qu, "x", _minpoly(Qu, _ratfun(Qu, (Fraction(-1, 2),), (0, 1)), Qu.zero)),
            False,
        ),
        # x^3 - (u^2+1)/(3u+1) x - u
        "Q(u)[x]/(cubic)": (
            ExtField(Qu, "x", _minpoly(
                Qu, _ratfun(Qu, (0, -1)), _ratfun(Qu, (-1, 0, -1), (1, 3)), Qu.zero,
            )),
            False,
        ),
        "F49(u)[x]/(x^2-iu)": (
            ExtField(F49u, "x", _minpoly(F49u, _ratfun(F49u, (F49.zero, F49.neg(i))), F49u.zero)),
            True,
        ),
        "F49(u)[x]/(x^2-1/(u+i))": (
            ExtField(F49u, "x", _minpoly(
                F49u, _ratfun(F49u, (-1,), (i, 1)), F49u.zero,
            )),
            False,
        ),
    }


FIELDS = _fields()


def _below_elems(F):
    """Elements of the field under K(u), zero and one often."""
    if F is F7:
        return st.one_of(st.sampled_from([0, 1, 6]), st.integers(0, 6))
    if F is Q:
        return st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 35]))
    fp = st.one_of(st.sampled_from([0, 1, 6]), st.integers(0, 6))
    return st.tuples(fp, fp).map(F49.make)


def _ratfun_elems(K, units=False):
    """Elements of K(u); unless ``units``, with denominators that are not 1."""
    F = K.below
    below = _below_elems(F)
    nums = st.lists(below, max_size=3)
    if units:
        return st.builds(K.make, nums, st.just((F.one,)))
    dens = st.one_of(
        st.just((F.one,)),
        st.lists(below, min_size=1, max_size=3).filter(lambda d: ptrim(F, d)),
    )
    return st.one_of(st.just(K.zero), st.just(K.one), st.builds(K.make, nums, dens))


def _ext_elems(L):
    return st.lists(_ratfun_elems(L.below), min_size=L.deg, max_size=L.deg).map(tuple)


def _generic_mul(L, a, b):
    K = L.below
    return L.make(pmul(K, ptrim(K, a), ptrim(K, b)))


@st.composite
def ext_pairs(draw):
    L = FIELDS[draw(st.sampled_from(sorted(FIELDS)))][0]
    return L, draw(_ext_elems(L)), draw(_ext_elems(L))


@given(ext_pairs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mul_matches_generic_path(case):
    L, a, b = case
    prod = L.mul(a, b)
    assert prod == _generic_mul(L, a, b)
    assert len(prod) == L.deg


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_cleared_leading_coefficient(name):
    L, unit = FIELDS[name]
    F = L.below.below
    m, dm = L._cleared_minpoly
    assert (dm == (F.one,)) == unit
    assert len(m) == L.deg + 1 and m[-1] == dm


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_mul_by_zero_one_and_generator(name):
    L = FIELDS[name][0]
    x = L.gen()
    assert L.mul(x, L.zero) == L.mul(L.zero, x) == L.zero == _generic_mul(L, x, L.zero)
    assert L.mul(L.one, x) == x
    # x^deg wraps around by the minimal polynomial
    power = L.one
    for _ in range(L.deg):
        power = L.mul(power, x)
    assert power == tuple(L.below.neg(c) for c in L.minpoly[:-1])


def _ref_lcm(F, dens):
    """Monic lcm of nonzero polynomials over F, by ``pxgcd``."""
    out = (F.one,)
    for d in dens:
        g = pxgcd(F, out, d)[0]
        out = pmonic(F, pdivmod(F, pmul(F, out, d), g)[0])
    return out


@st.composite
def ratfun_polys(draw):
    K = draw(st.sampled_from([F7u, Qu, F49u]))
    units = draw(st.booleans())
    return K, units, draw(st.lists(_ratfun_elems(K, units), max_size=5))


@given(ratfun_polys())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_clear_ratfun_is_the_lcm(case):
    K, units, poly = case
    F = K.below
    out, den = _clear_ratfun(F, poly)
    assert den == _ref_lcm(F, [d for _, d in poly])
    assert len(out) == len(ptrim(K, poly))
    for i, c in enumerate(poly):
        assert K.make(out[i] if i < len(out) else (), den) == c
    if units:
        assert den == (F.one,)
        assert out == [n for n, _ in poly[: len(out)]]


EXT_CONSTANTS = {
    "F49": F49,
    "Q(sqrt2)": ExtField(Q, "r", (Fraction(-2), Q.zero, Q.one)),
    **{name: FIELDS[name][0] for name in ("F7(u)[x]/(x^2-1/u)", "F7(u)[x]/(x^7-u)")},
}


@pytest.mark.parametrize("name", sorted(EXT_CONSTANTS))
def test_from_int_and_lift_match_make(name):
    L = EXT_CONSTANTS[name]
    K = L.below
    for n in range(-15, 16):
        assert L.from_int(n) == L.make(pconst(K, K.from_int(n)))
    for c in (K.zero, K.one, K.from_int(3), K.inv(K.from_int(5)), *L.gen()):
        assert L.lift(c) == L.make(pconst(K, c))

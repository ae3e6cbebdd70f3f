"""``ptrim``, ``padd``, ``psub`` and ``pdivmod`` against their definitions.

``ptrim`` and ``padd`` run one loop for every field, and ``pdivmod`` one
loop for every field but F_p, so comparing fields with each other checks
nothing.  Here the references are the definitions themselves:

* trimming and adding coefficient by index, with zero tested by equality
  with ``K.zero`` (elements are canonical normal forms);
* division by ``q*b + r == a`` with ``deg r < deg b``, both trimmed.

The fields are F2, F7, F(2^61-1), Q, F49 and F7(u); the operands come
untrimmed, of unequal lengths, and with leading terms that cancel.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.errors import ZeroDivisionInField
from modsym.fields import (
    ExtField,
    FpField,
    QField,
    RatFunField,
    padd,
    pdivmod,
    pmul,
    pneg,
    psub,
    ptrim,
)

F7 = FpField(7)
FIELDS = {
    "F2": FpField(2),
    "F7": F7,
    "F(2^61-1)": FpField(2**61 - 1),
    "Q": QField(),
    "F49": ExtField(F7, "i", (1, 0, 1)),  # i^2 = -1
    "F7(u)": RatFunField(F7, "u"),
}


def _fp_elems(K):
    # zero and one often, so trailing zeros, monic divisors and
    # cancellations occur
    return st.one_of(st.sampled_from([0, 1, K.p - 1]), st.integers(0, K.p - 1))


def _elems(K):
    if isinstance(K, FpField):
        return _fp_elems(K)
    if isinstance(K, QField):
        return st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 35]))
    if isinstance(K, ExtField):
        below = _fp_elems(K.below)
        return st.tuples(*[below] * K.deg).map(K.make)
    below = _fp_elems(K.below)
    return st.one_of(
        st.just(K.zero),
        st.just(K.one),
        st.builds(
            K.make,
            st.lists(below, max_size=3),
            st.lists(below, min_size=1, max_size=2).filter(any),
        ),
    )


@st.composite
def polys(draw, n):
    """A field and ``n`` untrimmed coefficient tuples over it."""
    K = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    return (K, *(tuple(draw(st.lists(_elems(K), max_size=7))) for _ in range(n)))


def _coeff(K, a, i):
    return a[i] if i < len(a) else K.zero


def ref_trim(K, c):
    """``c`` up to its last coefficient that is not ``K.zero``."""
    n = max((i + 1 for i, x in enumerate(c) if x != K.zero), default=0)
    return tuple(c[:n])


def ref_combine(K, op, a, b):
    n = max(len(a), len(b))
    return ref_trim(K, [op(_coeff(K, a, i), _coeff(K, b, i)) for i in range(n)])


@given(polys(1))
@settings(max_examples=200, deadline=None)
def test_ptrim(case):
    K, a = case
    assert ptrim(K, a) == ref_trim(K, a)
    assert ptrim(K, a + (K.zero,) * 3) == ref_trim(K, a)


@given(polys(2), st.data())
@settings(max_examples=200, deadline=None)
def test_padd_psub(case, data):
    K, a, b = case
    for x, y in ((a, b), (b, a)):
        assert padd(K, x, y) == ref_combine(K, K.add, x, y)
        assert psub(K, x, y) == ref_combine(K, K.sub, x, y)
    # leading terms that cancel: c agrees with -a above some index k
    k = data.draw(st.integers(0, len(a)))
    low = data.draw(st.lists(_elems(K), min_size=k, max_size=k))
    c = tuple(low) + pneg(K, a)[k:]
    assert padd(K, a, c) == ref_combine(K, K.add, a, c)
    assert psub(K, a, pneg(K, c)) == ref_combine(K, K.add, a, c)
    assert padd(K, a, pneg(K, a)) == ()


@given(polys(2), st.booleans())
@settings(max_examples=300, deadline=None)
def test_pdivmod(case, monic):
    K, a, b = case
    b = ref_trim(K, b)
    if monic and b:
        b = b[:-1] + (K.one,)
    if not b:
        with pytest.raises(ZeroDivisionInField):
            pdivmod(K, a, b)
        return
    q, r = pdivmod(K, a, b)
    assert q == ref_trim(K, q) and r == ref_trim(K, r)
    assert len(r) < len(b)
    assert ref_combine(K, K.add, pmul(K, q, b), r) == ref_trim(K, a)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_pdivmod_exact_and_short(name):
    K = FIELDS[name]
    one, two = K.one, K.add(K.one, K.one)
    b = (one, two, K.add(two, one))
    q = (one, K.zero, two, one)
    a = pmul(K, q, b)
    assert pdivmod(K, a + (K.zero,) * 2, b) == (q, ())
    assert pdivmod(K, (two, one), b) == ((), (two, one))

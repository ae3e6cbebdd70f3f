"""The F_p and Q fast paths of the polynomial kernels and of ``ExtField``
arithmetic agree with the generic per-element loops.

The kernels choose a fast path by the exact type of the field, so a field
of a subclass of ``FpField`` or ``QField`` runs the generic code: that is
the oracle here, for ``pmul``, ``pgcd``, ``pdivmod`` over F_p, ``pxgcd``
(built on the other kernels) and for ``ExtField.mul`` over such a base.
``ptrim``, ``padd`` and ``ExtField.add``, ``neg`` and ``sub`` have one path
for every field, and so has ``pdivmod`` over Q, so those cases compare the
path with itself; ``tests/test_generic_kernels.py`` checks them against
their definitions.
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
    padd,
    pdivmod,
    pgcd,
    pmul,
    pneg,
    ptrim,
    pxgcd,
)


class GenericFp(FpField):
    """F_p through the generic kernels."""


class GenericQ(QField):
    """Q through the generic kernels."""


PRIMES = (2, 7, 2**61 - 1)
BASES = {f"F{p}": (FpField(p), GenericFp(p)) for p in PRIMES}
BASES["Q"] = (QField(), GenericQ())

bases = st.sampled_from(sorted(BASES)).map(BASES.get)


def _elems(K):
    if isinstance(K, FpField):
        # zero and one often, so trailing zeros, monic divisors and
        # cancellations occur
        return st.one_of(st.sampled_from([0, 1, K.p - 1]), st.integers(0, K.p - 1))
    return st.builds(
        Fraction,
        st.integers(-20, 20),
        st.sampled_from([1, 1, 2, 3, 4, 6, 9, 35]),
    )


@st.composite
def base_and_polys(draw, n=2, trimmed=True):
    fast, generic = draw(bases)
    polys = (tuple(draw(st.lists(_elems(fast), max_size=9))) for _ in range(n))
    return (fast, generic, *(ptrim(fast, c) if trimmed else c for c in polys))


@given(base_and_polys(n=1, trimmed=False))
@settings(max_examples=200, deadline=None)
def test_ptrim(case):
    fast, generic, a = case
    assert ptrim(fast, a) == ptrim(generic, a)


@given(base_and_polys(trimmed=False), st.data())
@settings(max_examples=200, deadline=None)
def test_padd(case, data):
    fast, generic, a, b = case
    assert padd(fast, a, b) == padd(generic, a, b)
    # leading coefficients that cancel
    k = data.draw(st.integers(0, len(a)))
    low = data.draw(st.lists(_elems(fast), min_size=k, max_size=k))
    c = tuple(low) + pneg(fast, a)[k:]
    assert padd(fast, a, c) == padd(generic, a, c)


@given(base_and_polys(trimmed=False))
@settings(max_examples=200, deadline=None)
def test_pmul(case):
    fast, generic, a, b = case
    assert pmul(fast, a, b) == pmul(generic, a, b)


@given(base_and_polys(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_pdivmod(case, monic):
    fast, generic, a, b = case
    if monic and b:
        b = b[:-1] + (fast.one,)
    if not b:
        for K in (fast, generic):
            with pytest.raises(ZeroDivisionInField):
                pdivmod(K, a, b)
        return
    q, r = pdivmod(fast, a, b)
    assert (q, r) == pdivmod(generic, a, b)
    assert padd(fast, pmul(fast, q, b), r) == a


@given(base_and_polys(n=1))
@settings(max_examples=50, deadline=None)
def test_pdivmod_by_untrimmed_divisor(case):
    fast, generic, a = case
    b = (fast.one, fast.zero)  # last coefficient zero
    for K in (fast, generic):
        with pytest.raises(ZeroDivisionInField):
            pdivmod(K, a, b)


@st.composite
def with_common_factor(draw):
    fast, generic, a, b, g = draw(base_and_polys(n=3))
    return fast, generic, pmul(fast, a, g), pmul(fast, b, g)


@given(st.one_of(base_and_polys(), with_common_factor()))
@settings(max_examples=200, deadline=None)
def test_pgcd(case):
    fast, generic, a, b = case
    g = pgcd(fast, a, b)
    assert g == pgcd(generic, a, b)
    if g:
        assert fast.is_one(g[-1])
        assert not pdivmod(fast, a, g)[1] and not pdivmod(fast, b, g)[1]


@given(st.one_of(base_and_polys(), with_common_factor()))
@settings(max_examples=200, deadline=None)
def test_pxgcd(case):
    fast, generic, a, b = case
    g, s, t = pxgcd(fast, a, b)
    assert (g, s, t) == pxgcd(generic, a, b)
    assert padd(fast, pmul(fast, s, a), pmul(fast, t, b)) == g


def _ext_pair(fast, generic, var, minpoly):
    return ExtField(fast, var, minpoly), ExtField(generic, var, minpoly)


F7, GF7 = BASES["F7"]
Q, GQ = BASES["Q"]
EXTENSIONS = {
    "F49": _ext_pair(F7, GF7, "i", (1, 0, 1)),  # i^2 = -1
    "Q(sqrt2)": _ext_pair(Q, GQ, "r", (Fraction(-2), Q.zero, Q.one)),
    # r^3 = -(2/3) r + 5/4: minpoly coefficients that are not integers
    "Q(cubic)": _ext_pair(Q, GQ, "r", (Fraction(-5, 4), Fraction(2, 3), Q.zero, Q.one)),
    "F(2^61-1)[x]/(x^2-3)": _ext_pair(*BASES[f"F{2**61 - 1}"], "x", (2**61 - 4, 0, 1)),
}


@st.composite
def ext_elems(draw):
    E, G = draw(st.sampled_from(sorted(EXTENSIONS)).map(EXTENSIONS.get))
    a, b = (
        tuple(draw(st.lists(_elems(E.below), min_size=E.deg, max_size=E.deg)))
        for _ in range(2)
    )
    return E, G, a, b


@given(ext_elems())
@settings(max_examples=300, deadline=None)
def test_ext_mul(case):
    E, G, a, b = case
    prod = E.mul(a, b)
    assert prod == G.mul(a, b)
    assert len(prod) == E.deg


@given(ext_elems())
@settings(max_examples=200, deadline=None)
def test_ext_add_neg_sub(case):
    E, G, a, b = case
    assert E.add(a, b) == G.add(a, b)
    assert E.neg(a) == G.neg(a)
    assert E.sub(a, b) == G.sub(a, b) == E.add(a, E.neg(b))


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_ext_mul_by_zero_and_one(name):
    E, G = EXTENSIONS[name]
    g = E.gen()
    assert E.mul(g, E.zero) == E.zero == G.mul(g, G.zero)
    assert E.mul(E.one, g) == g == G.mul(G.one, g)
    assert E.mul(g, E.inv(g)) == E.one


@pytest.mark.parametrize("K", [F7, GF7, Q, GQ, *(f for pair in EXTENSIONS.values() for f in pair)])
def test_inverse_of_zero_raises(K):
    with pytest.raises(ZeroDivisionInField):
        K.inv(K.zero)

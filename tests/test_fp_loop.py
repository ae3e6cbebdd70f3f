"""The F_p elimination loop shared by ``pdivmod``, ``pgcd`` and
``ExtField.mul``, on inputs the kernel tests do not draw: extensions of
degree above 2, and ``pinv_mod`` over F2 and F(2^61 - 1).

A field of a subclass of ``FpField`` runs the generic per-element loops;
it is the oracle, and ``pxgcd`` the oracle of ``pinv_mod``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.errors import ZeroDivisionInField
from modsym.fields import ExtField, FpField, pinv_mod, pmod, pmul, ptrim, pxgcd

from test_kernels import GenericFp


# x^6 - 3 over F7 (as in fixture_milnor) and x^3 + x + 1 over F2: irreducible
EXTENSIONS = {
    "F7[x]/(x^6-3)": (7, (4, 0, 0, 0, 0, 0, 1)),
    "F2[x]/(x^3+x+1)": (2, (1, 1, 0, 1)),
}


def _pair(p, minpoly):
    return ExtField(FpField(p), "x", minpoly), ExtField(GenericFp(p), "x", minpoly)


@st.composite
def ext_elems(draw):
    p, minpoly = EXTENSIONS[draw(st.sampled_from(sorted(EXTENSIONS)))]
    E, G = _pair(p, minpoly)
    coeff = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    a, b = (tuple(draw(st.lists(coeff, min_size=E.deg, max_size=E.deg))) for _ in range(2))
    return E, G, a, b


@given(ext_elems())
@settings(max_examples=300, deadline=None)
def test_ext_mul(case):
    E, G, a, b = case
    prod = E.mul(a, b)
    assert prod == G.mul(a, b)
    assert len(prod) == E.deg


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_ext_field_axioms_on_the_generator(name):
    E, G = _pair(*EXTENSIONS[name])
    g = E.gen()
    # the generator's powers cycle through a field of q elements
    assert E.pow(g, E.size() - 1) == E.one == G.pow(g, G.size() - 1)
    assert E.mul(g, E.inv(g)) == E.one
    assert E.pow(g, E.deg) == E.make(tuple(E.below.neg(c) for c in E.minpoly[:-1]))


PRIMES = (2, 2**61 - 1)


@st.composite
def inverse_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    coeff = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    m = tuple(draw(st.lists(coeff, min_size=1, max_size=8))) + (1,)
    a = ptrim(FpField(p), draw(st.lists(coeff, max_size=10)))
    return p, a, m


@given(inverse_cases())
@settings(max_examples=300, deadline=None)
def test_pinv_mod_against_pxgcd(case):
    p, a, m = case
    F = FpField(p)
    g, s, _ = pxgcd(F, a, m)
    if g != (1,):
        for K in (F, GenericFp(p)):
            with pytest.raises(ZeroDivisionInField):
                pinv_mod(K, a, m)
        return
    inv = pinv_mod(F, a, m)
    assert inv == pmod(F, s, m) == pinv_mod(GenericFp(p), a, m)
    assert pmod(F, pmul(F, inv, a), m) == (1,)

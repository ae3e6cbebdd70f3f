"""``ppow_mod`` over F_p: the int-list square-and-multiply on ``_int_conv``
and ``_fp_rem`` against a square-and-multiply written here on ``pmul`` and
``pmod``, and against the generic loop of a ``FpField`` subclass.

Moduli need not be monic; exponents include 0 and exponents of the size of
p (the x^p of an image test); ``a`` may be zero or of degree at least
``deg m``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.fields import FpField, pmod, pmul, ppow_mod, ptrim

from test_kernels import GenericFp

PRIMES = (2, 7, 2**61 - 1, 2**30 + 3)


def _square_and_multiply(F, a, n, m):
    r, b = (F.one,), pmod(F, a, m)
    while n:
        if n & 1:
            r = pmod(F, pmul(F, r, b), m)
        b = pmod(F, pmul(F, b, b), m)
        n >>= 1
    return r


@st.composite
def cases(draw):
    p = draw(st.sampled_from(PRIMES), label="p")
    coeff = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    m = draw(st.lists(coeff, min_size=1, max_size=7), label="m")
    m[-1] = m[-1] or draw(st.integers(1, p - 1), label="lead")
    a = ptrim(FpField(p), draw(st.lists(coeff, max_size=12), label="a"))
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from([p - 1, p, p + 1])), label="n")
    return p, a, n, tuple(m)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_matches_square_and_multiply(case):
    p, a, n, m = case
    F = FpField(p)
    got = ppow_mod(F, a, n, m)
    assert got == _square_and_multiply(F, a, n, m)
    assert got == ppow_mod(GenericFp(p), a, n, m)
    assert isinstance(got, tuple)


@pytest.mark.parametrize("p", PRIMES)
def test_fixed_edges(p):
    F = FpField(p)
    m = (1, 0, 3 % p or 1)  # not monic unless p = 2
    x = (0, 1)
    assert ppow_mod(F, x, 0, m) == (1,)
    assert ppow_mod(F, (), 0, m) == (1,)
    assert ppow_mod(F, (), 5, m) == ()
    long = (1, 2 % p, 0, 1, 1)  # deg a >= deg m
    for n in (1, 2, 7, p):
        assert ppow_mod(F, long, n, m) == _square_and_multiply(F, long, n, m)
    # Fermat: x^(p^2) = x in F_p[x]/(irreducible quadratic) for p = 7
    if p == 7:
        assert ppow_mod(F, x, 49, (3, 1, 1)) == x

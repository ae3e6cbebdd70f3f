"""The contract of ``fields._prem``, the one pseudo-division over F[u].

``_prem(F, A, B)`` returns ``lc(B)^e * A mod B`` with
``e = max(deg A - deg B + 1, 0)``, for polynomials in t whose coefficients
are polynomials over F[u].  Divided by ``lc(B)^e`` it is the remainder of
the generic ``pdivmod`` over K(u) = F(u), the oracle.  A monic divisor
multiplies by nothing: the result is the plain remainder.  Given cofactors
V of A and W of B, the returned cofactor is ``lc(B)^e * V - Q * W`` with the
same quotient Q as the remainder.  F is F7 and Q.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.fields import FpField, QField, RatFunField, _prem, _upow, pdivmod, pmul, psub, ptrim

F7, Q = FpField(7), QField()
BASES = {"F7": F7, "Q": Q}


def _scalars(F, nonzero=False):
    if isinstance(F, FpField):
        return st.integers(int(nonzero), F.p - 1)
    num = st.sampled_from([1, -1, 2, -3]) if nonzero else st.integers(-3, 3)
    return st.builds(Fraction, num, st.sampled_from([1, 2]))


@st.composite
def _upolys(draw, F, nonzero=False):
    """A polynomial over F[u] of degree at most 2."""
    low = draw(st.lists(_scalars(F), max_size=2))
    return ptrim(F, low + [draw(_scalars(F, nonzero))])


@st.composite
def _tpolys(draw, F, max_len, monic=False):
    """A nonzero polynomial in t over F[u], as a list of F[u] coefficients."""
    low = draw(st.lists(_upolys(F), max_size=max_len - 1))
    lead = (F.one,) if monic else draw(_upolys(F, nonzero=True))
    return low + [lead]


@st.composite
def cases(draw, monic):
    F = BASES[draw(st.sampled_from(sorted(BASES)))]
    A = draw(_tpolys(F, 6))
    B = draw(_tpolys(F, 3, monic=monic))
    return F, A, B


def _over_ku(F, P):
    """A polynomial over F[u] read over K(u) = F(u)."""
    K = RatFunField(F, "u")
    return K, ptrim(K, [K.make(c, (F.one,)) for c in P])


def _check_remainder(F, A, B):
    R, cof = _prem(F, A, B)
    assert cof is None
    K, AK = _over_ku(F, A)
    _, BK = _over_ku(F, B)
    e = max(len(A) - len(B) + 1, 0)
    c = K.make(_upow(F, B[-1], e), (F.one,))
    _, RK = _over_ku(F, R)
    assert ptrim(K, [K.div(x, c) for x in RK]) == pdivmod(K, AK, BK)[1]
    return R


@given(cases(monic=False))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_remainder_over_lc_power_is_the_remainder(case):
    _check_remainder(*case)


@given(cases(monic=True))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_monic_divisor_gives_the_plain_remainder(case):
    F, A, B = case
    K, AK = _over_ku(F, A)
    assert _over_ku(F, _prem(F, A, B)[0])[1] == pdivmod(K, AK, _over_ku(F, B)[1])[1]


@given(cases(monic=False), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cofactor_takes_the_same_quotient(case, data):
    F, A, B = case
    V, W = data.draw(_tpolys(F, 3)), data.draw(_tpolys(F, 3))
    R, VR = _prem(F, A, B, V, W)
    K, AK = _over_ku(F, A)
    (_, BK), (_, RK), (_, VK), (_, WK), (_, VRK) = (_over_ku(F, P) for P in (B, R, V, W, VR))
    e = max(len(A) - len(B) + 1, 0)
    c = (K.make(_upow(F, B[-1], e), (F.one,)),)
    q, r = pdivmod(K, psub(K, pmul(K, c, AK), RK), BK)
    assert not r
    assert VRK == psub(K, pmul(K, c, VK), pmul(K, q, WK))


def _u(F, *cs):
    return ptrim(F, tuple(F.from_int(x) for x in cs))


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("monic", [True, False])
def test_degree_drop_by_more_than_one(base, monic):
    """A = t^4 + u t + 1 by B = b t^2 + 1: the t^3 coefficients of both are
    zero, so the first step drops the degree from 4 to 2, and the closing
    ``lc(B)^e`` scaling runs unless b is 1."""
    F = BASES[base]
    A = [_u(F, 1), _u(F, 0, 1), (), (), _u(F, 1)]
    B = [_u(F, 1), (), _u(F, 1) if monic else _u(F, 0, 2)]
    R = _check_remainder(F, A, B)
    if monic:
        # t^4 + u t + 1 = (t^2 - 1)(t^2 + 1) + u t + 2
        assert R == [_u(F, 2), _u(F, 0, 1)]

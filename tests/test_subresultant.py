"""The subresultant PRS over K(u) agrees with Euclid.

Over a rational-function field K(u), ``pgcd``, ``_resultant`` and
``pinv_mod`` (and so ``RatFunField`` arithmetic over K(u), ``ExtField.inv``
and the residues of ``localfield``) run the fraction-free subresultant PRS
on the denominator-cleared polynomials over K[u].  Euclid over K(u) is the
oracle: ``_euclid_resultant`` for the resultant and ``pxgcd`` for the gcd
and the inverse.  Both sides return canonical forms, so equality is exact.
Inputs stay small, as Euclid over K(u) swells.
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
    _euclid_resultant,
    _resultant,
    peval,
    pgcd,
    pinv_mod,
    pmod,
    pmonic,
    pmul,
    ptrim,
    pxgcd,
)

Q = QField()
F7 = FpField(7)
F7U = RatFunField(F7, "u")
FIELDS = {
    "F3(u)": RatFunField(FpField(3), "u"),
    "F7(u)": F7U,
    "Q(u)": RatFunField(Q, "u"),
    "F7(u)(v)": RatFunField(F7U, "v"),
}
# longest polynomial drawn over each field: Euclid over F7(u)(v) is slow
MAX_LEN = {"F3(u)": 5, "F7(u)": 5, "Q(u)": 4, "F7(u)(v)": 3}


def _scalars(F, nonzero=False):
    """Small elements of the field below K(u)."""
    if isinstance(F, FpField):
        return st.integers(int(nonzero), F.p - 1)
    if isinstance(F, QField):
        num = st.sampled_from([1, -1, 2, -3]) if nonzero else st.integers(-3, 3)
        return st.builds(Fraction, num, st.sampled_from([1, 1, 2, 3]))
    u = F.from_poly((F7.zero, F7.one))
    return st.sampled_from([F.one, u, F.add(u, F.one), F.inv(u)] + [F.zero] * (not nonzero))


@st.composite
def _elems(draw, K, nonzero=False):
    F = K.below

    def poly(nonzero):
        low = draw(st.lists(_scalars(F), max_size=1))
        return ptrim(F, low + [draw(_scalars(F, nonzero))])

    return K.make(poly(nonzero), poly(True))


@st.composite
def _polys(draw, K, max_len):
    low = draw(st.lists(_elems(K), max_size=max_len - 1))
    return tuple(low) + (draw(_elems(K, nonzero=True)),)


@st.composite
def cases(draw, common_factor=False):
    name = draw(st.sampled_from(sorted(FIELDS)))
    K, n = FIELDS[name], MAX_LEN[name]
    a, b = draw(_polys(K, n)), draw(_polys(K, n))
    if common_factor:
        g = draw(_polys(K, 2))
        if len(g) == 1:
            g = (g[0], K.one)
        a, b = pmul(K, a, g), pmul(K, b, g)
    return K, a, b


def _euclid_inverse(K, a, m):
    g, s, _ = pxgcd(K, pmod(K, a, m), m)
    return s if len(g) == 1 else None


def _check_inverse(K, a, m):
    expected = _euclid_inverse(K, a, m)
    if expected is None:
        with pytest.raises(ZeroDivisionInField):
            pinv_mod(K, a, m)
    else:
        assert pinv_mod(K, a, m) == expected


@given(st.one_of(cases(), cases(common_factor=True)))
@settings(max_examples=100, deadline=None)
def test_resultant_matches_euclid(case):
    K, a, b = case
    assert _resultant(K, a, b) == _euclid_resultant(K, a, b)


@given(st.one_of(cases(), cases(common_factor=True)))
@settings(max_examples=100, deadline=None)
def test_inverse_matches_pxgcd(case):
    K, a, b = case
    if len(b) > 1:
        _check_inverse(K, a, pmonic(K, b))


def _elem(K, num, den=None):
    """An element of K = F(u) from coefficient lists of ints over F."""
    F = K.below
    to = F.from_int
    return K.make(tuple(to(c) for c in num), tuple(to(c) for c in den or [1]))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_non_normal_prs(name):
    # t^5 + u t + 1 mod t^4 + u^2 leaves degree 1: a drop of 3, so the true
    # pseudo-remainder must scale by lc^(delta+1), not once per pass
    K = FIELDS[name]
    u = _elem(K, [0, 1])
    a = (K.one, u, K.zero, K.zero, K.zero, K.one)
    b = (_elem(K, [0, 0, 2], [1, 1]), K.zero, K.zero, K.zero, _elem(K, [2], [0, 1]))
    assert len(pmod(K, a, b)) <= len(b) - 3
    res = _resultant(K, a, b)
    assert res == _euclid_resultant(K, a, b) and not K.is_zero(res)
    _check_inverse(K, a, pmonic(K, b))
    _check_inverse(K, b, a)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sign_when_first_degree_is_lower_and_both_are_odd(name):
    K = FIELDS[name]
    u = _elem(K, [0, 1])
    a = (u, K.one)  # t + u
    b = (K.one, _elem(K, [1], [1, 1]), K.zero, u)  # u t^3 + t/(u+1) + 1
    res = _resultant(K, a, b)
    assert res == _euclid_resultant(K, a, b)
    assert res == K.neg(_resultant(K, b, a)) and not K.is_zero(res)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_common_factor(name):
    K = FIELDS[name]
    u = _elem(K, [0, 1])
    g = (_elem(K, [1], [0, 1]), K.one)  # t + 1/u
    a = pmul(K, g, (u, K.zero, K.one))
    b = pmul(K, g, (K.one, u))
    assert K.is_zero(_resultant(K, a, b))
    with pytest.raises(ZeroDivisionInField):
        pinv_mod(K, b, a)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_denominators_in_both_arguments(name):
    K = FIELDS[name]
    a = (_elem(K, [1], [1, 1]), _elem(K, [0, 1], [2, 0, 1]), K.one)
    b = (_elem(K, [3, 1], [0, 1]), _elem(K, [1], [1, 0, 1]), _elem(K, [1, 2], [1, 1]))
    res = _resultant(K, a, b)
    assert res == _euclid_resultant(K, a, b) and not K.is_zero(res)
    _check_inverse(K, b, a)


def test_degree_four_inverse_and_resultant_over_q_u():
    K = FIELDS["Q(u)"]
    u = _elem(K, [0, 1])
    m = (K.neg(u), K.zero, K.zero, K.zero, K.one)  # x^4 - u, Eisenstein at u
    E = ExtField(K, "x", m)
    a = (_elem(K, [1, 0, 3], [2, 1]), _elem(K, [-1], [0, 1]), u, _elem(K, [5, 1], [1, 0, 1]))
    assert E.mul(a, E.inv(a)) == E.one
    res = _resultant(K, m, a)
    for c in (Fraction(2), Fraction(-3, 5)):

        def at(x):
            num, den = (peval(Q, p, c) for p in x)
            return num / den

        # the specialisation keeps both degrees, so it commutes with Res
        assert at(m[-1]) and at(a[-1])
        assert at(res) == _euclid_resultant(Q, [at(x) for x in m], [at(x) for x in a])


def _check_gcd(K, a, b):
    expected = pxgcd(K, a, b)[0]
    assert pgcd(K, a, b) == expected
    assert pgcd(K, b, a) == expected


@given(st.one_of(cases(), cases(common_factor=True)))
@settings(max_examples=100, deadline=None)
def test_gcd_matches_euclid(case):
    _check_gcd(*case)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_gcd_zero_and_constant_arguments(name):
    K = FIELDS[name]
    u = _elem(K, [0, 1])
    a = (_elem(K, [1], [0, 1]), _elem(K, [2, 1], [1, 1]))  # (u+2)/(u+1) t + 1/u
    _check_gcd(K, a, ())
    _check_gcd(K, (), ())
    _check_gcd(K, (u,), a)
    _check_gcd(K, (_elem(K, [1], [1, 1]),), ())
    assert pgcd(K, a, ()) == pmonic(K, a) and pgcd(K, (u,), a) == (K.one,)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_gcd_of_linear_arguments(name):
    K = FIELDS[name]
    u = _elem(K, [0, 1])
    a = (u, K.one)  # t + u
    _check_gcd(K, a, (K.one, _elem(K, [1], [0, 1])))  # t/u + 1: coprime to a
    _check_gcd(K, a, (_elem(K, [0, 2], [1, 1]), _elem(K, [2], [1, 1])))  # 2(t+u)/(u+1)
    assert pgcd(K, a, pmul(K, a, (_elem(K, [3], [0, 1]),))) == a


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_gcd_non_normal_prs(name):
    # as in test_non_normal_prs, a mod b drops from degree 4 to 1; times the
    # common factor g the drop is from 5 to 2
    K = FIELDS[name]
    u = _elem(K, [0, 1])
    a = (K.one, u, K.zero, K.zero, K.zero, K.one)
    b = (_elem(K, [0, 0, 2], [1, 1]), K.zero, K.zero, K.zero, _elem(K, [2], [0, 1]))
    g = (_elem(K, [1], [1, 1]), u, K.one)
    ag, bg = pmul(K, a, g), pmul(K, b, g)
    assert len(pmod(K, ag, bg)) <= len(bg) - 3
    _check_gcd(K, a, b)
    _check_gcd(K, ag, bg)
    assert pgcd(K, ag, bg) == pmonic(K, g)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_gcd_common_factor_and_denominators(name):
    K = FIELDS[name]
    u = _elem(K, [0, 1])
    g = (_elem(K, [1], [0, 1]), K.one)  # t + 1/u
    a = (_elem(K, [1], [1, 1]), _elem(K, [0, 1], [2, 0, 1]), K.one)
    b = (_elem(K, [3, 1], [0, 1]), _elem(K, [1], [1, 0, 1]), _elem(K, [1, 2], [1, 1]))
    _check_gcd(K, a, b)
    _check_gcd(K, pmul(K, g, (u, K.zero, K.one)), pmul(K, g, (K.one, u)))
    _check_gcd(K, pmul(K, g, a), pmul(K, pmul(K, g, g), b))
    assert pgcd(K, pmul(K, g, a), pmul(K, g, b)) == pmul(K, g, pgcd(K, a, b))

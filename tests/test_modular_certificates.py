"""Gcds and irreducibility over Q and Q(α) decided from one F_p image.

``pgcd`` over Q, and over Q(α) by a simple step over Q, answers 1 when the
images of both polynomials at the first point of ``fields._fp_images`` keep
their leading coefficients and are coprime; ``factor_squarefree`` over Q(α)
answers ``[f]`` when the image of f is irreducible at an unramified point.
Everything else falls back to Euclid and to Trager's ``_ext_factor``, which
are the oracles here (``pxgcd(K, a, b)[0]`` and a direct ``_ext_factor``
call), with sympy's factorization over the extension as a test extra.

The fixed cases put each guard of the shortcuts to work: a leading
coefficient and a denominator divisible by the prime of the first image
point, a minimal polynomial that is not p-integral or not squarefree mod
that prime, and a coprime pair whose first images share a factor.  Every
answer is exact and, as ``factor._RNG_SEED`` is fixed, reproducible.
``pinv_mod``, which keeps one cofactor, is checked against ``pxgcd``.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modsym import factor as factor_mod
from modsym.errors import ZeroDivisionInField
from modsym.factor import _ext_factor, factor_squarefree
from modsym.fields import (
    ExtField,
    FpField,
    QField,
    _IMAGE_PRIMES,
    _fp_images,
    _image_points,
    _pgcd_fp,
    pderiv,
    pgcd,
    pinv_mod,
    pmod,
    pmonic,
    pmul,
    ptrim,
    pxgcd,
)

try:
    import sympy
except ImportError:  # sympy is a test extra
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

Q = QField()
P1 = _IMAGE_PRIMES[0]


def _ext(*m):
    return ExtField(Q, "a", tuple(Fraction(c) for c in m))


SQRT2 = _ext(-2, 0, 1)
CBRT2 = _ext(-2, 0, 0, 1)
FIELDS = {
    "Q": Q,
    "Q(sqrt2)": SQRT2,
    "Q(cbrt2)": CBRT2,
    "Q(a),a^2=1/3": _ext(Fraction(-1, 3), 0, 1),
    # not P1-integral: its images start at the next prime
    "Q(a),a^2=2/P1^2": _ext(Fraction(-2, P1 * P1), 0, 1),
}
SYMPY_ALPHA = {"Q(sqrt2)": "sqrt(2)", "Q(cbrt2)": "2**(1/3)"}


def _elem(K, *coeffs):
    """The element ``sum coeffs[i] * a^i`` of K (only ``coeffs[0]`` over Q)."""
    if isinstance(K, QField):
        return Fraction(coeffs[0])
    return K.make(tuple(Fraction(c) for c in coeffs))


def _poly(K, *coeffs):
    """A polynomial over K from element coefficient lists, low degree first."""
    return ptrim(K, [_elem(K, *c) for c in coeffs])


def _first_prime(K):
    return _image_points(K)[0][0].p


def _frac():
    return st.builds(
        Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 5])
    )


def _elems(K):
    if isinstance(K, QField):
        return _frac()
    return st.lists(_frac(), min_size=K.deg, max_size=K.deg).map(
        lambda c: K.make(tuple(c))
    )


def _polys(K, min_len, max_len, monic=False):
    coeffs = st.lists(_elems(K), min_size=min_len, max_size=max_len)
    if monic:
        return coeffs.map(lambda c: ptrim(K, c + [K.one]))
    return coeffs.map(lambda c: ptrim(K, c))


# ---------------------------------------------------------------------------
# pgcd against Euclid
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FIELDS)))
def test_pgcd_matches_euclid(data, name):
    K = FIELDS[name]
    g = data.draw(_polys(K, 0, 3, monic=True), label="common factor")
    a = pmul(K, g, data.draw(_polys(K, 1, 4), label="a cofactor"))
    b = pmul(K, g, data.draw(_polys(K, 1, 4), label="b cofactor"))
    assume(a and b)
    expected = pxgcd(K, a, b)[0]
    assert pgcd(K, a, b) == expected
    assert pgcd(K, b, a) == expected


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_leading_coefficient_divisible_by_the_first_prime(name):
    # a = p*t + 1 + α has the factor t + (1 + α)/p: its image at p loses it
    K = FIELDS[name]
    p = _first_prime(K)
    a = _poly(K, (1, 1), (p,))
    b = pmul(K, a, _poly(K, (2, 1), (1,)))
    F, _, (A, B) = next(_fp_images(K, a, b))
    assert F.p == p and A[-1] == 0 and len(_pgcd_fp(p, A, B)) == 1
    assert pgcd(K, a, b) == pmonic(K, a) == pxgcd(K, a, b)[0]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_denominator_divisible_by_the_first_prime(name):
    # the common factor t + 1/p + α has no image at p
    K = FIELDS[name]
    p = _first_prime(K)
    g = _poly(K, (Fraction(1, p), 1), (1,))
    a = pmul(K, g, _poly(K, (p,), (1,)))
    b = pmul(K, g, _poly(K, (2 * p,), (1,)))
    assert next(_fp_images(K, a, b))[0].p != p
    assert pgcd(K, a, b) == g == pxgcd(K, a, b)[0]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_coprime_pair_whose_first_images_share_a_factor(name):
    K = FIELDS[name]
    p = _first_prime(K)
    a, b = _poly(K, (0,), (1,)), _poly(K, (p,), (1,))
    F, _, (A, B) = next(_fp_images(K, a, b))
    assert F.p == p and len(_pgcd_fp(p, A, B)) == 2  # Euclid decides
    assert pgcd(K, a, b) == (K.one,) == pxgcd(K, a, b)[0]


def test_a_minimal_polynomial_not_integral_at_a_prime_skips_it():
    K = FIELDS["Q(a),a^2=2/P1^2"]
    assert P1 not in {F.p for F, _, _ in _image_points(K)}
    assert _first_prime(FIELDS["Q"]) == P1


# ---------------------------------------------------------------------------
# factor_squarefree over Q(α) against Trager and sympy
# ---------------------------------------------------------------------------


EXT = {"Q(sqrt2)": (SQRT2, 3), "Q(cbrt2)": (CBRT2, 2)}


def _squarefree_product(data, K, max_deg):
    g = data.draw(_polys(K, 1, max_deg, monic=True), label="g")
    h = data.draw(_polys(K, 0, max_deg, monic=True), label="h")
    f = pmul(K, g, h)
    assume(len(pgcd(K, f, pderiv(K, f))) == 1)
    return f


def _product(K, polys):
    out = (K.one,)
    for q in polys:
        out = pmul(K, out, q)
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(EXT)))
def test_factor_squarefree_matches_trager(data, name):
    K, max_deg = EXT[name]
    f = _squarefree_product(data, K, max_deg)
    got = factor_squarefree(K, f)
    assert sorted(got) == sorted(_ext_factor(K, f))
    assert _product(K, got) == f


@pytest.mark.parametrize(
    "name, coeffs, degrees",
    [
        ("Q(sqrt2)", [(0, -1), (0,), (1,)], [2]),  # t^2 - sqrt2
        ("Q(sqrt2)", [(-2,), (0,), (1,)], [1, 1]),  # t^2 - 2
        ("Q(sqrt2)", [(3, 1), (1, 1), (0,), (1,)], [3]),
        ("Q(sqrt2)", [(4,), (0,), (0,), (0,), (1,)], [2, 2]),  # t^4 + 4
        ("Q(cbrt2)", [(0, -1), (0,), (0,), (1,)], [3]),  # t^3 - cbrt2
        ("Q(cbrt2)", [(-2,), (0,), (0,), (1,)], [1, 2]),  # t^3 - 2
        ("Q(cbrt2)", [(0, 0, -1), (0,), (1,)], [1, 1]),  # t^2 - cbrt4
        ("Q(cbrt2)", [(1, 1), (0, 1), (1,)], [2]),
    ],
)
def test_factor_squarefree_fixed_cases(name, coeffs, degrees):
    K = EXT[name][0]
    f = _poly(K, *coeffs)
    got = factor_squarefree(K, f)
    assert sorted(len(q) - 1 for q in got) == degrees
    assert sorted(got) == sorted(_ext_factor(K, f))
    assert _product(K, got) == f


def test_an_irreducible_image_ends_the_factorization(monkeypatch):
    def trager(L, f):
        raise AssertionError("Trager ran on an input its image certified")

    monkeypatch.setattr(factor_mod, "_ext_factor", trager)
    f = _poly(SQRT2, (0, -1), (0,), (1,))  # t^2 - sqrt2
    assert factor_squarefree(SQRT2, f) == [f]


def test_a_ramified_first_prime_is_no_certificate():
    # L = Q(b), b^2 = 2*P1^2: b = P1*sqrt2, and t^2 - 2 = (t - b/P1)(t + b/P1).
    # m = x^2 mod P1, whose double root 0 maps t^2 - 2 to an irreducible
    # image, as 2 is not a square mod P1 = 3 mod 8.
    L = _ext(-2 * P1 * P1, 0, 1)
    F, unramified, (img,) = next(_fp_images(L, _poly(L, (-2,), (0,), (1,))))
    assert F.p == P1 and not unramified
    assert factor_mod._fp_irreducible(F, tuple(img))
    f = _poly(L, (-2,), (0,), (1,))
    got = factor_squarefree(L, f)
    assert sorted(got) == sorted([_poly(L, (0, c), (1,)) for c in (Fraction(1, P1), Fraction(-1, P1))])


def _to_sympy(name, f):
    t, alpha = sympy.Symbol("t"), sympy.sympify(SYMPY_ALPHA[name])
    expr = sum(
        sum(sympy.Rational(c.numerator, c.denominator) * alpha**j for j, c in enumerate(x))
        * t**i
        for i, x in enumerate(f)
    )
    return expr, t, alpha


@needs_sympy
@settings(max_examples=25, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(EXT)))
def test_factor_squarefree_matches_sympy(data, name):
    K, max_deg = EXT[name]
    f = _squarefree_product(data, K, max_deg)
    expr, t, alpha = _to_sympy(name, f)
    _, facs = sympy.factor_list(expr, t, extension=alpha)
    expected = sorted(sympy.degree(q, t) for q, m in facs for _ in range(m) if sympy.degree(q, t))
    got = factor_squarefree(K, f)
    assert sorted(len(q) - 1 for q in got) == expected
    assert _product(K, got) == f


# ---------------------------------------------------------------------------
# pinv_mod keeps one cofactor
# ---------------------------------------------------------------------------


F7 = FpField(7)
INV_FIELDS = {
    "F7": F7,
    "F_P1": FpField(P1),
    "Q": Q,
    "Q(sqrt2)": SQRT2,
    "F49": ExtField(F7, "a", (4, 0, 1)),
}


def _inv_elems(K):
    if isinstance(K, FpField):
        return st.integers(0, K.p - 1)
    if isinstance(K, ExtField) and isinstance(K.below, FpField):
        return st.tuples(st.integers(0, 6), st.integers(0, 6))
    return _elems(K)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(INV_FIELDS)))
def test_pinv_mod_matches_pxgcd(data, name):
    K = INV_FIELDS[name]
    m = ptrim(K, data.draw(st.lists(_inv_elems(K), min_size=1, max_size=5)) + [K.one])
    a = ptrim(K, data.draw(st.lists(_inv_elems(K), min_size=0, max_size=7)))
    g, s, _ = pxgcd(K, pmod(K, a, m), m)
    if len(g) != 1:
        with pytest.raises(ZeroDivisionInField):
            pinv_mod(K, a, m)
        return
    assert pinv_mod(K, a, m) == s


@pytest.mark.parametrize("name", sorted(INV_FIELDS))
def test_pinv_mod_refuses_a_common_factor(name):
    K = INV_FIELDS[name]
    one, two = K.one, K.add(K.one, K.one)
    m = pmul(K, (K.neg(one), one), (K.neg(two), one))  # (t - 1)(t - 2)
    with pytest.raises(ZeroDivisionInField):
        pinv_mod(K, (K.neg(two), one), m)
    assert pinv_mod(K, (one, one), m) == pxgcd(K, (one, one), m)[1]

"""``factor._ddf``, the one distinct-degree loop over finite fields.

Cantor-Zassenhaus, Ben-Or's irreducibility test over F_p and the image
roots of ``fields._image_points`` all read its pieces.  The oracle is a
factorization by trial division by every monic polynomial of degree at
most n/2, over F2, F3 and F7 up to degree 6 and over F49 up to degree 4,
and for the irreducibility test sympy (a test extra) at the first image
prime.
"""

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modsym.factor import _ddf, _fp_irreducible, elems
from modsym.fields import (
    ExtField,
    FpField,
    _IMAGE_PRIMES,
    pderiv,
    pdivmod,
    pgcd,
    pmul,
)

try:
    import sympy
except ImportError:  # sympy is a test extra
    sympy = None

F7 = FpField(7)
FIELDS = {
    "F2": (FpField(2), 6),
    "F3": (FpField(3), 6),
    "F7": (F7, 6),
    "F49": (ExtField(F7, "i", (1, 0, 1)), 4),  # i^2 = -1
}


@lru_cache(maxsize=None)
def _monic(K, d):
    """Every monic polynomial of degree ``d`` over the finite field K."""
    return [tuple(c) + (K.one,) for c in product(list(elems(K)), repeat=d)]


def trial_factor(K, f):
    """{monic irreducible: multiplicity} of monic f, by trial division.

    The divisor of least degree is irreducible, and a factor of degree
    above half of what is left of f is what is left."""
    out, d = {}, 1
    while 2 * d <= len(f) - 1:
        for g in _monic(K, d):
            q, r = pdivmod(K, f, g)
            while not r and len(f) > 1:
                out[g], f = out.get(g, 0) + 1, q
                q, r = pdivmod(K, f, g)
        d += 1
    if len(f) > 1:
        out[f] = out.get(f, 0) + 1
    return out


def _prod(K, polys):
    out = (K.one,)
    for g in polys:
        out = pmul(K, out, g)
    return out


@st.composite
def monic_polys(draw, squarefree):
    K, top = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, top))
    c = draw(st.lists(st.sampled_from(list(elems(K))), min_size=n, max_size=n))
    f = tuple(c) + (K.one,)
    if squarefree:
        assume(len(pgcd(K, f, pderiv(K, f))) == 1)
    return K, f


@given(monic_polys(squarefree=True))
@settings(max_examples=150, deadline=None)
def test_pieces_multiply_to_f_and_hold_one_degree(case):
    K, f = case
    pieces = list(_ddf(K, f))
    assert _prod(K, [g for g, _ in pieces]) == f
    degrees = [d for _, d in pieces]
    assert degrees == sorted(set(degrees))
    facs = trial_factor(K, f)
    assert set(facs.values()) <= {1}
    for g, d in pieces:
        assert {len(h) - 1 for h in trial_factor(K, g)} == {d}
    assert _prod(K, [g for g, _ in pieces]) == _prod(K, facs)


@given(monic_polys(squarefree=False))
@settings(max_examples=150, deadline=None)
def test_first_piece_of_any_monic_f(case):
    K, f = case
    facs = trial_factor(K, f)
    d = min(len(h) - 1 for h in facs)
    assert next(_ddf(K, f)) == (_prod(K, [h for h in facs if len(h) - 1 == d]), d)


def test_first_piece_of_a_square():
    # (x-1)^2 (x^2+1) over F7, with x^2 + 1 irreducible
    assert trial_factor(F7, (1, 0, 1)) == {(1, 0, 1): 1}
    f = pmul(F7, pmul(F7, (6, 1), (6, 1)), (1, 0, 1))
    assert next(_ddf(F7, f)) == ((6, 1), 1)
    # (x^2+1)^2 (x^2+2): no linear factor, so the first piece has d = 2
    assert trial_factor(F7, (2, 0, 1)) == {(2, 0, 1): 1}
    g = pmul(F7, pmul(F7, (1, 0, 1), (1, 0, 1)), (2, 0, 1))
    assert next(_ddf(F7, g)) == (pmul(F7, (1, 0, 1), (2, 0, 1)), 2)


def test_the_last_piece_is_what_is_left():
    # an irreducible cubic times two linear factors over F7
    cubic = (3, 0, 0, 1)  # -3 is not a cube mod 7
    assert trial_factor(F7, cubic) == {cubic: 1}
    f = pmul(F7, cubic, pmul(F7, (1, 1), (2, 1)))
    assert list(_ddf(F7, f)) == [(pmul(F7, (1, 1), (2, 1)), 1), (cubic, 3)]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("n", range(2, 9))
def test_fp_irreducible_matches_sympy(n):
    p = _IMAGE_PRIMES[0]
    F = FpField(p)
    rng = random.Random(n)
    x = sympy.Symbol("x")
    draw = lambda d: tuple(rng.randrange(p) for _ in range(d)) + (1,)
    cases = [draw(n) for _ in range(30)]
    # a product of two draws, and a multiple of a square, are reducible
    cases.append(pmul(F, draw(n // 2), draw(n - n // 2)))
    cases.append(pmul(F, pmul(F, (3, 1), (3, 1)), draw(n - 2)))
    seen = set()
    for f in cases:
        assert len(f) - 1 == n
        expected = sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible
        assert _fp_irreducible(F, f) == expected
        seen.add(expected)
    assert seen == {True, False}

"""The native factoring over Q and Q(u) against sympy's ``factor_list``.

sympy is a test-only dependency; the module is skipped without it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.factor import factor, is_irreducible
from modsym.fields import FpField, QField, RatFunField, pmonic, pmul, ptrim

sympy = pytest.importorskip("sympy")

Q = QField()
QU = RatFunField(Q, "u")
X, T, U = sympy.symbols("x t u")


def _frac(r):
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def _rat(c):
    return sympy.Rational(c.numerator, c.denominator)


def sympy_q(f):
    """(lead, sorted [(monic factor, mult)]) of f over Q, by sympy."""
    poly = sympy.Poly([_rat(c) for c in reversed(f)], X, domain="QQ")
    facs = [
        (pmonic(Q, tuple(_frac(c) for c in reversed(g.all_coeffs()))), m)
        for g, m in poly.factor_list()[1]
    ]
    return f[-1], sorted(facs)


def _qu_expr(f):
    """Numerator of f in Q(u)[t] as a sympy expression in t, u."""
    expr = 0
    for i, (num, den) in enumerate(f):
        n = sum(_rat(c) * U ** j for j, c in enumerate(num))
        d = sum(_rat(c) * U ** j for j, c in enumerate(den))
        expr += n / d * T ** i
    return sympy.fraction(sympy.together(expr))[0]


def sympy_qu(f):
    """Sorted [(monic factor, mult)] of f over Q(u), by sympy."""
    out = []
    for g, m in sympy.factor_list(sympy.Poly(_qu_expr(f), T, U, domain="QQ"))[1]:
        gt = sympy.Poly(g.as_expr(), T)
        if gt.degree() == 0:
            continue  # content in u is a unit of Q(u)
        coeffs = []
        for c in reversed(gt.all_coeffs()):
            cu = sympy.Poly(c, U).all_coeffs()
            coeffs.append(QU.from_poly(ptrim(Q, [_frac(r) for r in reversed(cu)])))
        out.append((pmonic(QU, ptrim(QU, coeffs)), m))
    return sorted(out)


def q_poly(*ints):
    return tuple(Fraction(c) for c in ints)


def qu_poly(*coeffs):
    """Polynomial in t whose coefficients are polynomials in u (int lists)."""
    return ptrim(QU, [QU.from_poly(q_poly(*c)) for c in coeffs])


def product(K, polys):
    out = (K.one,)
    for p in polys:
        out = pmul(K, out, p)
    return out


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
q_factors = st.lists(rationals, min_size=1, max_size=3).flatmap(
    lambda low: st.fractions(min_value=1, max_value=6, max_denominator=3).map(
        lambda lead: tuple(low) + (lead,)
    )
)


class TestRationals:
    @given(st.lists(q_factors, min_size=1, max_size=4), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_random_products(self, polys, repeat):
        f = product(Q, polys + polys[:repeat])
        lead, facs = factor(Q, f)
        assert (lead, sorted(facs)) == sympy_q(f)

    def test_integer_content_and_nonmonic_factors(self):
        # 12 (3x + 2)(x + 1)(2x - 5) with content 12
        f = product(Q, [q_poly(12), q_poly(2, 3), q_poly(1, 1), q_poly(-5, 2)])
        lead, facs = factor(Q, f)
        assert lead == Fraction(72)
        assert (lead, sorted(facs)) == sympy_q(f)

    def test_repeated_factors(self):
        f = product(
            Q, [q_poly(-1, 1)] * 3 + [q_poly(1, 0, 1)] * 2 + [q_poly(3, 2), q_poly(-2, 0, 0, 1)]
        )
        lead, facs = factor(Q, f)
        assert sorted(m for _, m in facs) == [1, 1, 2, 3]
        assert (lead, sorted(facs)) == sympy_q(f)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_x_to_the_n_minus_one(self, n):
        f = q_poly(-1, *[0] * (n - 1), 1)
        lead, facs = factor(Q, f)
        # one cyclotomic factor per divisor of n
        assert len(facs) == sum(1 for d in range(1, n + 1) if n % d == 0)
        assert (lead, sorted(facs)) == sympy_q(f)

    def test_swinnerton_dyer_needs_recombination(self):
        # x^4 - 10x^2 + 1 is irreducible over Q but splits mod every prime
        f = q_poly(1, 0, -10, 0, 1)
        for p in (5, 7, 11, 13, 17):
            F = FpField(p)
            assert len(factor(F, tuple(F.from_int(int(c)) for c in f))[1]) > 1
        assert is_irreducible(Q, f)
        assert factor(Q, f) == sympy_q(f) == (Fraction(1), [(f, 1)])


qu_coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=3)
qu_factors = st.tuples(
    st.lists(qu_coeffs, min_size=1, max_size=2), st.lists(st.integers(1, 3), min_size=1, max_size=2)
).map(lambda tl: qu_poly(*tl[0], tl[1]))


class TestRatFunOverQ:
    @given(st.lists(qu_factors, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_random_products(self, polys):
        f = product(QU, polys)
        if len(f) < 2:
            return
        lead, facs = factor(QU, f)
        assert sorted(facs) == sympy_qu(f)

    def test_bad_specialization_at_zero(self):
        # at u = 0 the first collapses to t^3 and the second loses its degree;
        # u = 1 and u = -1 are bad for the third as well
        cases = [
            product(QU, [qu_poly([0, -1], [], [1]), qu_poly([0, -1], [1])]),
            qu_poly([-1], [], [0, 1]),
            product(QU, [qu_poly([0, -1], [1]), qu_poly([0, 1], [1]), qu_poly([-1], [1])]),
        ]
        for f in cases:
            lead, facs = factor(QU, f)
            assert sorted(facs) == sympy_qu(f)
            assert pmul(QU, (lead,), product(QU, [q for q, m in facs for _ in range(m)])) == f

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.errors import NotAlgebraicStep, PthPowerRoot, ReduciblePolynomial, ZeroDivisionInField
from modsym.fields import (
    ExtField,
    FpField,
    QField,
    RatFunField,
    field_to_descriptor,
    make_field,
    norm_to,
    padd,
    pgcd,
    pmul,
    trace,
    trace_norm,
    trace_to,
)

from conftest import rand_poly, rand_ratfun


class TestBaseFields:
    def test_q_arithmetic(self):
        Q = QField()
        a, b = Fraction(3, 4), Fraction(-2, 5)
        assert Q.add(a, b) == Fraction(7, 20)
        assert Q.mul(a, Q.inv(a)) == Q.one
        assert Q.char == 0

    def test_fp_inverse_table(self):
        F = FpField(7)
        for a in range(1, 7):
            assert F.mul(a, F.inv(a)) == F.one
        with pytest.raises(ZeroDivisionInField):
            F.inv(F.zero)

    def test_fp_requires_prime(self):
        from modsym.errors import NonPrimeCharacteristic

        with pytest.raises(NonPrimeCharacteristic):
            FpField(6)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_fp_ring_homomorphism(self, x, y):
        F = FpField(5)
        assert F.add(F.from_int(x), F.from_int(y)) == F.from_int(x + y)
        assert F.mul(F.from_int(x), F.from_int(y)) == F.from_int(x * y)


class TestRatFun:
    def test_reduced_representation(self):
        F = FpField(7)
        R = RatFunField(F, "u")
        # (u^2 - 1)/(u - 1) reduces to u + 1 with monic denominator
        v = R.make((F.from_int(-1), F.zero, F.one), (F.from_int(-1), F.one))
        assert v == ((F.one, F.one), (F.one,))

    def test_field_axioms_random(self, rng):
        R = RatFunField(FpField(5), "u")
        for _ in range(25):
            a = rand_ratfun(R, rng)
            b = rand_ratfun(R, rng)
            c = rand_ratfun(R, rng)
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(R.add(a, b), c) == R.add(R.mul(a, c), R.mul(b, c))
            if not R.is_zero(a):
                assert R.mul(a, R.inv(a)) == R.one

    def test_gcd_normalization(self, rng):
        K = RatFunField(FpField(7), "u")
        for _ in range(10):
            a = rand_poly(K, rng, 4)
            b = rand_poly(K, rng, 3)
            g = pgcd(K, a, b)
            if g:
                assert K.is_one(g[-1])  # monic
                from modsym.fields import pdivmod

                assert not pdivmod(K, a, g)[1]
                assert not pdivmod(K, b, g)[1]


class TestExtField:
    def test_quadratic_arithmetic(self):
        F = FpField(7)
        E = ExtField(F, "i", (F.one, F.zero, F.one))  # i^2 = -1
        i = E.gen()
        assert E.mul(i, i) == E.neg(E.one)
        assert E.mul(i, E.inv(i)) == E.one
        assert E.size() == 49

    def test_trace_and_norm(self):
        F = FpField(7)
        E = ExtField(F, "i", (F.one, F.zero, F.one))
        i = E.gen()
        tr, nm = trace_norm(E, i)
        assert tr == F.zero  # i + i^7 = i - i
        assert nm == F.one  # i * (-i) = 1
        a = E.add(E.lift(F.from_int(3)), i)  # 3 + i
        tr, nm = trace_norm(E, a)
        assert tr == F.from_int(6)
        assert nm == F.from_int(3)  # (3+i)(3-i) = 9+1 = 10 = 3

    def test_inseparable_flag_autodetected(self):
        F = FpField(3)
        K = RatFunField(F, "y")
        y = K.from_poly((F.zero, F.one))
        L = ExtField(K, "x", (K.neg(y), K.zero, K.zero, K.one))
        assert L.inseparable
        E = ExtField(F, "i", (F.one, F.one, F.one))
        assert not E.inseparable

    def test_pth_root_in_finite_field(self):
        F = FpField(5)
        for a in range(5):
            r = F.pth_root(F.from_int(a))
            assert F.pow(r, 5) == F.from_int(a)

    def test_frobenius_tower(self):
        F = FpField(2)
        E = ExtField(F, "w", (F.one, F.one, F.one))  # F_4
        for a in [E.zero, E.one, E.gen(), E.add(E.gen(), E.one)]:
            r = E.pth_root(a)
            assert E.mul(r, r) == a

    def test_trace_transitivity(self, rng):
        F = FpField(3)
        E1 = ExtField(F, "a", (F.one, F.zero, F.one))  # a^2 = -1
        m = None
        # find an irreducible quadratic over E1
        from modsym.factor import is_irreducible

        for c0 in range(3):
            cand = (E1.add(E1.gen(), E1.lift(F.from_int(c0))), E1.zero, E1.one)
            if is_irreducible(E1, cand):
                m = cand
                break
        E2 = ExtField(E1, "b", m)
        for _ in range(5):
            x = E2.rand(rng)
            assert trace_to(E2, F, x) == trace_to(E1, F, trace_norm(E2, x)[0])
            assert norm_to(E2, F, x) == norm_to(E1, F, trace_norm(E2, x)[1])


def _extensions():
    F7, Q = FpField(7), QField()
    F7u = RatFunField(F7, "u")
    u = F7u.from_poly((F7.zero, F7.one))
    return [
        ExtField(F7, "i", (F7.one, F7.zero, F7.one)),
        ExtField(Q, "r", (Fraction(-5, 4), Fraction(2, 3), Q.zero, Q.one)),
        ExtField(F7u, "s", (F7u.neg(u), F7u.one, F7u.zero, F7u.zero, F7u.one)),
        ExtField(F7u, "x", (F7u.neg(u),) + (F7u.zero,) * 6 + (F7u.one,)),  # inseparable
    ]


@pytest.mark.parametrize("E", _extensions(), ids=repr)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_trace_is_the_trace_of_the_multiplication_matrix(E, seed):
    a = E.rand(random.Random(seed))
    K, x = E.below, E.gen()
    col, diag = E.one, K.zero
    for i in range(E.deg):
        diag = K.add(diag, E.mul(a, col)[i])
        col = E.mul(col, x)
    assert trace(E, a) == diag == trace_norm(E, a)[0]


def test_trace_needs_an_algebraic_top_step(F7u):
    for fn in (trace, trace_norm):
        with pytest.raises(NotAlgebraicStep):
            fn(F7u, F7u.one)


class TestDescriptors:
    def test_roundtrip(self):
        F = make_field({"base": "Fp", "p": 7, "steps": [{"ratfun": "u"}]})
        assert isinstance(F, RatFunField) and F.char == 7
        assert make_field(field_to_descriptor(F)) == F

    def test_reducible_rejected(self):
        with pytest.raises(ReduciblePolynomial):
            make_field(
                {
                    "base": "Fp",
                    "p": 7,
                    "steps": [{"simple": {"var": "a", "min_poly": ["6", "0", "1"]}}],
                }
            )

    def test_insep_root_of_pth_power_rejected(self):
        with pytest.raises(PthPowerRoot):
            make_field(
                {
                    "base": "Fp",
                    "p": 3,
                    "steps": [{"insep_root": {"var": "x", "y": "1"}}],
                }
            )

    def test_elem_json_roundtrip(self, rng):
        F = make_field(
            {
                "base": "Fp",
                "p": 5,
                "steps": [
                    {"ratfun": "u"},
                    {
                        "simple": {
                            "var": "a",
                            "min_poly": [{"num": ["0", "1"], "den": ["1"]}, 0, 1],
                        }
                    },
                ],
            }
        )
        for _ in range(5):
            x = F.rand(rng)
            assert F.elem_from_json(F.elem_to_json(x)) == x


@pytest.mark.parametrize("name", ["F7(u)", "F7(u)(v)", "Q(u)"])
def test_polynomial_sum_and_product_match_make(name, rng):
    """``add`` and ``mul`` of two polynomials (both denominators 1) return the
    numerator sum or product over 1, which is what ``make`` reduces them to."""
    R = {
        "F7(u)": RatFunField(FpField(7), "u"),
        "F7(u)(v)": RatFunField(RatFunField(FpField(7), "u"), "v"),
        "Q(u)": RatFunField(QField(), "u"),
    }[name]
    K = R.below
    for _ in range(30):
        n1 = rand_poly(K, rng, rng.randrange(4), nonzero=True)
        n2 = rand_poly(K, rng, rng.randrange(4), nonzero=True)
        a, b = R.from_poly(n1), R.from_poly(n2)
        assert a[1] == b[1] == (K.one,)
        assert R.add(a, b) == R.make(padd(K, n1, n2), (K.one,))
        assert R.mul(a, b) == R.make(pmul(K, n1, n2), (K.one,))
        assert R.add(a, R.neg(a)) == R.zero

"""Residues at high pole multiplicity: ``_dt_residue`` inverts the cofactor
C of ``den = P^m * C`` by one ``pinv_mod`` against P^m.

``tests/test_residues.py`` draws poles of multiplicity at most 3.  Here the
multiplicity goes to 8 against the Laurent route (``laurent_residue``) and
to 12 in Weil reciprocity, over F7(u), Q(u), Q(√2) and F49.  Each test runs
within ``BUDGET_S`` seconds.
"""

import time

import pytest

from modsym.fields import ExtField, FpField, QField, RatFunField, pmul, _upow
from modsym.kahler import DifferentialForm
from modsym.localfield import reciprocity_sum, residue_form

from test_residues import laurent_residue

# Seconds per test; the m = 12 reciprocity sums take well under one second
# each on one core.
BUDGET_S = 30.0

F7, Q = FpField(7), QField()
F7u, Qu = RatFunField(F7, "u"), RatFunField(Q, "u")
Qr2 = ExtField(Q, "r", (Q.from_int(-2), Q.zero, Q.one))
F49 = ExtField(F7, "i", (F7.one, F7.zero, F7.one))


def _u(K, *c):
    """The polynomial sum c_k u^k of K = F(u)."""
    return K.from_poly(tuple(K.below.from_int(x) for x in c))


def _points(K):
    """Named monic irreducible points of K[t] and a cofactor C prime to them."""
    if K in (F7u, Qu):
        u, one = _u(K, 0, 1), K.one
        pts = {"t^2+u": (u, K.zero, one)}
        if K == F7u:
            pts["t^2+u*t+1"] = (one, u, one)
        return pts, (_u(K, 1, 1), u, K.zero, one)  # t^3 + u t + u + 1
    gen = K.gen()
    pts = {"t-x": (K.neg(gen), K.one), "t+1+x": (K.add(K.one, gen), K.one)}
    return pts, (K.from_int(3), K.zero, K.one)  # t^2 + 3


def _numerator(K):
    """A fixed numerator of degree 5 with coefficients that are not constants."""
    c = _u(K, 0, 1) if K in (F7u, Qu) else K.gen()
    return tuple(K.add(K.from_int(k + 1), K.mul(K.from_int(k % 3), c)) for k in range(6))


def _function(K, point, m):
    """num/(P^m C) in K(t)."""
    R = RatFunField(K, "t")
    return R, R.make(_numerator(K), pmul(K, _upow(K, point, m), _points(K)[1]))


CASES = (
    [(F7u, name, m) for name in ("t^2+u*t+1", "t^2+u") for m in (4, 6, 8)]
    + [(Qu, "t^2+u", 4)]
    + [(K, name, m) for K in (Qr2, F49) for name in ("t-x", "t+1+x") for m in (4, 6, 8)]
)


@pytest.mark.parametrize(
    "K, name, m", CASES, ids=[f"{K!r}-{name}-m{m}" for K, name, m in CASES]
)
def test_residue_at_a_high_power_matches_laurent_route(K, name, m):
    start = time.perf_counter()
    point = _points(K)[0][name]
    R, f = _function(K, point, m)
    forms = [DifferentialForm(R, 1, {("t",): f})]
    if K in (F7u, Qu):
        forms.append(DifferentialForm(R, 2, {("u", "t"): f}))
    for form in forms:
        got = residue_form(R, form, point)
        assert not got.is_zero()
        assert got == laurent_residue(R, form, point)
    assert time.perf_counter() - start <= BUDGET_S


@pytest.mark.parametrize("name", ["t^2+u*t+1", "t^2+u"])
def test_reciprocity_up_to_multiplicity_12(name):
    start = time.perf_counter()
    point = _points(F7u)[0][name]
    for m in (4, 8, 12):
        R, g = _function(F7u, point, m)
        f = R.make((_u(F7u, 0, 1), F7u.one), (F7u.from_int(2), F7u.one))  # (t+u)/(t+2)
        for a in (DifferentialForm.scalar(R, g), DifferentialForm(R, 1, {("u",): g})):
            assert reciprocity_sum(R, a, f).is_zero(), m
    assert time.perf_counter() - start <= BUDGET_S

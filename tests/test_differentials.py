"""One construction of differential forms.

* ``differential`` applies the quotient rule to coefficient polynomials;
  the reduced-fraction quotient rule it replaced is kept here as the oracle;
* the Leibniz and quotient rules and ``dlog(ab) = dlog a + dlog b`` hold
  over rational-function steps, over a separable step whose minimal
  polynomial has a differential (x^2 - u over F7(u)) and over an
  inseparable step (x^3 - y over F3(y));
* the sign of a wedge is the parity of the permutation sorting its slots;
* at a rational point t = theta + s, dt = ds + d(theta): an Omega conductor
  sees the d(theta) part, and a cancellation in it raises the precision;
* ``admissible`` takes one map per factor of the target.
"""

import io
import itertools
import json
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import cli
from modsym.fields import ExtField, FpField, QField, RatFunField, pderiv, ptrim
from modsym.kahler import DifferentialForm, _elim_data, basis_vars, differential, dlog
from modsym.localfield import form_conductor
from modsym.modpairs import admissible, pair_gm, pair_p1, product_pair
from modsym.curve import Divisor, INF

Q, F3, F7 = QField(), FpField(3), FpField(7)
F7u = RatFunField(F7, "u")
F3y = RatFunField(F3, "y")
Qr = ExtField(Q, "r", (Q.from_int(-2), Q.zero, Q.one))  # r^2 = 2
FIELDS = {
    "Q(t)": RatFunField(Q, "t"),
    "F7(u)(t)": RatFunField(F7u, "t"),
    "Q(sqrt2)(t)": RatFunField(Qr, "t"),
    # separable, with dm = -du != 0: dx = du / (2x)
    "F7(u)[x]/(x^2-u)": ExtField(F7u, "x", (F7u.neg(F7u.from_poly((0, 1))), F7u.zero, F7u.one)),
    # inseparable: dy = 3x^2 dx = 0, and dx is the new basis element
    "F3(y)[x]/(x^3-y)": ExtField(F3y, "x", (F3y.neg(F3y.from_poly((0, 1))), F3y.zero, F3y.zero, F3y.one)),
}


# -- the oracle: the quotient rule on reduced fractions ---------------------


def _oracle_collect(K, poly_dicts):
    B = K.below
    vs = set()
    for dct in poly_dicts:
        vs |= set(dct)
    out = {}
    for v in vs:
        vec = [dct.get(v, B.zero) for dct in poly_dicts]
        if isinstance(K, RatFunField):
            out[v] = K.make(ptrim(B, vec), (B.one,))
        else:
            out[v] = K.make(ptrim(B, vec))
    return out


def oracle_d(K, a):
    """d(a), one reduced-fraction operation per step and basis variable."""
    if K.below is None:
        return {}
    B = K.below
    if isinstance(K, RatFunField):
        num, den = a

        def dpoly(poly):
            out = _oracle_collect(K, [oracle_d(B, c) for c in poly])
            dp = pderiv(B, poly)
            if dp:
                out[K.var] = K.add(out.get(K.var, K.zero), K.make(dp, (B.one,)))
            return out

        dnum, dden = dpoly(num), dpoly(den)
        numK = K.make(num, (B.one,))
        denK = K.make(den, (B.one,))
        den2 = K.mul(denK, denK)
        res = {}
        for v in set(dnum) | set(dden):
            val = K.sub(K.mul(dnum.get(v, K.zero), denK), K.mul(numK, dden.get(v, K.zero)))
            val = K.div(val, den2)
            if not K.is_zero(val):
                res[v] = val
        return res

    res = _oracle_collect(K, [oracle_d(B, c) for c in a])
    aprime = pderiv(B, a)
    aprimeK = K.make(aprime) if aprime else K.zero
    if not K.inseparable:
        m = K.minpoly
        mprimeK = K.make(pderiv(B, m))
        dm = _oracle_collect(K, [oracle_d(B, c) for c in m])
        for v, w in dm.items():
            dx_v = K.neg(K.div(w, mprimeK))
            res[v] = K.add(res.get(v, K.zero), K.mul(aprimeK, dx_v))
    else:
        if not K.is_zero(aprimeK):
            res[K.var] = K.add(res.get(K.var, K.zero), aprimeK)
        v0, dy = _elim_data(K)
        c0 = res.pop(v0, K.zero)
        if not K.is_zero(c0):
            inv = K.inv(dy[v0])
            for v, w in dy.items():
                if v == v0:
                    continue
                res[v] = K.sub(res.get(v, K.zero), K.mul(c0, K.mul(w, inv)))
    return {v: w for v, w in res.items() if not K.is_zero(w)}


def nonzero(K, rng):
    while True:
        a = K.rand(rng)
        if not K.is_zero(a):
            return a


field_and_rng = st.tuples(st.sampled_from(sorted(FIELDS)), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(field_and_rng)
def test_differential_matches_the_reduced_fraction_oracle(case):
    K, rng = FIELDS[case[0]], random.Random(case[1])
    for a in (K.rand(rng), K.rand(rng), K.gen() if isinstance(K, ExtField) else K.rand(rng)):
        assert differential(K, a).coords == {(v,): c for v, c in oracle_d(K, a).items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(field_and_rng)
def test_leibniz_quotient_and_dlog_rules(case):
    K, rng = FIELDS[case[0]], random.Random(case[1])
    a, b = nonzero(K, rng), nonzero(K, rng)
    da, db = differential(K, a), differential(K, b)
    assert differential(K, K.mul(a, b)) == da.scale(b) + db.scale(a)
    quotient = (da.scale(b) - db.scale(a)).scale(K.inv(K.mul(b, b)))
    assert differential(K, K.div(a, b)) == quotient
    assert dlog(K, K.mul(a, b)) == dlog(K, a) + dlog(K, b)


def test_the_step_with_dm_and_the_inseparable_step():
    K = FIELDS["F7(u)[x]/(x^2-u)"]
    u, x = K.lift(F7u.from_poly((0, 1))), K.gen()
    # 2x dx = du
    assert differential(K, x) == DifferentialForm(K, 1, {("u",): K.inv(K.add(x, x))})
    L = FIELDS["F3(y)[x]/(x^3-y)"]
    assert basis_vars(L) == ("x",)
    assert differential(L, L.lift(F3y.from_poly((0, 1)))).is_zero()  # dy = 0
    assert differential(L, L.gen()) == DifferentialForm(L, 1, {("x",): L.one})


# -- the wedge sign -----------------------------------------------------------


def parity(perm):
    """Parity of a permutation of range(n), by counting its even cycles."""
    seen, odd = set(), 0
    for i in range(len(perm)):
        n = 0
        while i not in seen:
            seen.add(i)
            i = perm[i]
            n += 1
        odd += n and (n - 1) % 2
    return odd % 2


def test_wedge_sign_is_the_permutation_parity():
    K = RatFunField(RatFunField(RatFunField(RatFunField(Q, "a"), "b"), "c"), "t")
    names = basis_vars(K)
    assert names == ("a", "b", "c", "t")
    one_forms = {v: DifferentialForm(K, 1, {(v,): K.one}) for v in names}
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            form = DifferentialForm(K, 0, {(): K.one})
            for i in perm:
                form = form.wedge(one_forms[names[i]])
            sign = K.from_int(-1 if parity(perm) else 1)
            assert form.coords == {names[:n]: sign}
        # a repeated slot gives zero
        assert one_forms["a"].wedge(one_forms["b"]).wedge(one_forms["a"]).is_zero()


# -- dt = ds + d(theta) at rational points --------------------------------------


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["--json", *argv])
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("field", ["Q(u)(t)", "F5(u)(t)"])
def test_omega_conductor_sees_dtheta(field):
    # t/(t-u) dlog t = dt/(t-u) = ds/s + du/s, and du/s has level 2
    code, body = run("conductor", "--tag", "Omega(1)", "--field", field, "--f", "t/(t-u)",
                     "--dlog", "t", "--point", "t-u")
    assert code == 0 and body["result"] == 2
    assert body["witness"] == {"s": {"level": 1, "valuation": -1}, "u": {"level": 2, "valuation": -1}}
    # dlog(t-u) = ds/s: du cancels
    code, body = run("conductor", "--tag", "Omega(1)", "--field", field, "--f", "1",
                     "--dlog", "t-u", "--point", "t-u")
    assert code == 0 and body["result"] == 1 and body["witness"] == {"s": {"level": 1, "valuation": -1}}


def test_dtheta_cancellation_raises_the_precision():
    K = RatFunField(Q, "u")
    R = RatFunField(K, "t")
    u, t = R.lift(K.from_poly((0, 1))), R.from_poly((K.zero, K.one))
    s = R.sub(t, u)
    b = R.inv(s)
    a = R.add(R.neg(b), R.pow(s, 5))
    # a du + b dt = s^5 du + ds/s: the du coefficient has valuation 5, not -1
    form = DifferentialForm(R, 1, {("u",): a, ("t",): b})
    prof = form_conductor(R, form, (K.neg(K.from_poly((0, 1))), K.one))
    assert prof.result == 1
    assert prof.witness == {"s": {"level": 1, "valuation": -1}, "u": {"level": 0, "valuation": 5}}


def test_dt_at_a_point_of_degree_two_with_dtheta_stays_refused():
    code, body = run("conductor", "--tag", "Omega(1)", "--field", "Q(u)(t)", "--f", "1",
                     "--dlog", "t", "--point", "t^2-u")
    assert (code, body) == (0, {"characteristic": 0, "result": 0, "tag": "Omega(1)",
                                "witness": {"s": {"level": 0, "valuation": 0},
                                            "u": {"level": 0, "valuation": 0}}})


# -- one map per factor of the target -------------------------------------------


@pytest.mark.parametrize("gs, target, expected", [
    (["t"], "gm", (0, {"admissible": True})),
    (["t", "t"], "gm", (1, "validation")),
    (["t"], "prod:ga,gm:sum", (1, "validation")),
    (["t", "t", "t"], "prod:ga,gm:sum", (1, "validation")),
    (["t", "1/t"], "prod:ga,gm:sum", (0, {"admissible": False})),
])
def test_admissible_takes_one_map_per_factor(gs, target, expected):
    argv = ["admissible", "--field", "Q(t)", "--source", "t:1,inf:1", "--target", target]
    for g in gs:
        argv += ["--g", g]
    code, body = run(*argv)
    if expected[0] == 1:
        assert (code, body["error"]) == expected
    else:
        assert (code, body) == expected


def test_admissible_library_refuses_a_wrong_count():
    R = RatFunField(Q, "t")
    t = R.from_poly((Q.zero, Q.one))
    source = pair_p1(Divisor(R, {INF: 1, (Q.zero, Q.one): 1}))
    with pytest.raises(ValueError):
        admissible((t,), source, product_pair(pair_gm(R), pair_gm(R), "sum"))
    with pytest.raises(ValueError):
        admissible((t, t), source, pair_gm(R))

"""The Zech-log kernels of ``pmul``, ``pdivmod``, ``pgcd`` and ``ppow_mod``
over a tabled F_q against the generic loops.

Over exactly an ``ExtField`` with Zech tables the kernels run on lists of
logs.  The oracle is the same field over ``GenericFp``, a subclass of
``FpField`` that gets no table, so every kernel runs its generic loop on the
same coefficient tuples.  The cases include zero polynomials, non-monic
divisors, n = 0 and ``deg a >= deg m``.  A subclass of ``ExtField``, a
field whose ``_zech`` is None and a tuple not in canonical form must take
the generic path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import fields
from modsym.errors import ZeroDivisionInField
from modsym.factor import is_irreducible
from modsym.fields import ExtField, FpField, pdivmod, pgcd, pmod, pmul, ppow_mod, ptrim

from test_kernels import GenericFp

FIELDS = {
    "F4": (2, (1, 1, 1)),
    "F8": (2, (1, 1, 0, 1)),
    "F9": (3, (1, 0, 1)),
    "F49": (7, (1, 0, 1)),
    "F81": (3, (2, 0, 0, 2, 1)),
    "F256": (2, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
}


def _pair(name):
    p, minpoly = FIELDS[name]
    return ExtField(FpField(p), "x", minpoly), ExtField(GenericFp(p), "x", minpoly)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(FIELDS)), label="field")
    E, G = _pair(name)
    p, d = E.below.p, E.deg
    coeff = st.tuples(*[st.integers(0, p - 1)] * d)
    # zero and one often, so cancellations, zero polynomials and monic
    # divisors occur
    elem = st.one_of(st.sampled_from([E.zero, E.one]), coeff)

    def poly(lo, hi):
        return ptrim(E, draw(st.lists(elem, min_size=lo, max_size=hi)))

    a, b, m = poly(0, 12), poly(0, 6), poly(1, 6)
    if not m:
        m = (E.one,)
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from([E.size() - 1, E.size()])), label="n")
    return E, G, a, b, m, n


@given(cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_log_kernels_match_the_generic_loops(case):
    E, G, a, b, m, n = case
    assert E._zsums is not None and G._zech is None
    assert pmul(E, a, b) == pmul(G, a, b)
    assert pmul(E, a, m) == pmul(G, a, m)
    assert pdivmod(E, a, m) == pdivmod(G, a, m)
    assert pgcd(E, a, b) == pgcd(G, a, b)
    assert pgcd(E, pmul(E, a, m), pmul(E, b, m)) == pgcd(G, pmul(G, a, m), pmul(G, b, m))
    assert ppow_mod(E, a, n, m) == ppow_mod(G, a, n, m)
    if b:
        assert pdivmod(E, a, b) == pdivmod(G, a, b)
    else:
        with pytest.raises(ZeroDivisionInField):
            pdivmod(E, a, b)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_edge_cases(name):
    E, G = _pair(name)
    assert is_irreducible(FpField(E.below.p), E.minpoly)
    x = (0, 1) + E.zero[2:]  # the generator
    m = (E.one, x, E.one, E.add(E.one, x))  # non-monic
    big = tuple(E.make(((i * 3) % E.below.p, 1)) for i in range(9))  # deg a >= deg m
    for f in (E, G):
        assert pmul(f, (), big) == pmul(f, big, ()) == ()
        assert pdivmod(f, (), m) == ((), ())
        assert pgcd(f, (), ()) == ()
        assert ppow_mod(f, big, 0, m) == (E.one,)
        assert ppow_mod(f, (), 3, m) == ()
    assert pgcd(E, big, ()) == pgcd(G, big, ())
    assert pdivmod(E, big, m) == pdivmod(G, big, m)
    assert ppow_mod(E, big, 1, m) == ppow_mod(G, big, 1, m) == pmod(G, big, m)
    t, n = (E.zero, E.one), E.size() ** 2
    assert ppow_mod(E, t, n, m) == ppow_mod(G, t, n, m)
    # an untrimmed quotient: the top coefficient of a is zero
    assert pdivmod(E, big + (E.zero,), m) == pdivmod(G, big + (E.zero,), m)
    with pytest.raises(ZeroDivisionInField):
        pdivmod(E, big, (E.one, E.zero))  # a zero last coefficient


class GenericExt(ExtField):
    """An ``ExtField`` through the generic kernels."""


def test_other_fields_take_the_generic_path(monkeypatch):
    E, G = _pair("F49")
    sub = GenericExt(E.below, "x", E.minpoly)
    untabled = ExtField(E.below, "x", E.minpoly)
    untabled._zech = None
    a = tuple(E.make((i, 6 - i)) for i in range(7))
    m = (E.make((3, 1)), E.one, E.zero, E.make((2, 5)))
    want = pmul(E, a, a), pdivmod(E, a, m), pgcd(E, a, m), ppow_mod(E, a, 50, m)

    def fail(*args):
        raise AssertionError("a log kernel ran")

    monkeypatch.setattr(fields, "_zech_axpy", fail)
    for f in (sub, untabled, G):
        assert (pmul(f, a, a), pdivmod(f, a, m), pgcd(f, a, m), ppow_mod(f, a, 50, m)) == want
    # a tuple not in canonical form has no log: the generic loop reads it
    odd = ((8, -2),) + a[1:]
    assert pmul(E, odd, (E.one,)) == pmul(G, odd, (E.one,))

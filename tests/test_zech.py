"""Zech log tables of ``ExtField`` over exactly ``FpField`` with q <= 256.

``mul``, ``inv`` and ``pth_root`` of a tabled field are checked on every
element (pair) against the same field over ``GenericFp``, a subclass of
``FpField`` that gets no table and runs the generic loops.  Rings that are
not fields, fields above the cap, zero and non-canonical tuples take the
int path.
"""

from itertools import product

import pytest

from modsym.errors import ZeroDivisionInField
from modsym.factor import is_irreducible
from modsym.fields import CACHE_SIZE, ExtField, FpField, _zech_tables

from test_kernels import GenericFp


TABLED = {
    "F49 = F7[i]/(i^2+1)": (7, (1, 0, 1)),
    "F8 = F2[x]/(x^3+x+1)": (2, (1, 1, 0, 1)),
    "F81 = F3[x]/(x^4+2x^3+2)": (3, (2, 0, 0, 2, 1)),
}
UNTABLED = {
    "F13[i]/(i^2+1), not a field": (13, (1, 0, 1)),
    "F343 = F7[x]/(x^3-2), above the cap": (7, (5, 0, 0, 1)),
}


def _pair(p, minpoly):
    return ExtField(FpField(p), "x", minpoly), ExtField(GenericFp(p), "x", minpoly)


def _elements(E):
    return list(product(range(E.below.p), repeat=E.deg))


@pytest.mark.parametrize("name", sorted(TABLED))
def test_tables_match_the_generic_path_on_every_pair(name):
    p, minpoly = TABLED[name]
    assert is_irreducible(FpField(p), minpoly)
    E, G = _pair(p, minpoly)
    assert E._zech is not None and G._zech is None
    elems = _elements(E)
    for a in elems:
        for b in elems:
            assert E.mul(a, b) == G.mul(a, b)
        assert E.pth_root(a) == G.pth_root(a)
        if a != E.zero:
            assert E.inv(a) == G.inv(a)


@pytest.mark.parametrize("name", sorted(UNTABLED))
def test_no_table_outside_fields_up_to_the_cap(name, rng):
    p, minpoly = UNTABLED[name]
    E, G = _pair(p, minpoly)
    assert E._zech is None
    elems = _elements(E)
    for _ in range(300):
        a, b = rng.choice(elems), rng.choice(elems)
        assert E.mul(a, b) == G.mul(a, b)
        assert E.pth_root(a) == G.pth_root(a)
        try:
            inv = E.inv(a)
        except ZeroDivisionInField:  # zero, or a zero divisor of F13[i]
            with pytest.raises(ZeroDivisionInField):
                G.inv(a)
        else:
            assert inv == G.inv(a)


def test_zero_and_non_canonical_tuples_take_the_int_path():
    E, G = _pair(*TABLED["F49 = F7[i]/(i^2+1)"])
    a, b = (3, 5), (8, -2)  # b is (1, 5) with coefficients outside [0, 7)
    assert b not in E._zech[0]
    assert E.mul(a, b) == E.mul(a, (1, 5)) == G.mul(a, b)
    assert E.inv(b) == E.inv((1, 5))
    assert E.pth_root(b) == E.pth_root((1, 5))
    assert E.mul(E.zero, a) == E.mul(a, E.zero) == E.zero
    assert E.pth_root(E.zero) == E.zero
    with pytest.raises(ZeroDivisionInField):
        E.inv(E.zero)


def test_one_table_per_p_and_minimal_polynomial():
    F7 = FpField(7)
    E = ExtField(F7, "a", (1, 0, 1))
    assert ExtField(FpField(7), "b", (8, 7, 1))._zech is E._zech
    log, exp = E._zech
    assert len(log) == 48 and len(exp) == 96
    assert exp[0] == E.one and set(exp[:48]) == set(log)
    assert _zech_tables.cache_info().maxsize == CACHE_SIZE

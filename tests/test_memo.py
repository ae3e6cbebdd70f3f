"""The memos of ``factor`` and ``trace_norm`` are invisible in results.

Both are ``functools.lru_cache`` wrappers: ``__wrapped__`` is the uncached
body, the oracle here.  The README commands run once per seed with both
caches cleared, so each run computes everything afresh.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import cli, kahler
from modsym import factor as factor_mod
from modsym.factor import _factor_cached, factor
from modsym.fields import (
    CACHE_SIZE,
    ExtField,
    FpField,
    QField,
    RatFunField,
    _trace_norm,
    pmul,
    ptrim,
    trace_norm,
)

from conftest import rand_poly
from test_no_sympy import README_COMMANDS

F7 = FpField(7)
Q = QField()
F7U = RatFunField(F7, "u")
F49 = ExtField(F7, "i", (F7.one, F7.zero, F7.one))  # i^2 = -1
QR2 = ExtField(Q, "r", (Fraction(-2), Q.zero, Q.one))  # r^2 = 2
U = F7U.from_poly((F7.zero, F7.one))
F7U_SQRT_U = ExtField(F7U, "s", (F7U.neg(U), F7U.zero, F7U.one))  # s^2 = u

FIELDS = {"F7": F7, "Q": Q, "F7(u)": F7U, "F49": F49, "Q(sqrt2)": QR2}
EXTENSIONS = {"F49": F49, "Q(sqrt2)": QR2, "F7(u)(sqrt u)": F7U_SQRT_U}

fields = st.sampled_from(sorted(FIELDS)).map(FIELDS.get)
extensions = st.sampled_from(sorted(EXTENSIONS)).map(EXTENSIONS.get)
seeds = st.integers(0, 2**32 - 1)


def _product(K, seed):
    """a * b^2 with a, b random of degree 1..2, so repeated factors occur."""
    rng = random.Random(seed)
    a = rand_poly(K, rng, rng.randint(1, 2))
    b = rand_poly(K, rng, rng.randint(1, 2))
    return pmul(K, a, pmul(K, b, b))


def _uncached_factor(K, f):
    lead, items = _factor_cached.__wrapped__(K, ptrim(K, f))
    return lead, list(items)


def _clear_caches():
    _factor_cached.cache_clear()
    _trace_norm.cache_clear()


def test_bound_is_the_module_constant():
    assert _factor_cached.cache_info().maxsize == CACHE_SIZE
    assert _trace_norm.cache_info().maxsize == CACHE_SIZE


def test_kahler_memos_are_bounded():
    # one entry per residue field: unbounded, they grow with every point seen
    assert kahler.basis_vars.cache_info().maxsize == CACHE_SIZE
    assert kahler._elim_data.cache_info().maxsize == CACHE_SIZE


@given(fields, seeds)
@settings(max_examples=40, deadline=None)
def test_factor_equals_uncached_body(K, seed):
    f = _product(K, seed)
    assert factor(K, f) == _uncached_factor(K, f)
    assert factor(K, f) == _uncached_factor(K, f)  # a hit too


@given(extensions, seeds)
@settings(max_examples=40, deadline=None)
def test_trace_norm_equals_uncached_body(E, seed):
    a = E.rand(random.Random(seed))
    assert trace_norm(E, a) == _trace_norm.__wrapped__(E, a)
    assert trace_norm(E, a) == _trace_norm.__wrapped__(E, a)


@given(fields, seeds)
@settings(max_examples=20, deadline=None)
def test_factor_list_and_tuple_input_agree(K, seed):
    f = _product(K, seed)
    assert factor(K, list(f)) == factor(K, tuple(f))
    assert factor(K, list(f) + [K.zero]) == factor(K, f)  # trimmed before keying


@given(extensions, seeds)
@settings(max_examples=20, deadline=None)
def test_trace_norm_list_and_tuple_input_agree(E, seed):
    a = E.rand(random.Random(seed))
    assert trace_norm(E, list(a)) == trace_norm(E, tuple(a))


@given(fields, seeds)
@settings(max_examples=20, deadline=None)
def test_mutating_a_result_does_not_reach_the_cache(K, seed):
    f = _product(K, seed)
    expected = _uncached_factor(K, f)
    _, items = factor(K, f)
    items.append(((K.one,), 99))
    items.reverse()
    assert factor(K, f) == expected
    factor(K, f)[1].clear()
    assert factor(K, f) == expected


@pytest.mark.parametrize("rng_seed", [1, 2, 20260824])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_factor_result_does_not_depend_on_the_rng_seed(monkeypatch, name, rng_seed):
    K = FIELDS[name]
    reference = [_uncached_factor(K, _product(K, s)) for s in range(4)]
    monkeypatch.setattr(factor_mod, "_RNG_SEED", rng_seed)
    assert [_uncached_factor(K, _product(K, s)) for s in range(4)] == reference


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_stdout_is_seed_independent(monkeypatch, capsys, argv):
    # cli.main sets factor._RNG_SEED; monkeypatch puts the original back
    monkeypatch.setattr(factor_mod, "_RNG_SEED", factor_mod._RNG_SEED)
    outs = []
    for seed in ("1", "2"):
        _clear_caches()
        assert cli.main(["--json", "--seed", seed, *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

"""``dlog_wedge`` answers zero by rank.

Omega^1_K is free on ``basis_vars(K)``, so a wedge of more dlogs than its
rank is zero; ``dlog_wedge`` then takes no further dlog, but still checks
every entry for zero, in order, reading its argument lazily.  The oracle is
the wedge of the single dlogs d(b)/b.
"""

import random
from fractions import Fraction

import pytest

from modsym import cli
from modsym.curve import residue_field
from modsym.errors import UnsupportedField, ZeroArgument
from modsym.fields import ExtField, FpField, QField, RatFunField
from modsym.kahler import DifferentialForm, basis_vars, differential, dlog, dlog_wedge

Q, F7 = QField(), FpField(7)
F7ut = RatFunField(RatFunField(F7, "u"), "t")
F7u = F7ut.below


def _t_poly(*coeffs):
    """A point of F7(u)(t): a monic polynomial in t over F7(u)."""
    return tuple(F7u.make(c, (1,)) for c in coeffs)


FIELDS = {
    "Q": Q,
    "Q(t)": RatFunField(Q, "t"),
    "F49": ExtField(F7, "i", (1, 0, 1)),
    "Q(sqrt2)": ExtField(Q, "a", (Fraction(-2), Fraction(0), Fraction(1))),
    "F7(u)(t)": F7ut,
    # residue fields over F7(u): a separable point and an inseparable one
    "F7(u)[t]/(t^2+u)": residue_field(F7ut, _t_poly((0, 1), (), (1,))),
    "F7(u)[t]/(t^7-u)": residue_field(F7ut, _t_poly((0, 6), *[()] * 6, (1,))),
}


def _wedge_of_dlogs(K, bs):
    out = DifferentialForm(K, 0, {(): K.one})
    for b in bs:
        out = out.wedge(differential(K, b).scale(K.inv(b)))
    return out


def _nonzero(K, rng):
    while True:
        b = K.rand(rng)
        if not K.is_zero(b):
            return b


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dlog_wedge_is_the_wedge_of_the_dlogs(name):
    K, rng = FIELDS[name], random.Random(5)
    rank = len(basis_vars(K))
    top = []  # the wedges of rank dlogs
    for n in range(rank + 3):
        for _ in range(4):
            bs = [_nonzero(K, rng) for _ in range(n)]
            got = dlog_wedge(K, iter(bs))
            assert got == _wedge_of_dlogs(K, bs)
            assert got.degree == n
            if n > rank:
                assert got.is_zero()
            elif n == rank:
                top.append(got)
    assert not all(w.is_zero() for w in top)
    for b in (K.one, K.from_int(3)):
        assert dlog(K, b) == DifferentialForm.zero(K, 1)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_zero_entry_raises_in_every_position(name):
    K, rng = FIELDS[name], random.Random(11)
    rank = len(basis_vars(K))
    for n in range(1, rank + 3):
        for i in range(n):
            bs = [_nonzero(K, rng) for _ in range(n)]
            bs[i] = K.zero
            with pytest.raises(ZeroArgument):
                dlog_wedge(K, iter(bs))


def test_a_zero_entry_raises_before_the_rank_is_read():
    # x^7 - 2 over F7: an inseparable step whose dy = 0 gives no free
    # presentation, so basis_vars raises
    K = ExtField(F7, "x", (5, 0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(UnsupportedField):
        basis_vars(K)
    with pytest.raises(ZeroArgument):
        dlog_wedge(K, [K.zero, K.one])
    with pytest.raises(UnsupportedField):
        dlog_wedge(K, [K.one, K.zero])


def _residue(capsys, field, *dlogs):
    argv = ["--json", "residue", "--field", field, "--a", "1", "--f", "t", "--point", "t"]
    for b in dlogs:
        argv += ["--dlog", b]
    code = cli.main(argv)
    return code, capsys.readouterr().out


ZERO = '{"error":"ZeroArgument","message":"dlog of zero"}\n'
UNPARSABLE = '{"error":"validation","message":"unexpected character \'\'"}\n'


@pytest.mark.parametrize(
    "field, dlogs, want",
    [
        # a zero entry, then one that does not parse: the zero is seen first
        ("F7(u)(t)", ("0", "t+"), (2, ZERO)),
        ("F7(u)(t)", ("t", "u", "t", "0", "t+"), (2, ZERO)),
        ("Q(t)", ("t", "2", "0", "t+"), (2, ZERO)),
        # and the other way round, also past the rank
        ("F7(u)(t)", ("t", "u", "t", "t+", "0"), (1, UNPARSABLE)),
        ("Q(t)", ("2", "t+", "0"), (1, UNPARSABLE)),
    ],
)
def test_cli_reads_the_dlog_list_in_order(capsys, field, dlogs, want):
    assert _residue(capsys, field, *dlogs) == want


def test_cli_wedge_past_the_rank_is_zero(capsys):
    code, out = _residue(capsys, "F7(u)(t)", "t", "u", "t+1")
    assert (code, out) == (0, '{"residue":[]}\n')

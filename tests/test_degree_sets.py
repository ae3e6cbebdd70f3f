"""Musser's degree sets decide irreducibility over Q(α) from several images.

``factor_squarefree`` over Q(α) reads f at the unramified points of
``fields._image_points`` where its image is squarefree, intersects the
subset sums of the images' distinct-degree patterns (the possible degrees of
a monic factor, Musser, J. ACM 25, 1978), and answers ``[f]`` as soon as
only 0 and deg f are left.  Otherwise Trager's ``_ext_factor`` runs; called
directly it is the oracle here.
"""

from fractions import Fraction

from modsym import factor as factor_mod
from modsym.factor import _ext_factor, factor_squarefree
from modsym.fields import (
    _IMAGE_PRIMES,
    ExtField,
    FpField,
    QField,
    _fp_images,
    _image_points,
    _pgcd_fp,
    pderiv,
    pmul,
)

Q = QField()
SQRT2 = ExtField(Q, "a", (Fraction(-2), Fraction(0), Fraction(1)))
P = _image_points(SQRT2)[0][0].p  # the first prime at which 2 is a square


def _el(x, y=0):
    """x + y*√2."""
    return SQRT2.make((Fraction(x), Fraction(y)))


# t^4 + (-1+√2)t^3 + (-2-2√2)t^2 + (2-2√2)t + (3-√2): irreducible, with no
# irreducible image at any point; its first two patterns are [2, 2], [1, 3]
QUARTIC = (_el(3, -1), _el(2, -2), _el(-2, -2), _el(-1, 1), SQRT2.one)


def _pattern(F, img):
    return sorted(d for g, d in factor_mod._ddf(F, img) for _ in range((len(g) - 1) // d))


def _no_trager(monkeypatch):
    def trager(L, f):
        raise AssertionError("Trager ran on an input the degree sets decide")

    monkeypatch.setattr(factor_mod, "_ext_factor", trager)


def _counting_trager(monkeypatch):
    calls = []

    def trager(L, f):
        calls.append(f)
        return _ext_factor(L, f)

    monkeypatch.setattr(factor_mod, "_ext_factor", trager)
    return calls


def test_the_quartic_has_no_irreducible_image():
    patterns = [_pattern(F, img) for F, _, (img,) in _fp_images(SQRT2, QUARTIC)]
    assert patterns[:2] == [[2, 2], [1, 3]]
    assert all(len(p) > 1 for p in patterns)
    assert _ext_factor(SQRT2, QUARTIC) == [QUARTIC]


def test_two_patterns_decide_the_quartic(monkeypatch):
    _no_trager(monkeypatch)
    assert factor_squarefree(SQRT2, QUARTIC) == [QUARTIC]


def test_a_reducible_product_reaches_trager(monkeypatch):
    calls = _counting_trager(monkeypatch)
    g = (_el(1, 1), _el(0, 1), SQRT2.one)  # t^2 + √2 t + 1 + √2
    h = (_el(-1), _el(2), _el(3, -1), SQRT2.one)  # t^3 + (3-√2)t^2 + 2t - 1
    f = pmul(SQRT2, g, h)
    got = factor_squarefree(SQRT2, f)
    assert calls == [f]
    assert sorted(got) == sorted(_ext_factor(SQRT2, f))
    assert sorted(len(q) - 1 for q in got) == [2, 3]
    out = (SQRT2.one,)
    for q in got:
        out = pmul(SQRT2, out, q)
    assert out == f


def test_an_image_that_is_not_squarefree_adds_no_degree_set(monkeypatch):
    # f = (t^2 + P)(t^2 + 2P) reduces to t^4 at both points over P.  Read as a
    # pattern, t^4 is [1, 3]; a later point gives [2, 2], and the two sets
    # would leave {0, 4}: f would come out irreducible.
    f = pmul(SQRT2, (_el(P), SQRT2.zero, SQRT2.one), (_el(2 * P), SQRT2.zero, SQRT2.one))
    images = list(_fp_images(SQRT2, f))
    assert [img for F, _, (img,) in images[:2]] == [[0, 0, 0, 0, 1]] * 2
    assert [2, 2] in [_pattern(F, img) for F, _, (img,) in images[2:]]

    seen = []
    ddf = factor_mod._ddf

    def recording_ddf(F, g):
        seen.append((F, list(g)))
        return ddf(F, g)

    monkeypatch.setattr(factor_mod, "_ddf", recording_ddf)
    calls = _counting_trager(monkeypatch)
    got = factor_squarefree(SQRT2, f)
    images_read = [(F.p, g) for F, g in seen if len(g) == len(f)]
    assert (P, [0, 0, 0, 0, 1]) not in images_read
    assert all(len(_pgcd_fp(p, g, pderiv(FpField(p), g))) == 1 for p, g in images_read)
    assert calls == [f]
    assert sorted(len(q) - 1 for q in got) == [2, 2]
    assert sorted(got) == sorted(_ext_factor(SQRT2, f))


def test_a_ramified_point_adds_no_degree_set(monkeypatch):
    # α = p√k with p the first image prime and k a non-square mod p: m = x^2 -
    # p^2 k is x^2 mod p, and Z_(p)[α] is not integrally closed.  There the
    # image of f = t^2 - k is irreducible, yet f = (t - α/p)(t + α/p).
    p = _IMAGE_PRIMES[0]
    k = next(k for k in (2, 3, 5, 6, 7) if pow(k, (p - 1) // 2, p) == p - 1)
    L = ExtField(Q, "a", (Fraction(-p * p * k), Fraction(0), Fraction(1)))
    f = (L.from_int(-k), L.zero, L.one)
    F, unramified, (img,) = next(_fp_images(L, f))
    assert F.p == p and not unramified and _pattern(F, img) == [2]

    calls = _counting_trager(monkeypatch)
    got = factor_squarefree(L, f)
    assert calls == [f]
    third = L.make((Fraction(0), Fraction(1, p)))
    assert sorted(got) == sorted([(L.neg(third), L.one), (third, L.one)])

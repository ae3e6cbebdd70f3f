"""The degree sets over Q(α) read their images at small primes.

``factor_squarefree`` over Q(α) takes its images at the primes of
``factor._DEGREE_SET_PRIMES`` (131 <= p < 512), where x^p is cheap to raise
and a long run of primes finds many unramified points of degree 1.  ``pgcd``'s
coprimality certificate keeps ``fields._IMAGE_PRIMES``, the default of
``_image_points`` and ``_fp_images``.  An image that is not squarefree and a
ramified point add no degree set: both inputs here reach such an image at the
first small primes, where it would make a reducible f irreducible.
"""

from fractions import Fraction

from modsym import factor as factor_mod
from modsym.factor import _DEGREE_SET_PRIMES, _ext_factor, factor_squarefree
from modsym.fields import (
    _IMAGE_PRIMES,
    ExtField,
    FpField,
    _fp_images,
    _image_points,
    _is_prime,
    _pgcd_fp,
    pderiv,
    pmul,
)

from test_degree_sets import Q, QUARTIC, SQRT2, _counting_trager, _el, _no_trager, _pattern

SMALL = [p for p in _DEGREE_SET_PRIMES if _is_prime(p)]


def _recording_ddf(monkeypatch):
    seen = []
    ddf = factor_mod._ddf

    def recording(F, g):
        seen.append((F.p, list(g)))
        return ddf(F, g)

    monkeypatch.setattr(factor_mod, "_ddf", recording)
    return seen


def test_the_points_at_small_primes():
    assert len(SMALL) == 66 and min(SMALL) == 131 and max(SMALL) == 509
    points = _image_points(SQRT2, _DEGREE_SET_PRIMES)
    # 2 is a square mod p iff p = ±1 mod 8, and then x^2 - 2 has two roots
    assert sorted({F.p for F, _, _ in points}) == [p for p in SMALL if p % 8 in (1, 7)]
    assert all(unramified and (r * r - 2) % F.p == 0 for F, r, unramified in points)
    assert len(points) == 2 * len({F.p for F, _, _ in points})
    # the default stays the large primes of pgcd's certificate
    assert _image_points(SQRT2) == _image_points(SQRT2, _IMAGE_PRIMES)
    assert {F.p for F, _, _ in _image_points(SQRT2)} <= set(_IMAGE_PRIMES)


def test_the_quartic_is_decided_at_small_primes(monkeypatch):
    _no_trager(monkeypatch)
    seen = _recording_ddf(monkeypatch)
    assert factor_squarefree(SQRT2, QUARTIC) == [QUARTIC]
    assert seen and {p for p, _ in seen} <= set(SMALL)


def test_a_reducible_product_reaches_trager_once(monkeypatch):
    calls = _counting_trager(monkeypatch)
    seen = _recording_ddf(monkeypatch)
    g = (_el(1, 1), _el(0, 1), SQRT2.one)  # t^2 + √2 t + 1 + √2
    h = (_el(-1), _el(2), _el(3, -1), SQRT2.one)  # t^3 + (3-√2)t^2 + 2t - 1
    f = pmul(SQRT2, g, h)
    got = factor_squarefree(SQRT2, f)
    assert calls == [f]
    assert sorted(got) == sorted([g, h]) == sorted(_ext_factor(SQRT2, f))
    # every image of f was read at a small prime
    images = [p for p, g in seen if len(g) == len(f)]
    assert images and set(images) <= set(SMALL)


def test_an_image_that_is_not_squarefree_adds_no_degree_set(monkeypatch):
    # P is the first small prime at which 2 is a square.  f = (t^2 + P)(t^2 +
    # 2P) reduces to t^4 at both points over P; read as a pattern, t^4 is
    # [1, 3], and with a later [2, 2] f would come out irreducible.
    P = _image_points(SQRT2, _DEGREE_SET_PRIMES)[0][0].p
    f = pmul(SQRT2, (_el(P), SQRT2.zero, SQRT2.one), (_el(2 * P), SQRT2.zero, SQRT2.one))
    images = list(_fp_images(SQRT2, f, primes=_DEGREE_SET_PRIMES))
    assert [(F.p, img) for F, _, (img,) in images[:2]] == [(P, [0, 0, 0, 0, 1])] * 2
    assert _pattern(FpField(P), [0, 0, 0, 0, 1]) == [1, 3]
    assert [2, 2] in [_pattern(F, img) for F, _, (img,) in images[2:]]

    calls = _counting_trager(monkeypatch)
    seen = _recording_ddf(monkeypatch)
    got = factor_squarefree(SQRT2, f)
    images_read = [(p, g) for p, g in seen if len(g) == len(f)]
    assert images_read and (P, [0, 0, 0, 0, 1]) not in images_read
    assert all(len(_pgcd_fp(p, g, pderiv(FpField(p), g))) == 1 for p, g in images_read)
    assert calls == [f]
    assert sorted(len(q) - 1 for q in got) == [2, 2]
    assert sorted(got) == sorted(_ext_factor(SQRT2, f))


def test_a_ramified_point_adds_no_degree_set(monkeypatch):
    # α = p√k with p the first small prime and k a non-square mod p: m = x^2 -
    # p^2 k is x^2 mod p, and Z_(p)[α] is not integrally closed.  There the
    # image of f = t^2 - k is irreducible, yet f = (t - α/p)(t + α/p).
    p = SMALL[0]
    k = next(k for k in (2, 3, 5, 6, 7) if pow(k, (p - 1) // 2, p) == p - 1)
    L = ExtField(Q, "a", (Fraction(-p * p * k), Fraction(0), Fraction(1)))
    f = (L.from_int(-k), L.zero, L.one)
    F, unramified, (img,) = next(_fp_images(L, f, primes=_DEGREE_SET_PRIMES))
    assert F.p == p and not unramified and _pattern(F, img) == [2]

    calls = _counting_trager(monkeypatch)
    seen = _recording_ddf(monkeypatch)
    got = factor_squarefree(L, f)
    assert p not in [q for q, g in seen if len(g) == len(f)]
    assert calls == [f]
    third = L.make((Fraction(0), Fraction(1, p)))
    assert sorted(got) == sorted([(L.neg(third), L.one), (third, L.one)])

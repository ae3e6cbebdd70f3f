"""Modulus pairs on the projective line and their two products.

A pair is the line with an effective divisor bounding poles.  Products
combine the two divisors either by sum or, after blowing up the locus where
both divisors meet, by max; products are never materialized — every
multiplicity question is answered by the valuation formulas of
``probe_multiplicities``, with the blow-up chart computation kept as a test
oracle only.  Pairs and probes are immutable named tuples.
"""

from collections import namedtuple

from .curve import INF, Divisor, combine_divisors, divisor_of
from .errors import DegenerateMap, InfiniteValuation, UnsupportedField
from .fields import peval

SUM = "sum"
MAX = "max"


class ModulusPair(namedtuple("ModulusPair", "carrier infty m1 m2 conv", defaults=(None,) * 4)):
    """carrier "P1" with the Divisor infty, or "prod" of the line pairs m1
    and m2 under the convention conv."""

    __slots__ = ()

    def to_json(self):
        if self.carrier == "P1":
            return {"carrier": "P1", "infty": self.infty.to_json()}
        return {
            "carrier": "prod",
            "m1": self.m1.to_json(),
            "m2": self.m2.to_json(),
            "conv": self.conv,
        }

    @classmethod
    def from_json(cls, R, data):
        if data["carrier"] == "P1":
            return cls("P1", infty=Divisor.from_json(R, data["infty"]))
        return cls(
            "prod",
            m1=cls.from_json(R, data["m1"]),
            m2=cls.from_json(R, data["m2"]),
            conv=data["conv"],
        )


def pair_p1(divisor):
    if not divisor.is_effective():
        raise ValueError("modulus divisors are effective")
    return ModulusPair("P1", infty=divisor)


def pair_ga(R):
    """(P^1, 2(inf)): the additive group's representing pair."""
    return pair_p1(Divisor(R, {INF: 2}))


def pair_gm(R):
    """(P^1, (0)+(inf)): the multiplicative group's representing pair."""
    K = R.below
    return pair_p1(Divisor(R, {(K.zero, K.one): 1, INF: 1}))


def pair_box(R):
    """(P^1, (inf)): the interval."""
    return pair_p1(Divisor(R, {INF: 1}))


def product_pair(m1, m2, convention=SUM):
    if m1.carrier != "P1" or m2.carrier != "P1":
        raise UnsupportedField("products are formed from line pairs")
    return ModulusPair("prod", m1=m1, m2=m2, conv=convention)


ValuationProbe = namedtuple("ValuationProbe", "t1 t2")
ValuationProbe.__doc__ = """A local point of a product pair: the two divisor equations
pulled back along Spec O_L -> carrier, as Laurent data t1, t2 in a common parameter."""


def _probe_val(lau):
    v = lau.valuation()
    if v is None:
        raise InfiniteValuation("probe factors through the divisor")
    if v < 0:
        raise InfiniteValuation("probe leaves the integral model of the divisor chart")
    return v


def probe_multiplicities(probe):
    """Blow-up multiplicities at the probe: the exceptional divisor takes
    the common vanishing, the strict transforms the excess on each side."""
    a = _probe_val(probe.t1)
    b = _probe_val(probe.t2)
    m = min(a, b)
    return {
        "vE": m,
        "vD1": a - m,
        "vD2": b - m,
        "vInfty_sum": a + b,
        "vInfty_max": max(a, b),
    }


def pullback_divisor(R, g, target_divisor):
    """g^*(N) on the source line for a rational map g of the line."""
    out = Divisor(R)
    for y, n in target_divisor.support.items():
        if y == INF:
            part = {}
            for x, v in divisor_of(R, g).support.items():
                if v < 0:
                    part[x] = -v
            out = out + n * Divisor(R, part)
        else:
            # evaluate the point's monic equation on g
            h = peval(R, tuple(map(R.lift, y)), g)
            if R.is_zero(h):
                raise DegenerateMap("image contained in the target divisor")
            part = {}
            for x, v in divisor_of(R, h).support.items():
                if v > 0:
                    part[x] = v
            out = out + n * Divisor(R, part)
    return out


def required_modulus(R, g, target):
    """The minimal effective divisor D with g admissible from (P^1, D)."""
    if target.carrier == "P1":
        return pullback_divisor(R, g[0], target.infty)
    d1 = pullback_divisor(R, g[0], target.m1.infty)
    d2 = pullback_divisor(R, g[1], target.m2.infty)
    return combine_divisors([d1, d2], target.conv)


def admissible(g, source, target):
    """source-modulus >= pulled-back target-modulus, pointwise.

    For a line source, ``g`` is a tuple of rational functions over the
    source's function field, one per factor of the target (a ``ValueError``
    otherwise).  For a product source only monomial maps
    (m, n) |-> x^m y^n into a line pair are supported; the divisor
    inequality is then a cone condition over all probes:
    k(ma + nb) <= a+b for the sum product, <= max(a, b) for the max one.
    """
    if source.carrier == "P1":
        need = 1 if target.carrier == "P1" else 2
        if len(g) != need:
            raise ValueError(f"one map per factor of the target: {need} expected, {len(g)} given")
        R = source.infty.R
        req = required_modulus(R, g, target)
        D = source.infty
        return all(D[x] >= req[x] for x in req.support)
    if source.carrier == "prod":
        kind, m, n = g
        if kind != "monomial":
            raise UnsupportedField("product sources support monomial maps only")
        if m == 0 and n == 0:
            raise DegenerateMap("constant map from a product pair")
        if target.carrier != "P1":
            raise UnsupportedField("monomial maps target a line pair")
        k = target.infty[INF]
        if source.conv == SUM:
            return k * m <= source.m1.infty[INF] and k * n <= source.m2.infty[INF]
        M1 = source.m1.infty[INF]
        M2 = source.m2.infty[INF]
        return _max_cone(k, m, n, M1, M2)
    raise UnsupportedField(f"unknown carrier {source.carrier!r}")


def _max_cone(k, m, n, M1, M2):
    """k(m*a + n*b) <= max(M1*a, M2*b) for all integer probes a, b >= 0."""
    # linear in (a, b): check the axes and the ray where both sides tie
    if m > 0 and k * m > M1:
        return False
    if n > 0 and k * n > M2:
        return False
    # tie ray M1*a = M2*b, i.e. (a, b) = (M2, M1)
    return k * (m * M2 + n * M1) <= M1 * M2 or (m == 0 or n == 0)

"""Closed points and divisors on the projective line over a tower field.

A rational function lives in ``R = RatFunField(K, t)``; its finite closed
points are keyed by monic irreducible polynomials in t over K, the point at
infinity by the string ``"inf"`` (all valuations there use the parameter
s = 1/t).  A value g(x) lies in the residue field K(x) = K[t]/(P): the class
of g mod P.  ``boundary_values`` lists f's zeros and poles with the values
of the sections there, for the curve relations and boundary cycles.
"""

import json

from .errors import ZeroFunction
from .fields import ExtField, peval, pmonic, pmultiplicity, ptrim
from . import factor as _factor

INF = "inf"


def point_degree(point):
    return 1 if point == INF else len(point) - 1


def residue_field(R, point):
    """K(x) for a closed point x; K itself at infinity and rational points."""
    K = R.below
    if point == INF or len(point) == 2:
        return K
    return ExtField(K, "~" + R.var, point)


def evaluate_at(R, f, point):
    """Evaluate f in K(t) at a closed point; None if f has a pole there."""
    K = R.below
    num, den = f
    if point == INF:
        if len(num) > len(den):
            return None
        if len(num) < len(den):
            return K.zero
        return K.div(num[-1], den[-1])
    Kx = residue_field(R, point)
    if len(point) == 2:
        theta = K.neg(point[0])
        red = lambda poly: peval(K, poly, theta)
    else:
        red = Kx.make
    d = red(den)
    if Kx.is_zero(d):
        return None
    return Kx.div(red(num), d)


class Divisor:
    """Finite formal Z-combination of closed points of P^1 over K.

    ``support`` maps point keys (INF or monic coefficient tuples) to nonzero
    integer multiplicities.
    """

    def __init__(self, R, support=None):
        self.R = R
        self.support = {p: m for p, m in (support or {}).items() if m}

    def __eq__(self, other):
        return (
            isinstance(other, Divisor)
            and other.R == self.R
            and other.support == self.support
        )

    def __getitem__(self, point):
        return self.support.get(point, 0)

    def __add__(self, other):
        pts = set(self.support) | set(other.support)
        return Divisor(self.R, {p: self[p] + other[p] for p in pts})

    def __neg__(self):
        return Divisor(self.R, {p: -m for p, m in self.support.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n):
        return Divisor(self.R, {p: n * m for p, m in self.support.items()})

    def is_effective(self):
        return all(m >= 0 for m in self.support.values())

    def degree(self):
        return sum(point_degree(p) * m for p, m in self.support.items())

    def points(self):
        return sorted(self.support, key=lambda p: _point_key((p, 0)))

    def to_json(self):
        K = self.R.below
        out = []
        for p in self.points():
            pj = INF if p == INF else [K.elem_to_json(c) for c in p]
            out.append({"point": pj, "mult": self.support[p]})
        return out

    @classmethod
    def from_json(cls, R, data):
        K = R.below
        supp = {}
        for item in data:
            p = item["point"]
            key = INF if p == INF else ptrim(K, tuple(K.elem_from_json(c) for c in p))
            supp[key] = supp.get(key, 0) + int(item["mult"])
        return cls(R, supp)


def _point_key(item):
    p, _ = item
    if p == INF:
        return (0, "")
    return (1, len(p), json.dumps([str(c) for c in p]))


def divisor_of(R, f):
    """Principal divisor of a nonzero rational function; total degree 0."""
    if R.is_zero(f):
        raise ZeroFunction("divisor of the zero function")
    K = R.below
    num, den = f
    supp = {}
    for poly, m in _factor.factor(K, num)[1]:
        supp[poly] = supp.get(poly, 0) + m
    for poly, m in _factor.factor(K, den)[1]:
        supp[poly] = supp.get(poly, 0) - m
    v_inf = (len(den) - 1) - (len(num) - 1)
    if v_inf:
        supp[INF] = v_inf
    return Divisor(R, supp)


def parameter(R, point):
    """The local parameter at a closed point: P at a finite point P, else 1/t."""
    K = R.below
    return R.inv(R.from_poly((K.zero, K.one))) if point == INF else R.from_poly(point)


def valuation_at(R, f, point):
    """v_x(f) for nonzero f, without a full factorization."""
    if R.is_zero(f):
        raise ZeroFunction("valuation of the zero function")
    num, den = f
    if point == INF:
        return (len(den) - 1) - (len(num) - 1)
    K = R.below
    p = pmonic(K, ptrim(K, point))
    return pmultiplicity(K, num, p)[0] - pmultiplicity(K, den, p)[0]


def boundary_values(R, f, gs):
    """``(x, v_x(f), K(x), [g(x) or None for g in gs])`` at each zero and
    pole x of f, in the order of f's divisor; None marks a pole of g."""
    for x, v in divisor_of(R, f).support.items():
        yield x, v, residue_field(R, x), [evaluate_at(R, g, x) for g in gs]


def check_congruence(R, f, D):
    """f == 1 mod D: v_x(f - 1) >= D(x) at every point of the support."""
    if R.is_zero(f):
        raise ZeroFunction("congruence check on the zero function")
    if not D.is_effective():
        raise ValueError("modulus divisor must be effective")
    g = R.sub(f, R.one)
    for point, n in D.support.items():
        if R.is_zero(g):
            continue  # f = 1 exactly
        if valuation_at(R, g, point) < n:
            return False
    return True


def combine_divisors(divisors, convention):
    """Pointwise sum (tensor) or pointwise max (refined tensor)."""
    divisors = list(divisors)
    R = divisors[0].R
    pts = set()
    for d in divisors:
        pts |= set(d.support)
    if convention == "sum":
        supp = {p: sum(d[p] for d in divisors) for p in pts}
    elif convention == "max":
        supp = {p: max(d[p] for d in divisors) for p in pts}
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return Divisor(R, supp)
